#include "simmpi/engine.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "support/error.hpp"

namespace cypress::simmpi {

Engine::Engine(const Config& cfg)
    : net_(cfg.net), jitter_(cfg.jitter), faults_(cfg.faults) {
  CYP_CHECK(cfg.numRanks >= 1, "engine needs at least one rank");
  ranks_.resize(static_cast<size_t>(cfg.numRanks));
  // Each rank draws jitter from its own stream so the values it sees are
  // a function of (seed, rank, draw index) alone — independent of how
  // rank executions interleave under the parallel scheduler.
  for (int r = 0; r < cfg.numRanks; ++r)
    ranks_[static_cast<size_t>(r)].rng =
        Rng(cfg.seed + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(r + 1));
  // Communicator 0 is MPI_COMM_WORLD.
  std::vector<int> world(static_cast<size_t>(cfg.numRanks));
  for (int r = 0; r < cfg.numRanks; ++r) world[static_cast<size_t>(r)] = r;
  comms_.push_back(std::move(world));
}

int64_t Engine::takeOpResult(int rank) {
  RankState& r = rs(rank);
  const int64_t v = r.opResult;
  r.opResult = -1;
  return v;
}

const std::vector<int>& Engine::commMembers(int comm) const {
  CYP_CHECK(comm >= 0 && static_cast<size_t>(comm) < comms_.size(),
            "unknown communicator " << comm);
  return comms_[static_cast<size_t>(comm)];
}

void Engine::setObserver(int rank, trace::Observer* obs) {
  rs(rank).observer = obs;
}

void Engine::deferEvents(int rank) { rs(rank).deferring = true; }

void Engine::drainEvents(int rank, trace::Observer& obs) {
  std::vector<trace::Event>& buf = rs(rank).deferred;
  for (const trace::Event& e : buf) obs.onEvent(e);
  buf.clear();
}

uint64_t Engine::jittered(uint64_t ns, int rank) {
  if (jitter_ <= 0.0 || ns == 0) return ns;
  const double f = 1.0 + jitter_ * (2.0 * rs(rank).rng.uniform() - 1.0);
  return static_cast<uint64_t>(static_cast<double>(ns) * f);
}

void Engine::addCompute(int rank, uint64_t ns) {
  const uint64_t j = jittered(ns, rank);
  rs(rank).clock += j;
  rs(rank).computeAccum += j;
}

uint64_t Engine::executionTimeNs() const {
  uint64_t t = 0;
  for (const auto& r : ranks_) t = std::max(t, r.clock);
  return t;
}

bool Engine::takeProgressFlag() {
  const bool p = progress_;
  progress_ = false;
  return p;
}

void Engine::emit(int rank, trace::Event e, uint64_t durationNs) {
  RankState& r = rs(rank);
  e.computeNs = r.computeAccum;
  r.computeAccum = 0;
  e.durationNs = durationNs;
  r.commTime += durationNs;
  ++r.events;
  if (r.observer) r.observer->onEvent(e);
  if (r.deferring) r.deferred.push_back(e);
  progress_ = true;
}

bool Engine::matches(const Request& r, const Message& m) const {
  // Pure matching predicate — MPI matching ignores message size. The
  // truncation rule is checked against the message actually *matched*
  // (checkTruncation), not against every scanned candidate.
  if (r.comm != m.comm) return false;
  if (r.tag != m.tag) return false;
  if (r.peer != trace::kAnySource && r.peer != m.src) return false;
  return true;
}

void Engine::checkTruncation(const Request& r, const Message& m) const {
  // MPI truncation rule: a message larger than the posted receive buffer
  // is a program error (MPI_ERR_TRUNCATE). Smaller messages are fine.
  CYP_CHECK(m.bytes <= r.bytes, "message truncation: " << m.bytes
                                    << "-byte message from rank " << m.src
                                    << " into a " << r.bytes
                                    << "-byte receive (tag " << m.tag << ")");
}

void Engine::deliver(const Message& m) {
  RankState& dst = rs(m.dst);
  // Try posted receives in posting order (MPI non-overtaking rule).
  for (size_t i = 0; i < dst.pendingRecvs.size(); ++i) {
    Request& req = dst.requests[dst.pendingRecvs[i]];
    if (!req.complete && matches(req, m)) {
      checkTruncation(req, m);
      req.complete = true;
      req.matchedSource = m.src;
      req.completeNs = std::max(m.arrivalNs, dst.clock);
      dst.pendingRecvs.erase(dst.pendingRecvs.begin() + static_cast<ssize_t>(i));
      progress_ = true;
      return;
    }
  }
  dst.unexpected.push_back(m);
}

int64_t Engine::RequestTable::add(const Request& req) {
  size_t retired = 0;
  while (retired < live_.size() && live_[retired].complete &&
         live_[retired].consumed)
    ++retired;
  live_.erase(live_.begin(), live_.begin() + static_cast<ssize_t>(retired));
  base_ += static_cast<int64_t>(retired);
  live_.push_back(req);
  return end() - 1;
}

bool Engine::tryMatchRecv(int rank, int64_t reqIdx) {
  RankState& r = rs(rank);
  Request& req = r.requests[reqIdx];
  // Deterministic match order. For a specific source the deque scan is
  // FIFO per (src, tag, comm) pair, as MPI requires. For MPI_ANY_SOURCE
  // the match must be a function of the *set* of buffered messages, not
  // of the delivery schedule that built it: pick the lowest source rank
  // first, FIFO within that pair (the deque preserves per-pair order).
  size_t best = r.unexpected.size();
  for (size_t i = 0; i < r.unexpected.size(); ++i) {
    const Message& m = r.unexpected[i];
    if (!matches(req, m)) continue;
    if (best == r.unexpected.size() || m.src < r.unexpected[best].src) best = i;
    if (req.peer != trace::kAnySource) break;
  }
  if (best == r.unexpected.size()) return false;
  const Message& m = r.unexpected[best];
  checkTruncation(req, m);
  req.complete = true;
  req.matchedSource = m.src;
  req.completeNs = std::max(m.arrivalNs, r.clock);
  r.unexpected.erase(r.unexpected.begin() + static_cast<ssize_t>(best));
  return true;
}

Engine::Request Engine::requestOf(const OpDesc& d) {
  Request q;
  q.kind = d.op;
  q.peer = d.peer;
  q.bytes = d.bytes;
  q.tag = d.tag;
  q.comm = d.comm;
  q.postSite = d.callSiteId;
  return q;
}

trace::Event Engine::requestEvent(ir::MpiOp op, const Request& q,
                                  int32_t callSite) {
  trace::Event e;
  e.op = op;
  e.peer = q.peer;
  e.bytes = q.bytes;
  e.tag = q.tag;
  e.comm = q.comm;
  e.callSiteId = callSite;
  switch (op) {
    case ir::MpiOp::Wait:
    case ir::MpiOp::Waitany:
    case ir::MpiOp::Waitsome:
      e.reqId = q.postSite;
      [[fallthrough]];
    case ir::MpiOp::Recv:
      if (q.peer == trace::kAnySource) e.matchedSource = q.matchedSource;
      break;
    default:
      break;
  }
  return e;
}

void Engine::completeSplit(Collective& c) {
  // Deterministic group formation: distinct non-negative colors in
  // ascending order each get the next communicator id, whose members are
  // listed in world-rank order. Sorting the arrivals by member makes the
  // result independent of the arrival order, and lets each member find
  // its handle by binary search.
  std::sort(c.split.begin(), c.split.end(),
            [](const SplitArrival& a, const SplitArrival& b) {
              return a.member < b.member;
            });
  std::map<int32_t, int32_t> ids;  // color -> new communicator id
  for (const SplitArrival& a : c.split)
    if (a.color >= 0) ids.emplace(a.color, 0);
  for (auto& [color, id] : ids) {
    id = static_cast<int32_t>(comms_.size());
    comms_.emplace_back();
  }
  for (SplitArrival& a : c.split) {
    if (a.color < 0) continue;
    a.result = ids.at(a.color);
    comms_[static_cast<size_t>(a.result)].push_back(a.member);
  }
}

OpStatus Engine::handleCollective(int rank, const OpDesc& d) {
  RankState& r = rs(rank);
  const std::vector<int>& members = commMembers(d.comm);
  CYP_CHECK(std::binary_search(members.begin(), members.end(), rank),
            "rank " << rank << " called " << ir::mpiOpName(d.op)
                    << " on communicator " << d.comm << " it is not part of");
  // completeSplit may grow comms_, which `members` points into.
  const int size = static_cast<int>(members.size());
  if (r.collSeq.size() <= static_cast<size_t>(d.comm))
    r.collSeq.resize(static_cast<size_t>(d.comm) + 1, 0);
  const int seq = r.collSeq[static_cast<size_t>(d.comm)]++;
  Collective& c = rendezvous_.at(d.comm, seq);
  const Collective::Mismatch m = c.arrive(d.op, d.bytes, d.peer, r.clock);
  CYP_CHECK(m != Collective::Mismatch::Op,
            "collective mismatch: rank " << rank << " called "
                                         << ir::mpiOpName(d.op)
                                         << " where others called "
                                         << ir::mpiOpName(c.op));
  CYP_CHECK(m != Collective::Mismatch::Bytes,
            "collective size mismatch on " << ir::mpiOpName(d.op));
  CYP_CHECK(m != Collective::Mismatch::Root,
            "collective root mismatch on " << ir::mpiOpName(d.op));
  if (d.op == ir::MpiOp::CommSplit) c.split.push_back({rank, d.color});
  r.pending = PendingOp{PendingKind::Collective, d, seq, r.clock};
  if (c.arrived < size) return OpStatus::Blocked;
  // The last arrival finishes the instance and completes like a poll.
  c.finish(jittered(c.cost(net_, size), rank));
  if (d.op == ir::MpiOp::CommSplit) completeSplit(c);
  completePending(rank);
  return OpStatus::Complete;
}

bool Engine::maybeKill(int rank, const OpDesc& d) {
  if (faults_.empty()) return false;
  RankState& r = rs(rank);
  const Fault* f = faults_.find(Fault::Kind::KillRank, rank, r.mpiCalls);
  if (f == nullptr && ir::isCollective(d.op))
    f = faults_.find(Fault::Kind::AbortCollective, rank, r.collCalls);
  if (f == nullptr) return false;
  // The rank dies *entering* the call: no event is emitted, no engine
  // state is mutated (a collective never sees its arrival), and the
  // observer is not finalized — its trace ends mid-stream, exactly like
  // a process crash under real tracing.
  r.dead = true;
  r.deathDesc = d;
  progress_ = true;  // dying is progress: the scheduler must not stall
  return true;
}

OpStatus Engine::execute(int rank, const OpDesc& d, int64_t* reqIdOut) {
  RankState& r = rs(rank);
  CYP_CHECK(r.pending.kind == PendingKind::None,
            "rank " << rank << " issued an op while one is pending");
  CYP_CHECK(!r.finalized, "rank " << rank << " issued an op after finalize");
  CYP_CHECK(!r.dead, "rank " << rank << " issued an op after being killed");

  ++r.mpiCalls;
  if (ir::isCollective(d.op)) ++r.collCalls;
  if (maybeKill(rank, d)) return OpStatus::Failed;

  switch (d.op) {
    case ir::MpiOp::Send: {
      CYP_CHECK(d.peer >= 0 && d.peer < numRanks(),
                "Send to invalid rank " << d.peer);
      Message m{rank, d.peer, d.tag, d.comm, d.bytes,
                r.clock + jittered(net_.transferTime(d.bytes), rank), r.msgSeq++};
      const uint64_t cost = jittered(net_.sendOverhead(d.bytes), rank);
      r.clock += cost;
      injectSendFaults(rank, m);
      emit(rank, requestEvent(d.op, requestOf(d), d.callSiteId), cost);
      return OpStatus::Complete;
    }
    case ir::MpiOp::Isend: {
      CYP_CHECK(d.peer >= 0 && d.peer < numRanks(),
                "Isend to invalid rank " << d.peer);
      Request req = requestOf(d);
      req.complete = true;  // eager: buffer reusable after local copy
      req.completeNs = r.clock + jittered(net_.sendOverhead(d.bytes), rank);
      const int64_t id = r.requests.add(req);
      r.outstanding.push_back(id);
      if (reqIdOut) *reqIdOut = id;
      Message m{rank, d.peer, d.tag, d.comm, d.bytes,
                r.clock + jittered(net_.transferTime(d.bytes), rank), r.msgSeq++};
      injectSendFaults(rank, m);
      const uint64_t cost = static_cast<uint64_t>(net_.overheadNs);
      r.clock += cost;
      emit(rank, requestEvent(d.op, req, d.callSiteId), cost);
      return OpStatus::Complete;
    }
    case ir::MpiOp::Irecv: {
      const Request req = requestOf(d);  // the peer may be kAnySource
      const int64_t id = r.requests.add(req);
      r.outstanding.push_back(id);
      if (reqIdOut) *reqIdOut = id;
      if (!tryMatchRecv(rank, id)) r.pendingRecvs.push_back(id);
      const uint64_t cost = static_cast<uint64_t>(net_.overheadNs);
      r.clock += cost;
      emit(rank, requestEvent(d.op, req, d.callSiteId), cost);
      return OpStatus::Complete;
    }
    case ir::MpiOp::Recv: {
      Request req = requestOf(d);
      req.consumed = true;  // not visible to Waitall/Waitany
      const int64_t id = r.requests.add(req);
      r.pending.kind = PendingKind::Recv;
      r.pending.desc = d;
      r.pending.reqIdx = id;
      r.pending.blockStartNs = r.clock;
      if (!tryMatchRecv(rank, id)) {
        r.pendingRecvs.push_back(id);
        if (!r.requests[id].complete) return OpStatus::Blocked;
      }
      completePending(rank);
      return OpStatus::Complete;
    }
    case ir::MpiOp::Wait: {
      CYP_CHECK(d.waitReqId >= 0 && d.waitReqId < r.requests.end(),
                "Wait on invalid request " << d.waitReqId);
      CYP_CHECK(d.waitReqId >= r.requests.base() &&
                    !r.requests[d.waitReqId].consumed,
                "Wait on already-completed request");
      Request& req = r.requests[d.waitReqId];
      r.pending.kind = PendingKind::Wait;
      r.pending.desc = d;
      r.pending.reqIdx = d.waitReqId;
      r.pending.blockStartNs = r.clock;
      if (!req.complete) return OpStatus::Blocked;
      completePending(rank);
      return OpStatus::Complete;
    }
    case ir::MpiOp::Waitall:
    case ir::MpiOp::Waitany:
    case ir::MpiOp::Waitsome: {
      r.pending.kind = d.op == ir::MpiOp::Waitall  ? PendingKind::Waitall
                       : d.op == ir::MpiOp::Waitany ? PendingKind::Waitany
                                                    : PendingKind::Waitsome;
      r.pending.desc = d;
      r.pending.blockStartNs = r.clock;
      if (!pendingSatisfied(rank)) return OpStatus::Blocked;
      completePending(rank);
      return OpStatus::Complete;
    }
    case ir::MpiOp::Barrier:
    case ir::MpiOp::Bcast:
    case ir::MpiOp::Reduce:
    case ir::MpiOp::Allreduce:
    case ir::MpiOp::Allgather:
    case ir::MpiOp::Alltoall:
    case ir::MpiOp::Gather:
    case ir::MpiOp::Scatter:
    case ir::MpiOp::Scan:
    case ir::MpiOp::CommSplit:
      return handleCollective(rank, d);
  }
  CYP_FAIL("bad op");
}

bool Engine::pendingSatisfied(int rank) {
  RankState& r = rs(rank);
  switch (r.pending.kind) {
    case PendingKind::None:
      return false;
    case PendingKind::Recv:
    case PendingKind::Wait:
      return r.requests[r.pending.reqIdx].complete;
    case PendingKind::Waitall: {
      for (int64_t id : r.outstanding)
        if (!r.requests[id].complete) return false;
      return true;
    }
    case PendingKind::Waitany:
    case PendingKind::Waitsome: {
      // Wait{any,some} with no outstanding requests is a program bug.
      CYP_CHECK(!r.outstanding.empty(),
                ir::mpiOpName(r.pending.desc.op)
                    << " with no outstanding requests on rank " << rank);
      for (int64_t id : r.outstanding)
        if (r.requests[id].complete) return true;
      return false;
    }
    case PendingKind::Collective:
      return rendezvous_
          .at(r.pending.desc.comm, static_cast<int>(r.pending.reqIdx))
          .done;
  }
  return false;
}

void Engine::completePending(int rank) {
  RankState& r = rs(rank);
  const PendingOp p = r.pending;
  r.pending = PendingOp{};

  switch (p.kind) {
    case PendingKind::None:
      CYP_FAIL("completePending with no pending op");
    case PendingKind::Recv: {
      Request& req = r.requests[p.reqIdx];
      const uint64_t done =
          std::max(req.completeNs, r.clock) + net_.recvOverhead(req.bytes);
      const uint64_t duration = done - p.blockStartNs;
      r.clock = done;
      emit(rank, requestEvent(ir::MpiOp::Recv, req, p.desc.callSiteId),
           duration);
      return;
    }
    case PendingKind::Wait: {
      Request& req = r.requests[p.reqIdx];
      req.consumed = true;
      std::erase(r.outstanding, p.reqIdx);
      const uint64_t done = std::max(req.completeNs, r.clock) +
                            (req.kind == ir::MpiOp::Irecv
                                 ? net_.recvOverhead(req.bytes)
                                 : 0);
      const uint64_t duration = done - p.blockStartNs;
      r.clock = done;
      emit(rank, requestEvent(ir::MpiOp::Wait, req, p.desc.callSiteId),
           duration);
      return;
    }
    case PendingKind::Waitall: {
      uint64_t done = r.clock;
      for (int64_t id : r.outstanding) {
        Request& q = r.requests[id];
        q.consumed = true;
        done = std::max(done, q.completeNs);
      }
      r.outstanding.clear();
      done += net_.recvOverhead(0);
      const uint64_t duration = done - p.blockStartNs;
      r.clock = done;
      trace::Event e;
      e.op = ir::MpiOp::Waitall;
      e.comm = p.desc.comm;
      e.callSiteId = p.desc.callSiteId;
      emit(rank, e, duration);
      return;
    }
    case PendingKind::Waitany: {
      // Deterministic: the earliest-completed outstanding request.
      int64_t best = -1;
      for (int64_t id : r.outstanding) {
        const Request& q = r.requests[id];
        if (!q.complete) continue;
        if (best < 0 ||
            q.completeNs < r.requests[best].completeNs) {
          best = id;
        }
      }
      CYP_CHECK(best >= 0, "Waitany completed without a complete request");
      Request& req = r.requests[best];
      req.consumed = true;
      std::erase(r.outstanding, best);
      const uint64_t done = std::max(req.completeNs, r.clock) +
                            net_.recvOverhead(req.bytes);
      const uint64_t duration = done - p.blockStartNs;
      r.clock = done;
      emit(rank, requestEvent(ir::MpiOp::Waitany, req, p.desc.callSiteId),
           duration);
      return;
    }
    case PendingKind::Waitsome: {
      // Complete every currently-complete outstanding request, emitting
      // one event per completion (the paper's partial-completion ops,
      // recorded via their posting-site GIDs, §IV-A).
      std::vector<int64_t> ready;
      for (int64_t id : r.outstanding)
        if (r.requests[id].complete) ready.push_back(id);
      CYP_CHECK(!ready.empty(), "Waitsome completed without a complete request");
      uint64_t done = r.clock;
      for (int64_t id : ready) {
        Request& req = r.requests[id];
        req.consumed = true;
        std::erase(r.outstanding, id);
        done = std::max(done, req.completeNs);
      }
      done += net_.recvOverhead(0);
      const uint64_t total = done - p.blockStartNs;
      r.clock = done;
      for (size_t k = 0; k < ready.size(); ++k) {
        // Charge the wall time once (on the first completion event).
        emit(rank,
             requestEvent(ir::MpiOp::Waitsome, r.requests[ready[k]],
                          p.desc.callSiteId),
             k == 0 ? total : 0);
      }
      return;
    }
    case PendingKind::Collective: {
      const int seq = static_cast<int>(p.reqIdx);
      const Collective& c = rendezvous_.at(p.desc.comm, seq);
      r.clock = c.finishNs;
      trace::Event e;
      e.op = p.desc.op;
      e.peer = p.desc.peer;
      e.bytes = p.desc.bytes;
      e.comm = p.desc.comm;
      e.callSiteId = p.desc.callSiteId;
      if (p.desc.op == ir::MpiOp::CommSplit) {
        e.bytes = p.desc.color;
        e.tag = p.desc.key;
        // completeSplit left the arrivals sorted by member.
        const auto it = std::lower_bound(
            c.split.begin(), c.split.end(), rank,
            [](const SplitArrival& a, int m) { return a.member < m; });
        e.reqId = it->result;
        r.opResult = e.reqId;
      }
      emit(rank, e, c.finishNs - p.blockStartNs);
      rendezvous_.consume(p.desc.comm, seq);
      return;
    }
  }
}

OpStatus Engine::poll(int rank) {
  RankState& r = rs(rank);
  CYP_CHECK(r.pending.kind != PendingKind::None,
            "poll on rank " << rank << " with no pending op");
  if (!pendingSatisfied(rank)) return OpStatus::Blocked;
  completePending(rank);
  return OpStatus::Complete;
}

void Engine::finalizeRank(int rank) {
  RankState& r = rs(rank);
  CYP_CHECK(r.pending.kind == PendingKind::None,
            "rank " << rank << " finalized with a pending op");
  int64_t id = r.requests.base();
  for (const Request& q : r.requests.live()) {
    CYP_CHECK(q.consumed,
              "rank " << rank << " finalized with outstanding request " << id);
    ++id;
  }
  CYP_CHECK(r.outstanding.empty(),
            "rank " << rank << " finalized with outstanding requests");
  r.finalized = true;
  if (r.observer) r.observer->onFinalize();
}

void Engine::injectSendFaults(int rank, Message m) {
  RankState& r = rs(rank);
  ++r.sendsIssued;
  if (!faults_.empty()) {
    if (faults_.find(Fault::Kind::DropMessage, rank, r.sendsIssued) != nullptr)
      return;  // lost on the wire: never delivered, the sender is unaware
    if (const Fault* f =
            faults_.find(Fault::Kind::DelayMessage, rank, r.sendsIssued))
      m.arrivalNs += f->delayNs;
  }
  deliver(m);
}

std::vector<int> Engine::deadRanks() const {
  std::vector<int> dead;
  for (int r = 0; r < numRanks(); ++r)
    if (ranks_[static_cast<size_t>(r)].dead) dead.push_back(r);
  return dead;
}

std::string Engine::RankDiagnostic::toString() const {
  std::ostringstream os;
  os << "rank " << rank << ": ";
  switch (state) {
    case State::Runnable:
      os << "runnable (after " << callIndex << " MPI calls)";
      break;
    case State::Finalized:
      os << "finalized (" << callIndex << " MPI calls)";
      break;
    case State::Dead:
      os << "dead in " << op << " at MPI call #" << callIndex;
      break;
    case State::Blocked:
      os << "blocked in " << op << " [peer=" << peer << " tag=" << tag
         << " comm=" << comm;
      if (seq >= 0) os << " seq=" << seq;
      os << "] at MPI call #" << callIndex;
      break;
  }
  if (!detail.empty()) os << " — " << detail;
  return os.str();
}

Engine::RankDiagnostic Engine::diagnose(int rank) const {
  const RankState& r = rs(rank);
  RankDiagnostic d;
  d.rank = rank;
  d.callIndex = r.mpiCalls;
  if (r.dead) {
    d.state = RankDiagnostic::State::Dead;
    d.op = ir::mpiOpName(r.deathDesc.op);
    d.peer = r.deathDesc.peer;
    d.tag = r.deathDesc.tag;
    d.comm = r.deathDesc.comm;
    d.detail = "killed by the fault plan";
    return d;
  }
  if (r.finalized) {
    d.state = RankDiagnostic::State::Finalized;
    return d;
  }
  if (r.pending.kind == PendingKind::None) {
    d.state = RankDiagnostic::State::Runnable;
    return d;
  }

  d.state = RankDiagnostic::State::Blocked;
  d.op = ir::mpiOpName(r.pending.desc.op);
  d.peer = r.pending.desc.peer;
  d.tag = r.pending.desc.tag;
  d.comm = r.pending.desc.comm;
  std::ostringstream why;
  auto describePeer = [&](int32_t peer) {
    if (peer == trace::kAnySource) {
      why << "waiting on MPI_ANY_SOURCE";
    } else if (peer >= 0 && peer < numRanks() &&
               ranks_[static_cast<size_t>(peer)].dead) {
      why << "peer rank " << peer << " is dead";
    } else {
      why << "no matching message from rank " << peer;
    }
  };
  switch (r.pending.kind) {
    case PendingKind::Recv: {
      d.seq = r.pending.reqIdx;
      describePeer(r.pending.desc.peer);
      break;
    }
    case PendingKind::Wait: {
      d.seq = r.pending.reqIdx;
      const Request& q = r.requests[r.pending.reqIdx];
      d.peer = q.peer;
      d.tag = q.tag;
      d.comm = q.comm;
      why << "request #" << r.pending.reqIdx << " ("
          << ir::mpiOpName(q.kind) << ") incomplete; ";
      describePeer(q.peer);
      break;
    }
    case PendingKind::Waitall:
    case PendingKind::Waitany:
    case PendingKind::Waitsome: {
      int incomplete = 0;
      for (int64_t id : r.outstanding) {
        const Request& q = r.requests[id];
        if (q.complete) continue;
        if (incomplete++ > 0) why << ", ";
        why << ir::mpiOpName(q.kind) << "(peer=" << q.peer
            << " tag=" << q.tag << ")";
        if (q.peer >= 0 && q.peer < numRanks() &&
            ranks_[static_cast<size_t>(q.peer)].dead)
          why << " [peer dead]";
      }
      if (incomplete > 0) why << " incomplete (" << incomplete << " total)";
      break;
    }
    case PendingKind::Collective: {
      // A member has arrived at (comm, seq) iff it has made more than seq
      // collective calls on comm; a rank killed entering this call has not.
      const auto comm = static_cast<size_t>(r.pending.desc.comm);
      d.seq = r.pending.reqIdx;
      std::vector<int> missing, deadMissing;
      for (int m : commMembers(r.pending.desc.comm)) {
        const RankState& ms = rs(m);
        if (comm < ms.collSeq.size() && ms.collSeq[comm] > d.seq) continue;
        missing.push_back(m);
        if (ms.dead) deadMissing.push_back(m);
      }
      why << "waiting for rank";
      if (missing.size() > 1) why << 's';
      for (size_t i = 0; i < missing.size(); ++i)
        why << (i ? "," : "") << ' ' << missing[i];
      if (!deadMissing.empty()) {
        why << " (dead:";
        for (int m : deadMissing) why << ' ' << m;
        why << ')';
      }
      break;
    }
    case PendingKind::None:
      break;
  }
  d.detail = why.str();
  return d;
}

std::string Engine::stallDump(const std::string& reason,
                              const std::vector<int>& active) const {
  std::ostringstream os;
  os << reason;
  if (!faults_.empty()) os << " [fault plan: " << faults_.toString() << ']';
  os << '\n';
  // Dead ranks first (the usual root cause), then every still-active rank.
  for (int r : deadRanks()) os << "  " << diagnose(r).toString() << '\n';
  for (int r : active) {
    if (rs(r).dead) continue;
    os << "  " << diagnose(r).toString() << '\n';
  }
  return os.str();
}

void Engine::failStalled(const std::vector<int>& active) const {
  CYP_FAIL("MPI hang detected: no rank can make progress\n"
           << stallDump("per-rank state:", active));
}

}  // namespace cypress::simmpi
