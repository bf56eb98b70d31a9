#include "replay/simulator.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>

#include "cypress/decompress.hpp"
#include "cypress/merge.hpp"
#include "query/engine.hpp"
#include "support/error.hpp"

namespace cypress::replay {

namespace {

using trace::Event;

/// Event-at-a-time feed for one simulation: the simulator only reads
/// each rank's current event and advances past it, so sources can
/// stream straight off the compressed trace.
class EventSource {
 public:
  virtual ~EventSource() = default;
  virtual size_t numRanks() const = 0;
  /// Rank r's current event; nullptr when r is exhausted. The pointer
  /// stays valid until advance(r).
  virtual const Event* current(size_t r) = 0;
  virtual void advance(size_t r) = 0;
};

class RawSource final : public EventSource {
 public:
  explicit RawSource(const trace::RawTrace& t)
      : t_(t), next_(t.ranks.size(), 0) {}
  size_t numRanks() const override { return t_.ranks.size(); }
  const Event* current(size_t r) override {
    const auto& ev = t_.ranks[r].events;
    return next_[r] < ev.size() ? &ev[next_[r]] : nullptr;
  }
  void advance(size_t r) override { ++next_[r]; }

 private:
  const trace::RawTrace& t_;
  std::vector<size_t> next_;
};

class CompressedSource final : public EventSource {
 public:
  CompressedSource(const core::MergedCtt& m, int numRanks) {
    cursors_.reserve(static_cast<size_t>(numRanks));
    for (int r = 0; r < numRanks; ++r) cursors_.emplace_back(m, r);
  }
  size_t numRanks() const override { return cursors_.size(); }
  const Event* current(size_t r) override {
    return cursors_[r].done() ? nullptr : &cursors_[r].peek();
  }
  void advance(size_t r) override { cursors_[r].next(); }

 private:
  std::vector<core::CompressedCursor> cursors_;
};

/// FIFO channel key for p2p matching.
struct ChanKey {
  int32_t src, dst, tag, comm;
  auto operator<=>(const ChanKey&) const = default;
};

struct OutstandingReq {
  bool isSend = false;
  ChanKey key{};
  int64_t bytes = 0;
  int32_t postSite = -1;
  uint64_t postClock = 0;
  int32_t matchedSource = -1;  // wildcard irecv: filled from the wait event
};

class Sim {
 public:
  Sim(EventSource& src, const simmpi::LogGP& net) : src_(src), net_(net) {
    const size_t n = src.numRanks();
    clock_.assign(n, 0);
    comm_.assign(n, 0);
    consumed_.assign(n, 0);
    outstanding_.resize(n);
    collSeq_.resize(n);
    computeChargedIdx_.assign(n, -1);
    pendingColl_.assign(n, -1);
    pendingCollComm_.assign(n, 0);
  }

  Prediction run() {
    const int n = static_cast<int>(src_.numRanks());
    int finished = 0;
    std::vector<bool> done(static_cast<size_t>(n), false);
    while (finished < n) {
      bool progress = false;
      for (int r = 0; r < n; ++r) {
        if (done[static_cast<size_t>(r)]) continue;
        while (step(r)) progress = true;
        if (src_.current(static_cast<size_t>(r)) == nullptr) {
          done[static_cast<size_t>(r)] = true;
          ++finished;
          progress = true;
        }
      }
      if (!progress && finished < n) {
        std::ostringstream os;
        os << "replay deadlock:";
        for (int r = 0; r < n; ++r) {
          if (!done[static_cast<size_t>(r)]) {
            os << " rank " << r << " at event "
               << consumed_[static_cast<size_t>(r)] << " ("
               << src_.current(static_cast<size_t>(r))->toString() << ")";
          }
        }
        throw Error(os.str());
      }
    }

    Prediction p;
    p.rankClockNs = clock_;
    p.rankCommNs = comm_;
    for (uint64_t c : clock_) p.predictedNs = std::max(p.predictedNs, c);
    p.totalEvents = totalEvents_;
    return p;
  }

 private:
  /// Attempt the next event of rank r. Returns true when it completed.
  bool step(int r) {
    const Event* ep = src_.current(static_cast<size_t>(r));
    if (ep == nullptr) return false;
    const Event& e = *ep;

    switch (e.op) {
      case ir::MpiOp::Send:
      case ir::MpiOp::Isend: {
        chargeCompute(r, e);
        const ChanKey key{r, e.peer, e.tag, e.comm};
        const uint64_t sendCost = e.op == ir::MpiOp::Send
                                      ? net_.sendOverhead(e.bytes)
                                      : static_cast<uint64_t>(net_.overheadNs);
        if (e.op == ir::MpiOp::Isend) {
          OutstandingReq q;
          q.isSend = true;
          q.key = key;
          q.bytes = e.bytes;
          q.postSite = e.callSiteId;
          q.postClock = clock_[static_cast<size_t>(r)];
          outstanding_[static_cast<size_t>(r)].push_back(q);
        }
        channels_[key].push_back(clock_[static_cast<size_t>(r)] +
                                 net_.transferTime(e.bytes));
        advance(r, sendCost);
        return finishEvent(r);
      }
      case ir::MpiOp::Recv: {
        chargeCompute(r, e);
        const int32_t src = e.peer == trace::kAnySource ? e.matchedSource : e.peer;
        CYP_CHECK(src >= 0, "replay: Recv without a resolvable source");
        const ChanKey key{src, r, e.tag, e.comm};
        auto it = channels_.find(key);
        if (it == channels_.end() || it->second.empty()) return false;  // blocked
        const uint64_t avail = it->second.front();
        it->second.pop_front();
        const uint64_t done =
            std::max(clock_[static_cast<size_t>(r)], avail) + net_.recvOverhead(e.bytes);
        comm_[static_cast<size_t>(r)] += done - clock_[static_cast<size_t>(r)];
        clock_[static_cast<size_t>(r)] = done;
        return finishEvent(r);
      }
      case ir::MpiOp::Irecv: {
        chargeCompute(r, e);
        OutstandingReq q;
        q.isSend = false;
        q.key = ChanKey{e.peer, r, e.tag, e.comm};  // src may be ANY
        q.bytes = e.bytes;
        q.postSite = e.callSiteId;
        q.postClock = clock_[static_cast<size_t>(r)];
        outstanding_[static_cast<size_t>(r)].push_back(q);
        advance(r, static_cast<uint64_t>(net_.overheadNs));
        return finishEvent(r);
      }
      case ir::MpiOp::Wait:
      case ir::MpiOp::Waitany:
      case ir::MpiOp::Waitsome: {
        chargeCompute(r, e);
        auto& reqs = outstanding_[static_cast<size_t>(r)];
        // The completed request is identified by its posting site (the
        // paper's request->GID mapping), FIFO among same-site posts.
        size_t pick = reqs.size();
        for (size_t i = 0; i < reqs.size(); ++i) {
          if (reqs[i].postSite == static_cast<int32_t>(e.reqId)) {
            pick = i;
            break;
          }
        }
        CYP_CHECK(pick < reqs.size(),
                  "replay: wait for unknown request site " << e.reqId);
        uint64_t completion = 0;
        if (!completeReq(r, reqs[static_cast<size_t>(pick)], e, &completion))
          return false;  // message not yet available
        reqs.erase(reqs.begin() + static_cast<ssize_t>(pick));
        const uint64_t done = std::max(clock_[static_cast<size_t>(r)], completion);
        comm_[static_cast<size_t>(r)] += done - clock_[static_cast<size_t>(r)];
        clock_[static_cast<size_t>(r)] = done;
        return finishEvent(r);
      }
      case ir::MpiOp::Waitall: {
        chargeCompute(r, e);
        auto& reqs = outstanding_[static_cast<size_t>(r)];
        // All must be completable; peek without consuming first.
        uint64_t latest = clock_[static_cast<size_t>(r)];
        // Make a scratch copy of channels' heads per key to honour FIFO.
        std::map<ChanKey, size_t> consumed;
        for (const OutstandingReq& q : reqs) {
          uint64_t completion = 0;
          if (!peekReq(r, q, e, consumed, &completion)) return false;
          latest = std::max(latest, completion);
        }
        // Commit: consume the messages.
        for (const OutstandingReq& q : reqs) {
          uint64_t completion = 0;
          const bool ok = completeReq(r, q, e, &completion);
          CYP_CHECK(ok, "replay: waitall commit failed after successful peek");
        }
        reqs.clear();
        const uint64_t done = latest + net_.recvOverhead(0);
        comm_[static_cast<size_t>(r)] += done - clock_[static_cast<size_t>(r)];
        clock_[static_cast<size_t>(r)] = done;
        return finishEvent(r);
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
        return stepCollective(r, e);
    }
    CYP_FAIL("replay: bad op");
  }

  /// Charge the event's pre-op computation exactly once even when the
  /// op itself blocks and is retried.
  void chargeCompute(int r, const Event& e) {
    const auto idx = static_cast<int64_t>(consumed_[static_cast<size_t>(r)]);
    if (computeChargedIdx_[static_cast<size_t>(r)] == idx) return;
    clock_[static_cast<size_t>(r)] += e.computeNs;
    computeChargedIdx_[static_cast<size_t>(r)] = idx;
  }

  void advance(int r, uint64_t commCost) {
    clock_[static_cast<size_t>(r)] += commCost;
    comm_[static_cast<size_t>(r)] += commCost;
  }

  bool finishEvent(int r) {
    src_.advance(static_cast<size_t>(r));
    ++consumed_[static_cast<size_t>(r)];
    ++totalEvents_;
    return true;
  }

  /// Completion time of one outstanding request, consuming its message.
  bool completeReq(int r, const OutstandingReq& q, const Event& waitEv,
                   uint64_t* completion) {
    if (q.isSend) {
      *completion = q.postClock + net_.sendOverhead(q.bytes);
      return true;
    }
    ChanKey key = q.key;
    if (key.src == trace::kAnySource) {
      CYP_CHECK(waitEv.matchedSource >= 0 ||
                    waitEv.op == ir::MpiOp::Waitall,
                "replay: wildcard wait without matched source");
      key.src = waitEv.matchedSource >= 0 ? waitEv.matchedSource
                                          : anyMatchSource(r, key);
      CYP_CHECK(key.src >= 0, "replay: cannot resolve wildcard source");
    }
    auto it = channels_.find(key);
    if (it == channels_.end() || it->second.empty()) return false;
    *completion = std::max(q.postClock, it->second.front()) +
                  net_.recvOverhead(q.bytes);
    it->second.pop_front();
    return true;
  }

  /// Like completeReq but without consuming (for waitall's all-or-nothing
  /// check); `consumed` tracks FIFO positions already claimed.
  bool peekReq(int r, const OutstandingReq& q, const Event& waitEv,
               std::map<ChanKey, size_t>& consumed, uint64_t* completion) {
    if (q.isSend) {
      *completion = q.postClock + net_.sendOverhead(q.bytes);
      return true;
    }
    ChanKey key = q.key;
    if (key.src == trace::kAnySource) {
      key.src = waitEv.matchedSource >= 0 ? waitEv.matchedSource
                                          : anyMatchSource(r, key);
      if (key.src < 0) return false;
    }
    auto it = channels_.find(key);
    if (it == channels_.end()) return false;
    size_t& used = consumed[key];
    if (used >= it->second.size()) return false;
    *completion = std::max(q.postClock, it->second[used]) +
                  net_.recvOverhead(q.bytes);
    ++used;
    return true;
  }

  /// Resolve a wildcard receive inside Waitall: pick any channel into r
  /// with a pending message (deterministic lowest source).
  int32_t anyMatchSource(int r, const ChanKey& proto) {
    for (const auto& [key, dq] : channels_) {
      if (key.dst == r && key.tag == proto.tag && key.comm == proto.comm &&
          !dq.empty()) {
        return key.src;
      }
    }
    return -1;
  }

  struct Collective {
    ir::MpiOp op = ir::MpiOp::Barrier;
    int64_t bytes = 0;
    int arrived = 0;
    bool done = false;
    uint64_t finish = 0;
    std::vector<uint64_t> arrivals;
    std::map<int, int32_t> splitResult;  // world rank -> new comm handle
  };

  bool stepCollective(int r, const Event& e) {
    chargeCompute(r, e);
    const auto rr = static_cast<size_t>(r);
    if (pendingColl_[rr] < 0) {
      // First attempt: register the arrival.
      const std::vector<int>& members = commMembers(e.comm);
      CYP_CHECK(std::binary_search(members.begin(), members.end(), r),
                "replay: rank " << r << " not in communicator " << e.comm);
      const int mySeq = collSeq_[rr][e.comm]++;
      Collective& c = slot(e.comm, mySeq);
      if (c.arrived == 0) {
        c.op = e.op;
        c.bytes = e.op == ir::MpiOp::CommSplit ? 0 : e.bytes;
        c.arrivals.assign(src_.numRanks(), 0);
      } else {
        CYP_CHECK(c.op == e.op &&
                      (e.op == ir::MpiOp::CommSplit || c.bytes == e.bytes),
                  "replay: collective mismatch at " << ir::mpiOpName(e.op));
      }
      c.arrivals[rr] = clock_[rr];
      if (e.op == ir::MpiOp::CommSplit) {
        // The recorded result handle defines the group membership; the
        // replay rebuilds comms from it rather than recomputing.
        c.splitResult[r] = static_cast<int32_t>(e.reqId);
      }
      ++c.arrived;
      if (c.arrived == static_cast<int>(members.size())) {
        uint64_t t0 = 0;
        for (int m : members) t0 = std::max(t0, c.arrivals[static_cast<size_t>(m)]);
        const ir::MpiOp costOp =
            e.op == ir::MpiOp::CommSplit ? ir::MpiOp::Barrier : e.op;
        c.finish = t0 + net_.collectiveCost(costOp, c.bytes,
                                            static_cast<int>(members.size()));
        c.done = true;
        if (e.op == ir::MpiOp::CommSplit) {
          // Group members by recorded handle.
          std::map<int32_t, std::vector<int>> groups;
          for (int m : members) {
            auto it = c.splitResult.find(m);
            if (it != c.splitResult.end() && it->second >= 0)
              groups[it->second].push_back(m);
          }
          for (auto& [id, ranks] : groups) {
            std::sort(ranks.begin(), ranks.end());
            commMembers_[id] = ranks;
          }
        }
      }
      pendingColl_[rr] = mySeq;
      pendingCollComm_[rr] = e.comm;
    }
    Collective& c = slot(pendingCollComm_[rr], pendingColl_[rr]);
    if (!c.done) return false;
    comm_[rr] += c.finish - c.arrivals[rr];
    clock_[rr] = c.finish;
    pendingColl_[rr] = -1;
    return finishEvent(r);
  }

  Collective& slot(int comm, int seq) {
    auto& dq = colls_[comm];
    while (static_cast<size_t>(seq) >= dq.size()) dq.emplace_back();
    return dq[static_cast<size_t>(seq)];
  }

  const std::vector<int>& commMembers(int comm) {
    if (comm == 0 && commMembers_.find(0) == commMembers_.end()) {
      std::vector<int> world(src_.numRanks());
      for (size_t i = 0; i < world.size(); ++i) world[i] = static_cast<int>(i);
      commMembers_[0] = std::move(world);
    }
    auto it = commMembers_.find(comm);
    CYP_CHECK(it != commMembers_.end(), "replay: unknown communicator " << comm);
    return it->second;
  }

  EventSource& src_;
  simmpi::LogGP net_;
  uint64_t totalEvents_ = 0;
  std::vector<uint64_t> clock_, comm_;
  std::vector<size_t> consumed_;
  std::map<ChanKey, std::deque<uint64_t>> channels_;  // message avail times
  std::vector<std::vector<OutstandingReq>> outstanding_;
  std::vector<std::map<int, int>> collSeq_;
  std::map<int, std::deque<Collective>> colls_;
  std::vector<int64_t> computeChargedIdx_;
  std::vector<int> pendingColl_;
  std::vector<int> pendingCollComm_;
  std::map<int, std::vector<int>> commMembers_;
};

}  // namespace

double Prediction::commPercent() const {
  if (rankClockNs.empty()) return 0.0;
  double total = 0.0;
  int counted = 0;
  for (size_t r = 0; r < rankClockNs.size(); ++r) {
    if (rankClockNs[r] == 0) continue;
    total += static_cast<double>(rankCommNs[r]) /
             static_cast<double>(rankClockNs[r]);
    ++counted;
  }
  return counted ? 100.0 * total / counted : 0.0;
}

namespace {

/// Replay needs every rank of the world present: a partial trace cannot
/// satisfy its own collectives and p2p matches. Returns the world size.
int checkFullCoverage(const core::MergedCtt& m) {
  const RankSet covered = query::coveredRanks(m);
  CYP_CHECK(!covered.empty(), "replay: empty trace");
  if (!m.lostRanks().empty()) {
    std::ostringstream os;
    os << "replay: merged trace is missing lost ranks:";
    for (int32_t r : m.lostRanks().ranks()) os << " " << r;
    throw Error(os.str());
  }
  const int numRanks = covered.ranks().back() + 1;
  CYP_CHECK(covered.size() == static_cast<size_t>(numRanks),
            "replay: rank coverage is not contiguous ("
                << covered.size() << " of " << numRanks << " ranks)");
  return numRanks;
}

}  // namespace

Prediction simulate(const trace::RawTrace& t, const simmpi::LogGP& net) {
  CYP_CHECK(!t.ranks.empty(), "replay: empty trace");
  RawSource src(t);
  return Sim(src, net).run();
}

Prediction simulate(const core::MergedCtt& m, const simmpi::LogGP& net) {
  const int numRanks = checkFullCoverage(m);
  CompressedSource src(m, numRanks);
  return Sim(src, net).run();
}

Prediction simulateRecordedTimes(const trace::RawTrace& t) {
  CYP_CHECK(!t.ranks.empty(), "replay: empty trace");
  Prediction p;
  p.rankClockNs.resize(t.ranks.size(), 0);
  p.rankCommNs.resize(t.ranks.size(), 0);
  for (size_t r = 0; r < t.ranks.size(); ++r) {
    uint64_t clock = 0, comm = 0;
    for (const trace::Event& e : t.ranks[r].events) {
      clock += e.computeNs + e.durationNs;
      comm += e.durationNs;
      ++p.totalEvents;
    }
    p.rankClockNs[r] = clock;
    p.rankCommNs[r] = comm;
    p.predictedNs = std::max(p.predictedNs, clock);
  }
  return p;
}

Prediction simulateRecordedTimes(const core::MergedCtt& m) {
  const int numRanks = checkFullCoverage(m);
  Prediction p;
  p.rankClockNs.assign(static_cast<size_t>(numRanks), 0);
  p.rankCommNs.assign(static_cast<size_t>(numRanks), 0);
  const int n = m.cst().numNodes();
  for (int r = 0; r < numRanks; ++r) {
    uint64_t clock = 0, comm = 0;
    for (int g = 0; g < n; ++g) {
      for (const core::LeafEntry& e : m.leafEntries(g)) {
        if (!e.ranks.contains(r)) continue;
        for (const core::CommRecord& rec : e.records) {
          // Decompressed events carry the record's rounded means, so
          // count * rounded-mean reproduces the expanded sums exactly.
          const uint64_t dur = core::eventNs(rec.duration);
          const uint64_t cmp = core::eventNs(rec.compute);
          clock += rec.count * (cmp + dur);
          comm += rec.count * dur;
          p.totalEvents += rec.count;
        }
        break;
      }
    }
    p.rankClockNs[static_cast<size_t>(r)] = clock;
    p.rankCommNs[static_cast<size_t>(r)] = comm;
    p.predictedNs = std::max(p.predictedNs, clock);
  }
  return p;
}

}  // namespace cypress::replay
