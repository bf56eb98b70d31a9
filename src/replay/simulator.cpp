#include "replay/simulator.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "cypress/decompress.hpp"
#include "cypress/merge.hpp"
#include "query/engine.hpp"
#include "simmpi/collective.hpp"
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
  bool operator==(const ChanKey&) const = default;
};

/// The p2p channels: an open-addressing index (linear probing over a
/// power-of-two table of channel indices) from ChanKey into one contiguous
/// vector of channels. Each channel queues the avail times of its
/// in-flight messages, read from `head`; the queue is reset when it
/// drains, so an idle channel keeps only its key and a small block.
class ChannelTable {
 public:
  struct Channel {
    ChanKey key{};
    size_t head = 0;     // first unconsumed message
    size_t claimed = 0;  // Waitall peek: messages already priced
    std::vector<uint64_t> avail;

    bool empty() const { return head == avail.size(); }
    /// True when a message is left after the ones already claimed.
    bool hasUnclaimed() const { return head + claimed < avail.size(); }
    uint64_t front() const { return avail[head]; }
    void pop() {
      if (++head == avail.size()) {
        avail.clear();
        head = 0;
      }
    }
  };

  static constexpr int32_t kNone = -1;

  /// Index of `k`'s channel, or kNone when no message was ever sent on it.
  int32_t find(const ChanKey& k) const {
    if (index_.empty()) return kNone;
    for (size_t i = hash(k) & mask();; i = (i + 1) & mask()) {
      const int32_t c = index_[i];
      if (c == kNone || channels_[static_cast<size_t>(c)].key == k) return c;
    }
  }

  Channel& findOrInsert(const ChanKey& k) {
    if ((channels_.size() + 1) * 2 > index_.size()) grow();
    size_t i = hash(k) & mask();
    for (; index_[i] != kNone; i = (i + 1) & mask()) {
      Channel& c = channels_[static_cast<size_t>(index_[i])];
      if (c.key == k) return c;
    }
    index_[i] = static_cast<int32_t>(channels_.size());
    channels_.push_back(Channel{k, 0, 0, {}});
    return channels_.back();
  }

  Channel& operator[](int32_t chan) { return channels_[static_cast<size_t>(chan)]; }

  /// Wildcard resolution for Waitall, whose events carry no matched
  /// source: the channel into proto.dst with proto's tag and comm whose
  /// source is lowest among those with an unclaimed message.
  int32_t anyUnclaimed(const ChanKey& proto) const {
    int32_t best = kNone;
    for (size_t i = 0; i < channels_.size(); ++i) {
      const Channel& c = channels_[i];
      if (c.key.dst != proto.dst || c.key.tag != proto.tag ||
          c.key.comm != proto.comm || !c.hasUnclaimed())
        continue;
      if (best == kNone || c.key.src < channels_[static_cast<size_t>(best)].key.src)
        best = static_cast<int32_t>(i);
    }
    return best;
  }

 private:
  static size_t hash(const ChanKey& k) {
    const uint64_t a = (static_cast<uint64_t>(static_cast<uint32_t>(k.src)) << 32) |
                       static_cast<uint32_t>(k.dst);
    const uint64_t b = (static_cast<uint64_t>(static_cast<uint32_t>(k.tag)) << 32) |
                       static_cast<uint32_t>(k.comm);
    uint64_t h = a * 0x9E3779B97F4A7C15ull ^ b * 0xC2B2AE3D27D4EB4Full;
    h ^= h >> 32;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 29;
    return static_cast<size_t>(h);
  }
  size_t mask() const { return index_.size() - 1; }

  void grow() {
    index_.assign(index_.empty() ? 64 : index_.size() * 2, kNone);
    for (size_t c = 0; c < channels_.size(); ++c) {
      size_t i = hash(channels_[c].key) & mask();
      while (index_[i] != kNone) i = (i + 1) & mask();
      index_[i] = static_cast<int32_t>(c);
    }
  }

  std::vector<int32_t> index_;  // channel indices; kNone marks a free cell
  std::vector<Channel> channels_;
};

struct OutstandingReq {
  bool isSend = false;
  ChanKey key{};
  int64_t bytes = 0;
  int32_t postSite = -1;
  uint64_t postClock = 0;
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
        channels_.findOrInsert(key).avail.push_back(
            clock_[static_cast<size_t>(r)] + net_.transferTime(e.bytes));
        advance(r, sendCost);
        return finishEvent(r);
      }
      case ir::MpiOp::Recv: {
        chargeCompute(r, e);
        const int32_t src = e.peer == trace::kAnySource ? e.matchedSource : e.peer;
        CYP_CHECK(src >= 0, "replay: Recv without a resolvable source");
        const int32_t chan = channels_.find(ChanKey{src, r, e.tag, e.comm});
        if (chan == ChannelTable::kNone || channels_[chan].empty())
          return false;  // blocked
        ChannelTable::Channel& ch = channels_[chan];
        const uint64_t avail = ch.front();
        ch.pop();
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
        if (!completeReq(reqs[static_cast<size_t>(pick)], e, &completion))
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
        // All must be completable: price every request against the
        // channel heads first, claiming FIFO positions without popping,
        // then pop exactly the channels the pricing resolved.
        uint64_t latest = clock_[static_cast<size_t>(r)];
        resolved_.clear();
        bool ready = true;
        for (const OutstandingReq& q : reqs) {
          int32_t chan = ChannelTable::kNone;
          uint64_t completion = 0;
          if (!peekReq(q, e, &chan, &completion)) {
            ready = false;
            break;
          }
          resolved_.push_back(chan);
          latest = std::max(latest, completion);
        }
        for (int32_t chan : resolved_)
          if (chan != ChannelTable::kNone) channels_[chan].claimed = 0;
        if (!ready) return false;
        for (int32_t chan : resolved_)
          if (chan != ChannelTable::kNone) channels_[chan].pop();
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

  /// Completion time of one outstanding request (Wait, Waitany,
  /// Waitsome), consuming its message.
  bool completeReq(const OutstandingReq& q, const Event& waitEv,
                   uint64_t* completion) {
    if (q.isSend) {
      *completion = q.postClock + net_.sendOverhead(q.bytes);
      return true;
    }
    ChanKey key = q.key;
    if (key.src == trace::kAnySource) {
      CYP_CHECK(waitEv.matchedSource >= 0,
                "replay: wildcard wait without matched source");
      key.src = waitEv.matchedSource;
    }
    const int32_t chan = channels_.find(key);
    if (chan == ChannelTable::kNone || channels_[chan].empty()) return false;
    ChannelTable::Channel& ch = channels_[chan];
    *completion = std::max(q.postClock, ch.front()) + net_.recvOverhead(q.bytes);
    ch.pop();
    return true;
  }

  /// Like completeReq but without consuming (for waitall's all-or-nothing
  /// check): claims the next unclaimed message of the request's channel
  /// and reports that channel in `*chan` (kNone for a send). A wildcard
  /// resolves to the lowest source that still has an unclaimed message.
  bool peekReq(const OutstandingReq& q, const Event& waitEv, int32_t* chan,
               uint64_t* completion) {
    if (q.isSend) {
      *chan = ChannelTable::kNone;
      *completion = q.postClock + net_.sendOverhead(q.bytes);
      return true;
    }
    int32_t found = ChannelTable::kNone;
    if (q.key.src != trace::kAnySource) {
      found = channels_.find(q.key);
    } else if (waitEv.matchedSource >= 0) {
      ChanKey key = q.key;
      key.src = waitEv.matchedSource;
      found = channels_.find(key);
    } else {
      found = channels_.anyUnclaimed(q.key);
    }
    if (found == ChannelTable::kNone || !channels_[found].hasUnclaimed())
      return false;
    ChannelTable::Channel& ch = channels_[found];
    *completion = std::max(q.postClock, ch.avail[ch.head + ch.claimed]) +
                  net_.recvOverhead(q.bytes);
    ++ch.claimed;
    *chan = found;
    return true;
  }

  /// A collective's members' clocks do not move while it is pending
  /// (chargeCompute is idempotent per event), so each clock still reads
  /// the member's arrival time when the instance finishes.
  bool stepCollective(int r, const Event& e) {
    chargeCompute(r, e);
    const auto rr = static_cast<size_t>(r);
    if (pendingColl_[rr] < 0) {
      // First attempt: register the arrival.
      const std::vector<int>& members = commMembers(e.comm);
      CYP_CHECK(std::binary_search(members.begin(), members.end(), r),
                "replay: rank " << r << " not in communicator " << e.comm);
      const int size = static_cast<int>(members.size());
      const int mySeq = collSeq_[rr][e.comm]++;
      simmpi::Collective& c = colls_.at(e.comm, mySeq);
      CYP_CHECK(c.arrive(e.op, e.bytes, e.peer, clock_[rr]) ==
                    simmpi::Collective::Mismatch::None,
                "replay: collective mismatch at " << ir::mpiOpName(e.op));
      // The recorded result handle defines the group membership; the
      // replay rebuilds comms from it rather than recomputing.
      if (e.op == ir::MpiOp::CommSplit)
        c.split.push_back({r, static_cast<int32_t>(e.bytes),
                           static_cast<int32_t>(e.reqId)});
      if (c.arrived == size) {
        c.finish(c.cost(net_, size));
        if (e.op == ir::MpiOp::CommSplit) rebuildSplit(c);
      }
      pendingColl_[rr] = mySeq;
      pendingCollComm_[rr] = e.comm;
    }
    const int comm = pendingCollComm_[rr];
    const simmpi::Collective& c = colls_.at(comm, pendingColl_[rr]);
    if (!c.done) return false;
    comm_[rr] += c.finishNs - clock_[rr];
    clock_[rr] = c.finishNs;
    colls_.consume(comm, pendingColl_[rr]);
    pendingColl_[rr] = -1;
    return finishEvent(r);
  }

  /// Group a finished CommSplit's members by their recorded handles.
  void rebuildSplit(const simmpi::Collective& c) {
    std::map<int32_t, std::vector<int>> groups;
    for (const simmpi::SplitArrival& a : c.split)
      if (a.result >= 0) groups[a.result].push_back(a.member);
    for (auto& [id, ranks] : groups) {
      std::sort(ranks.begin(), ranks.end());
      commMembers_[id] = std::move(ranks);
    }
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
  ChannelTable channels_;
  std::vector<int32_t> resolved_;  // Waitall: channel per request, or kNone
  std::vector<std::vector<OutstandingReq>> outstanding_;
  std::vector<std::map<int, int>> collSeq_;
  simmpi::Rendezvous colls_;
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
          // Decompressed events carry the record's truncated means, so
          // count * mean reproduces the expanded sums exactly.
          const uint64_t dur = rec.duration.mean();
          const uint64_t cmp = rec.compute.mean();
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
