#include "query/engine.hpp"

#include <algorithm>
#include <map>

#include "query/json.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "trace/matrix.hpp"

namespace cypress::query {

namespace {

using core::CommRecord;
using core::LeafEntry;
using core::MergedCtt;
using core::SeqEntry;

bool isSend(ir::MpiOp op) {
  return op == ir::MpiOp::Send || op == ir::MpiOp::Isend;
}
bool isRecv(ir::MpiOp op) {
  return op == ir::MpiOp::Recv || op == ir::MpiOp::Irecv;
}
bool isWait(ir::MpiOp op) {
  return op == ir::MpiOp::Wait || op == ir::MpiOp::Waitall ||
         op == ir::MpiOp::Waitany || op == ir::MpiOp::Waitsome;
}
bool isCollectiveClass(ir::MpiOp op) {
  return ir::isCollective(op) || op == ir::MpiOp::CommSplit;
}

/// Visit every CommRecord covering `rank`, in gid order.
template <typename Fn>
void forEachRecord(const MergedCtt& m, int32_t rank, Fn fn) {
  const int n = m.cst().numNodes();
  for (int g = 0; g < n; ++g) {
    const LeafEntry* le = leafFor(m.leafEntries(g), rank);
    if (le == nullptr) continue;
    for (const CommRecord& rec : le->records) fn(rec);
  }
}

SummaryRow summaryForRank(const MergedCtt& m, int32_t rank) {
  SummaryRow row;
  row.rank = rank;
  forEachRecord(m, rank, [&](const CommRecord& rec) {
    row.events += rec.count;
    if (isSend(rec.op)) {
      row.sends += rec.count;
      row.sendBytes += rec.bytes * static_cast<int64_t>(rec.count);
    } else if (isRecv(rec.op)) {
      row.recvs += rec.count;
    } else if (isWait(rec.op)) {
      row.waits += rec.count;
    } else if (isCollectiveClass(rec.op)) {
      row.collectives += rec.count;
    }
  });
  return row;
}

RankHistogram histogramForRank(const MergedCtt& m, int32_t rank) {
  RankHistogram row;
  row.rank = rank;
  std::map<int64_t, uint64_t> buckets;
  forEachRecord(m, rank, [&](const CommRecord& rec) {
    if (!isSend(rec.op)) return;
    buckets[rec.bytes] += rec.count;
    row.msgs += rec.count;
    row.bytes += rec.bytes * static_cast<int64_t>(rec.count);
  });
  row.buckets.reserve(buckets.size());
  for (const auto& [bytes, msgs] : buckets)
    row.buckets.push_back(HistBucket{bytes, msgs});
  return row;
}

std::vector<MatrixCell> matrixForRank(const MergedCtt& m, int32_t rank) {
  std::map<int32_t, MatrixCell> cells;  // dst -> cell
  forEachRecord(m, rank, [&](const CommRecord& rec) {
    if (!isSend(rec.op)) return;
    MatrixCell& c = cells[rec.peer.decode(rank)];
    c.msgs += rec.count;
    c.bytes += rec.bytes * static_cast<int64_t>(rec.count);
  });
  std::vector<MatrixCell> out;
  out.reserve(cells.size());
  for (auto& [dst, c] : cells) {
    c.src = rank;
    c.dst = dst;
    out.push_back(c);
  }
  return out;
}

// Raw-event twins of the per-rank accumulators above. They classify
// events with the same predicates, so compressed and expanded answers
// diverge only if the engine's count arithmetic is wrong.

SummaryRow summaryForEvents(int32_t rank,
                            const std::vector<trace::Event>& events) {
  SummaryRow row;
  row.rank = rank;
  for (const trace::Event& e : events) {
    ++row.events;
    if (isSend(e.op)) {
      ++row.sends;
      row.sendBytes += e.bytes;
    } else if (isRecv(e.op)) {
      ++row.recvs;
    } else if (isWait(e.op)) {
      ++row.waits;
    } else if (isCollectiveClass(e.op)) {
      ++row.collectives;
    }
  }
  return row;
}

RankHistogram histogramForEvents(int32_t rank,
                                 const std::vector<trace::Event>& events) {
  RankHistogram row;
  row.rank = rank;
  std::map<int64_t, uint64_t> buckets;
  for (const trace::Event& e : events) {
    if (!isSend(e.op)) continue;
    buckets[e.bytes] += 1;
    ++row.msgs;
    row.bytes += e.bytes;
  }
  row.buckets.reserve(buckets.size());
  for (const auto& [bytes, msgs] : buckets)
    row.buckets.push_back(HistBucket{bytes, msgs});
  return row;
}

std::vector<MatrixCell> matrixForEvents(int32_t rank,
                                        const std::vector<trace::Event>& events) {
  std::map<int32_t, MatrixCell> cells;
  for (const trace::Event& e : events) {
    if (!isSend(e.op)) continue;
    MatrixCell& c = cells[e.peer];
    c.msgs += 1;
    c.bytes += e.bytes;
  }
  std::vector<MatrixCell> out;
  out.reserve(cells.size());
  for (auto& [dst, c] : cells) {
    c.src = rank;
    c.dst = dst;
    out.push_back(c);
  }
  return out;
}

void addCollectives(std::map<ir::MpiOp, CollRow>& rows, ir::MpiOp op,
                    int64_t bytes, uint64_t calls) {
  if (!isCollectiveClass(op)) return;
  CollRow& row = rows[op];
  row.op = op;
  row.calls += calls;
  row.bytes += bytes * static_cast<int64_t>(calls);
}

std::vector<CollRow> collRows(const std::map<ir::MpiOp, CollRow>& rows) {
  std::vector<CollRow> out;
  out.reserve(rows.size());
  for (const auto& [op, row] : rows) out.push_back(row);
  return out;
}

}  // namespace

RankSet coveredRanks(const MergedCtt& m) {
  RankSet all;
  const int n = m.cst().numNodes();
  for (int g = 0; g < n; ++g) {
    for (const SeqEntry& e : m.loopEntries(g)) all.unite(e.ranks);
    for (const SeqEntry& e : m.takenEntries(g)) all.unite(e.ranks);
    for (const LeafEntry& e : m.leafEntries(g)) all.unite(e.ranks);
  }
  return all;
}

std::vector<SummaryRow> summary(const MergedCtt& m, int threads) {
  const RankSet covered = coveredRanks(m);
  const std::vector<int32_t>& ranks = covered.ranks();
  std::vector<SummaryRow> out(ranks.size());
  parallelFor(ranks.size(), threads,
              [&](size_t i) { out[i] = summaryForRank(m, ranks[i]); });
  return out;
}

std::vector<RankHistogram> histogram(const MergedCtt& m, int threads) {
  const RankSet covered = coveredRanks(m);
  const std::vector<int32_t>& ranks = covered.ranks();
  std::vector<RankHistogram> out(ranks.size());
  parallelFor(ranks.size(), threads,
              [&](size_t i) { out[i] = histogramForRank(m, ranks[i]); });
  return out;
}

std::vector<MatrixCell> commMatrix(const MergedCtt& m, int threads) {
  const RankSet covered = coveredRanks(m);
  const std::vector<int32_t>& ranks = covered.ranks();
  std::vector<std::vector<MatrixCell>> rows(ranks.size());
  parallelFor(ranks.size(), threads,
              [&](size_t i) { rows[i] = matrixForRank(m, ranks[i]); });
  std::vector<MatrixCell> out;
  for (const auto& r : rows) out.insert(out.end(), r.begin(), r.end());
  return out;
}

std::vector<CollRow> collectives(const MergedCtt& m) {
  std::map<ir::MpiOp, CollRow> rows;
  const int n = m.cst().numNodes();
  for (int g = 0; g < n; ++g) {
    for (const LeafEntry& e : m.leafEntries(g)) {
      for (const CommRecord& rec : e.records) {
        addCollectives(rows, rec.op, rec.bytes,
                       rec.count * static_cast<uint64_t>(e.ranks.size()));
      }
    }
  }
  return collRows(rows);
}

int64_t rankSpan(const MergedCtt& m) {
  int64_t span = 0;
  const int n = m.cst().numNodes();
  for (int g = 0; g < n; ++g)
    for (const LeafEntry& e : m.leafEntries(g))
      if (!e.ranks.empty())
        span = std::max<int64_t>(span, int64_t{e.ranks.ranks().back()} + 1);
  return span;
}

trace::TraceStats traceStats(const MergedCtt& m) {
  trace::TraceStats s;
  const int n = m.cst().numNodes();
  for (int g = 0; g < n; ++g) {
    for (const LeafEntry& e : m.leafEntries(g)) {
      for (const CommRecord& rec : e.records) {
        const uint64_t events = rec.count * static_cast<uint64_t>(e.ranks.size());
        if (events == 0) continue;
        const uint64_t bytes = static_cast<uint64_t>(rec.bytes) * events;
        const uint64_t durationNs = rec.duration.mean() * events;
        s.totalEvents += events;
        s.computeNs += rec.compute.mean() * events;
        s.commNs += durationNs;
        trace::OpStats& op = s.byOp[rec.op];
        op.count += events;
        op.durationNs += durationNs;
        if (isSend(rec.op)) {
          s.p2pMessages += events;
          s.p2pBytes += bytes;
          op.bytes += bytes;
          s.messageSizes[rec.bytes] += events;
        } else if (ir::isCollective(rec.op)) {
          s.collectiveCalls += events;
          op.bytes += bytes;
        }
      }
    }
  }

  // Balance over ranks [0, span) minus the lost ones, without a loop
  // over the span: ranks in it that have no summary row count as 0.
  const int64_t span = rankSpan(m);
  uint64_t ranks = static_cast<uint64_t>(span);
  for (int32_t r : m.lostRanks().ranks())
    if (r < span) --ranks;
  uint64_t rowed = 0, sum = 0, minE = UINT64_MAX, maxE = 0;
  for (const SummaryRow& row : summary(m)) {
    if (row.rank >= span || m.lostRanks().contains(row.rank)) continue;
    ++rowed;
    sum += row.events;
    minE = std::min(minE, row.events);
    maxE = std::max(maxE, row.events);
  }
  if (rowed < ranks) minE = 0;
  if (ranks > 0) {
    s.minRankEvents = minE;
    s.maxRankEvents = maxE;
    s.avgRankEvents = static_cast<double>(sum) / static_cast<double>(ranks);
  }
  return s;
}

std::string heatMap(const std::vector<MatrixCell>& cells, int64_t numRanks,
                    int maxCells) {
  std::vector<trace::VolumeCell> volume;
  volume.reserve(cells.size());
  for (const MatrixCell& c : cells)
    volume.push_back(
        trace::VolumeCell{c.src, c.dst, static_cast<uint64_t>(c.bytes)});
  return trace::renderHeatMap(volume, numRanks, maxCells);
}

std::vector<SummaryRow> summaryFromRaw(const trace::RawTrace& t) {
  std::vector<SummaryRow> out;
  out.reserve(t.ranks.size());
  for (const trace::RankTrace& rt : t.ranks)
    out.push_back(summaryForEvents(rt.rank, rt.events));
  return out;
}

std::vector<RankHistogram> histogramFromRaw(const trace::RawTrace& t) {
  std::vector<RankHistogram> out;
  out.reserve(t.ranks.size());
  for (const trace::RankTrace& rt : t.ranks)
    out.push_back(histogramForEvents(rt.rank, rt.events));
  return out;
}

std::vector<MatrixCell> commMatrixFromRaw(const trace::RawTrace& t) {
  std::vector<MatrixCell> out;
  for (const trace::RankTrace& rt : t.ranks) {
    const auto row = matrixForEvents(rt.rank, rt.events);
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

std::vector<CollRow> collectivesFromRaw(const trace::RawTrace& t) {
  std::map<ir::MpiOp, CollRow> rows;
  for (const trace::RankTrace& rt : t.ranks)
    for (const trace::Event& e : rt.events)
      addCollectives(rows, e.op, e.bytes, 1);
  return collRows(rows);
}

namespace {

bool subtreeHasComm(const cst::Node* n) {
  if (n->kind == cst::NodeKind::Comm) return true;
  for (const auto& c : n->children)
    if (subtreeHasComm(c.get())) return true;
  return false;
}

int findLoop(const cst::Node* n) {
  if (n->kind == cst::NodeKind::Loop && subtreeHasComm(n)) return n->gid;
  for (const auto& c : n->children) {
    const int g = findLoop(c.get());
    if (g >= 0) return g;
  }
  return -1;
}

/// Propagate the body-execution interval [e0, e1) of `n` down its
/// subtree, collecting matching send records. All interval maps are
/// SectionSeq range arithmetic — no per-event work anywhere.
void walkCallSites(const MergedCtt& m, const cst::Node* n, uint64_t e0,
                   uint64_t e1, int32_t src, int32_t dst,
                   std::vector<CallSiteHit>& hits) {
  if (e0 >= e1) return;
  for (const auto& childPtr : n->children) {
    const cst::Node* child = childPtr.get();
    switch (child->kind) {
      case cst::NodeKind::Comm: {
        const LeafEntry* le = leafFor(m.leafEntries(child->gid), src);
        if (le == nullptr) break;
        // Occurrences whose parent-execution ordinal falls inside the
        // interval form a contiguous occurrence-index range.
        const uint64_t o0 = le->execOrdinals.countBelow(static_cast<int64_t>(e0));
        const uint64_t o1 = le->execOrdinals.countBelow(static_cast<int64_t>(e1));
        if (o0 == o1) break;
        for (const CommRecord& rec : le->records) {
          if (!isSend(rec.op) || rec.peer.decode(src) != dst) continue;
          const uint64_t cnt = rec.ordinals.countInRange(
              static_cast<int64_t>(o0), static_cast<int64_t>(o1));
          if (cnt == 0) continue;
          hits.push_back(CallSiteHit{child->gid, rec.callSiteId, rec.op, cnt,
                                     rec.bytes * static_cast<int64_t>(cnt),
                                     rec.tag});
        }
        break;
      }
      case cst::NodeKind::Loop: {
        const SectionSeq* counts = seqFor(m.loopEntries(child->gid), src);
        if (counts == nullptr) break;
        // One activation per parent execution: the parent interval *is*
        // the activation-index interval; prefix sums over per-activation
        // iteration counts give the body-execution interval.
        const uint64_t a0 = e0 < counts->size() ? e0 : counts->size();
        const uint64_t a1 = e1 < counts->size() ? e1 : counts->size();
        walkCallSites(m, child, static_cast<uint64_t>(counts->prefixSum(a0)),
                      static_cast<uint64_t>(counts->prefixSum(a1)), src, dst,
                      hits);
        break;
      }
      case cst::NodeKind::Branch: {
        const SectionSeq* taken = seqFor(m.takenEntries(child->gid), src);
        if (taken == nullptr) break;
        // Branch outcomes are a non-decreasing list of parent-execution
        // ordinals; arm executions inside the interval are the indices
        // of the outcomes falling in it.
        walkCallSites(m, child, taken->countBelow(static_cast<int64_t>(e0)),
                      taken->countBelow(static_cast<int64_t>(e1)), src, dst,
                      hits);
        break;
      }
      case cst::NodeKind::Call:
        walkCallSites(m, child, e0, e1, src, dst, hits);
        break;
      case cst::NodeKind::Root:
        CYP_FAIL("query: nested root in CST");
    }
  }
}

}  // namespace

int defaultLoopGid(const cst::Tree& tree) { return findLoop(tree.root()); }

std::vector<CallSiteHit> callSitesAt(const MergedCtt& m, int32_t src,
                                     int32_t dst, uint64_t iter, int loopGid) {
  if (loopGid < 0) loopGid = defaultLoopGid(m.cst());
  CYP_CHECK(loopGid >= 0, "query: trace has no loop containing communication");
  CYP_CHECK(loopGid < m.cst().numNodes(),
            "query: gid " << loopGid << " out of range");
  const cst::Node* loop = m.cst().byGid(loopGid);
  CYP_CHECK(loop != nullptr && loop->kind == cst::NodeKind::Loop,
            "query: gid " << loopGid << " is not a loop vertex");
  const SectionSeq* counts = seqFor(m.loopEntries(loopGid), src);
  const uint64_t total =
      counts ? static_cast<uint64_t>(counts->sum()) : 0;
  CYP_CHECK(iter < total, "query: iteration " << iter << " out of range (rank "
                                              << src << " ran " << total
                                              << " iterations of gid "
                                              << loopGid << ")");
  std::vector<CallSiteHit> hits;
  // Body executions of the loop are globally ordinal-indexed across
  // activations, so global iteration k is exactly the interval [k, k+1).
  walkCallSites(m, loop, iter, iter + 1, src, dst, hits);
  return hits;
}

std::string renderSummary(const std::vector<SummaryRow>& rows,
                          const RankSet& lostRanks) {
  JsonWriter j;
  j.beginObject();
  j.key("query").value("summary");
  j.key("lostRanks").beginArray();
  for (int32_t r : lostRanks.ranks()) j.value(r);
  j.endArray();
  j.key("ranks").beginArray();
  for (const SummaryRow& r : rows) {
    j.beginObject();
    j.key("rank").value(r.rank);
    j.key("events").value(r.events);
    j.key("sends").value(r.sends);
    j.key("recvs").value(r.recvs);
    j.key("waits").value(r.waits);
    j.key("collectives").value(r.collectives);
    j.key("sendBytes").value(r.sendBytes);
    j.endObject();
  }
  j.endArray();
  j.endObject();
  return j.str();
}

std::string renderHistogram(const std::vector<RankHistogram>& rows) {
  JsonWriter j;
  j.beginObject();
  j.key("query").value("hist");
  j.key("ranks").beginArray();
  for (const RankHistogram& r : rows) {
    j.beginObject();
    j.key("rank").value(r.rank);
    j.key("msgs").value(r.msgs);
    j.key("bytes").value(r.bytes);
    j.key("buckets").beginArray();
    for (const HistBucket& b : r.buckets) {
      j.beginObject();
      j.key("bytes").value(b.bytes);
      j.key("msgs").value(b.msgs);
      j.endObject();
    }
    j.endArray();
    j.endObject();
  }
  j.endArray();
  j.endObject();
  return j.str();
}

std::string renderMatrix(const std::vector<MatrixCell>& cells) {
  JsonWriter j;
  j.beginObject();
  j.key("query").value("matrix");
  j.key("cells").beginArray();
  for (const MatrixCell& c : cells) {
    j.beginObject();
    j.key("src").value(c.src);
    j.key("dst").value(c.dst);
    j.key("msgs").value(c.msgs);
    j.key("bytes").value(c.bytes);
    j.endObject();
  }
  j.endArray();
  j.endObject();
  return j.str();
}

std::string renderCollectives(const std::vector<CollRow>& rows) {
  JsonWriter j;
  j.beginObject();
  j.key("query").value("colls");
  j.key("ops").beginArray();
  for (const CollRow& r : rows) {
    j.beginObject();
    j.key("op").value(ir::mpiOpName(r.op));
    j.key("calls").value(r.calls);
    j.key("bytes").value(r.bytes);
    j.endObject();
  }
  j.endArray();
  j.endObject();
  return j.str();
}

std::string renderCallSites(const std::vector<CallSiteHit>& hits, int32_t src,
                            int32_t dst, uint64_t iter, int loopGid) {
  JsonWriter j;
  j.beginObject();
  j.key("query").value("callsites");
  j.key("src").value(src);
  j.key("dst").value(dst);
  j.key("iter").value(iter);
  j.key("loopGid").value(static_cast<int64_t>(loopGid));
  j.key("sites").beginArray();
  for (const CallSiteHit& h : hits) {
    j.beginObject();
    j.key("gid").value(static_cast<int64_t>(h.gid));
    j.key("callSiteId").value(static_cast<int64_t>(h.callSiteId));
    j.key("op").value(ir::mpiOpName(h.op));
    j.key("msgs").value(h.msgs);
    j.key("bytes").value(h.bytes);
    j.key("tag").value(h.tag);
    j.endObject();
  }
  j.endArray();
  j.endObject();
  return j.str();
}

}  // namespace cypress::query
