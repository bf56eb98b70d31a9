// Compressed-domain query evaluation over merged CYPRESS traces.
//
// The CTT+RSD representation is not just a storage format: every
// analysis below runs on the compressed structure itself, in time
// proportional to the *compressed* size (payload entries + output),
// never to the number of events — the compressed-trace analysis model
// of "Data Race Detection on Compressed Traces" (PAPERS.md), applied to
// communication statistics.
//
//   - Aggregates (summary / histogram / matrix / collectives) read the
//     CommRecord repeat counts directly: a record that fired a million
//     times contributes one multiply.
//   - The call-site-at-iteration-k lookup walks the CST once,
//     propagating an execution-ordinal interval down the tree with
//     SectionSeq range arithmetic (prefix sums over loop counts,
//     counted value ranges over branch outcomes and occurrence
//     ordinals) — O(#sections) per vertex.
//
// Every function is deterministic: per-rank work is dealt to pool lanes
// in fixed contiguous chunks and each lane owns its ranks' rows, so the
// output is byte-identical at any thread count.
//
// Each engine result has a decompress-then-scan twin (`*FromRaw`)
// producing the same structs from raw events; rendering both through
// query::JsonWriter makes equivalence testable as byte equality, and
// the twins double as the "decompress then scan" baseline cyperf
// charts against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cypress/merge.hpp"
#include "support/rank_set.hpp"
#include "trace/event.hpp"
#include "trace/stats.hpp"

namespace cypress::query {

/// One message-size bucket of a per-rank send histogram.
struct HistBucket {
  int64_t bytes = 0;
  uint64_t msgs = 0;
};

/// Point-to-point messages sent by one rank, bucketed by message size.
struct RankHistogram {
  int32_t rank = 0;
  uint64_t msgs = 0;
  int64_t bytes = 0;
  std::vector<HistBucket> buckets;  // ascending by bytes
};

/// One cell of the sparse point-to-point communication matrix.
struct MatrixCell {
  int32_t src = 0;
  int32_t dst = 0;
  uint64_t msgs = 0;
  int64_t bytes = 0;
};

/// Global call/byte totals for one collective operation.
struct CollRow {
  ir::MpiOp op = ir::MpiOp::Barrier;
  uint64_t calls = 0;  // one per participating rank per invocation
  int64_t bytes = 0;
};

/// Per-rank event-class totals.
struct SummaryRow {
  int32_t rank = 0;
  uint64_t events = 0;
  uint64_t sends = 0;  // Send + Isend
  uint64_t recvs = 0;  // Recv + Irecv
  uint64_t waits = 0;  // Wait / Waitall / Waitany / Waitsome
  uint64_t collectives = 0;
  int64_t sendBytes = 0;
};

/// One call site that sent src->dst within the queried loop iteration.
struct CallSiteHit {
  int gid = -1;
  int callSiteId = -1;
  ir::MpiOp op = ir::MpiOp::Send;
  uint64_t msgs = 0;
  int64_t bytes = 0;
  int32_t tag = -1;
};

/// Union of every payload entry's rank set: the ranks this merged trace
/// actually covers (faulted runs exclude lostRanks()).
RankSet coveredRanks(const core::MergedCtt& m);

// ---- compressed-domain evaluators -----------------------------------
// Rows are emitted in ascending rank order, one per covered rank;
// `threads` fans the per-rank work over the shared pool.

std::vector<SummaryRow> summary(const core::MergedCtt& m, int threads = 1);
std::vector<RankHistogram> histogram(const core::MergedCtt& m, int threads = 1);
std::vector<MatrixCell> commMatrix(const core::MergedCtt& m, int threads = 1);
std::vector<CollRow> collectives(const core::MergedCtt& m);

/// One past the highest rank holding a leaf entry: the rank count
/// `cyptrace stats` and `cyptrace dump --otf` report and expand.
int64_t rankSpan(const core::MergedCtt& m);

/// The `cyptrace stats` totals without expanding a single event. Each
/// CommRecord of a leaf entry stands for count x |entry ranks| events,
/// each carrying the truncated mean (RunningStats::mean) of the record's
/// duration and compute (what CompressedCursor emits), so the integer
/// sums equal trace::computeStats over the decompressed trace. Per-rank
/// balance covers the ranks below rankSpan(m) that are not lost (a
/// rank without rows counts as 0 events), averaged over that count.
trace::TraceStats traceStats(const core::MergedCtt& m);

/// ASCII heat map of sparse commMatrix cells over `numRanks` ranks
/// (trace::renderHeatMap); no P x P matrix is built.
std::string heatMap(const std::vector<MatrixCell>& cells, int64_t numRanks,
                    int maxCells = 32);

/// Call sites through which `src` sent to `dst` during global iteration
/// `iter` of the loop at `loopGid` (-1 = the outermost loop containing
/// communication). Throws cypress::Error when the gid is not a loop or
/// the iteration is out of range for `src`.
std::vector<CallSiteHit> callSitesAt(const core::MergedCtt& m, int32_t src,
                                     int32_t dst, uint64_t iter,
                                     int loopGid = -1);

/// First pre-order Loop vertex whose subtree contains communication;
/// -1 when the program has none.
int defaultLoopGid(const cst::Tree& tree);

// ---- decompress-then-scan oracles -----------------------------------
// Same structs, same ordering, computed from expanded events. One row
// per RankTrace present in `t` (build survivor-only traces for faulted
// runs).

std::vector<SummaryRow> summaryFromRaw(const trace::RawTrace& t);
std::vector<RankHistogram> histogramFromRaw(const trace::RawTrace& t);
std::vector<MatrixCell> commMatrixFromRaw(const trace::RawTrace& t);
std::vector<CollRow> collectivesFromRaw(const trace::RawTrace& t);

// ---- canonical JSON rendering ---------------------------------------

std::string renderSummary(const std::vector<SummaryRow>& rows,
                          const RankSet& lostRanks);
std::string renderHistogram(const std::vector<RankHistogram>& rows);
std::string renderMatrix(const std::vector<MatrixCell>& cells);
std::string renderCollectives(const std::vector<CollRow>& rows);
std::string renderCallSites(const std::vector<CallSiteHit>& hits, int32_t src,
                            int32_t dst, uint64_t iter, int loopGid);

}  // namespace cypress::query
