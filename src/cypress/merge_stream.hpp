// Memory-bounded, crash-resumable streaming merge.
//
// mergeAll (cypress/merge.hpp) folds CTTs that are all in RAM at once,
// as a traced run holds them; a rank directory at the P=4K–64K scale
// the paper's constant-size claim is about need not fit. streamingMerge
// runs the same rank-order fold (MergedCtt::absorb of one CTT), but it
// pulls rank CTTs one at a time from a source callback into a batch
// accumulator until it exceeds the batch budget (or a fixed rank cap).
// Each batch is spilled to disk as its own CYPC, written atomically,
// checkpointed with its size and CRC in the CYM1 manifest, and then
// folded into one running total. Peak memory is the total plus one
// batch plus one incoming CTT; the total is the merged trace itself,
// whose size the paper shows is near-constant in P.
//
// absorb is a union of equivalence classes, so the result does not
// depend on where batches were cut: every budget and rank cap writes
// the same bytes as mergeAll. A clean run never reads a spill back;
// the spills exist so a resume need not recompute finished batches.
//
// Every durable step (spill + manifest segment) survives kill -9 and
// injected disk faults: `resume` replays the manifest, folds each
// recorded spill that is still intact (recorded size + CRC), recomputes
// exactly the recorded ranks of a damaged one, continues with the next
// batch, and produces a final CYPC byte-identical to an uninterrupted
// run — under the same or a different budget and cap. A resume whose
// manifest holds FINAL and whose output is intact reads no spill.
//
// Graceful degradation (`degrade`): when a batch spill dies on a disk
// fault, the batch's ranks are annotated as lost (the lostRanks
// mechanism) and the merge continues — a valid partial trace beats no
// trace once the disk is known-bad. Without `degrade`, the first disk
// fault propagates as io::IoError and the on-disk state remains
// resumable.
#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "cypress/merge.hpp"
#include "cypress/manifest.hpp"
#include "support/io.hpp"

namespace cypress::core {

struct StreamingMergeOptions {
  /// Target bytes of one batch of merged-CTT state held in RAM beside
  /// the running total. A batch closes once its accumulator crosses
  /// budgetBytes/4, so peak merged state is the total plus at most
  /// budgetBytes/4 (plus the CTT that crossed it). 0 = unbounded
  /// batches (degenerates to one batch, i.e. plain mergeAll semantics
  /// with a spill at the end). Does not change the result.
  uint64_t budgetBytes = 256ull << 20;
  /// Hard cap on ranks per batch (0 = budget-driven only). Tests use
  /// small caps to force many batches at tiny P. Does not change the
  /// result.
  uint64_t maxBatchRanks = 0;
  /// Directory for spill files + the checkpoint manifest. Created if
  /// missing. Removed contents on success unless keepWorkDir.
  std::string workDir;
  /// Null = the process-wide real backend.
  io::IoBackend* io = nullptr;
  /// Resume an interrupted merge from workDir's manifest (same rank
  /// count; budget and cap may differ). Without this flag an existing
  /// manifest is refused (matching the ledger).
  bool resume = false;
  /// Lost-ranks degradation instead of failing on disk faults.
  bool degrade = false;
  /// Keep spills + manifest after success (debugging).
  bool keepWorkDir = false;
  /// When set, atomically write the final merged CYPC here and record
  /// it as the manifest's FINAL step; a resume that finds the artifact
  /// damaged (e.g. torn rename) repairs it from the checkpointed
  /// size + CRC. Empty = caller handles the result in-process.
  std::string outPath;
  /// Kill-matrix test hook: raise SIGKILL after the Nth durable step
  /// (manifest segment) of this run, 0 = never. Counts only steps
  /// executed live, not steps satisfied from the checkpoint, so
  /// "crash at step N, resume, crash at step N+1" walks the whole merge.
  uint64_t crashAfterSteps = 0;
};

/// Produces rank `rank`'s finalized CTT, or nullopt when the rank's
/// trace was lost (it is annotated in lostRanks and skipped). Called
/// at most once per rank, in ascending rank order.
using CttSource = std::function<std::optional<Ctt>(int rank)>;

struct StreamingMergeResult {
  MergedCtt merged;
  uint64_t batches = 0;        ///< batches in the plan
  /// Always 0: batches fold into one running total. Kept only because
  /// the perfbench harness (perfbench/traced.cpp) still reads it.
  uint64_t reductionRounds = 0;
  uint64_t stepsExecuted = 0;  ///< durable steps run live this call
  uint64_t stepsResumed = 0;   ///< steps satisfied from the checkpoint
  RankSet droppedRanks;        ///< ranks degraded away by disk faults
};

/// Merge `numRanks` per-process CTTs (all sharing `cst`) into one
/// MergedCtt under the options' memory budget. See file comment for
/// the crash/resume contract. Throws io::IoError on disk faults
/// (unless opts.degrade) and cypress::Error on resume violations
/// (a different rank count or output path, a corrupt foreign manifest).
StreamingMergeResult streamingMerge(int numRanks, const CttSource& source,
                                    const cst::Tree& cst,
                                    const StreamingMergeOptions& opts);

}  // namespace cypress::core
