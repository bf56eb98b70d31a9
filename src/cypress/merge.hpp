// Inter-process CTT merging (paper §IV-B) and the on-disk CYPRESS trace.
//
// All per-process CTTs share the CST's shape, so merging two (merged)
// trees is a single simultaneous pre-order walk comparing the payloads
// at each vertex — O(n) per pair, versus the O(n²) alignment dynamic
// methods need. mergeAll() folds P processes in rank order, one
// running total per lane (the paper's parallel merge, §IV-B).
//
// Per vertex the merged tree keeps a list of payload variants, each
// annotated with the set of ranks sharing it (stride-encoded RankSet);
// in SPMD programs the list has one or a few entries (Fig. 13).
#pragma once

#include <cstdint>
#include <vector>

#include "cypress/ctt.hpp"
#include "support/rank_set.hpp"
#include "support/timer.hpp"

namespace cypress::core {

struct SeqEntry {
  SectionSeq seq;
  RankSet ranks;
};

struct LeafEntry {
  std::vector<CommRecord> records;
  /// Parent-execution ordinal per event occurrence (see Ctt::leafExec).
  SectionSeq execOrdinals;
  RankSet ranks;
};

/// Cross-process merged trace tree; `cst` gives the shape.
class MergedCtt {
 public:
  explicit MergedCtt(const cst::Tree& cst)
      : cst_(&cst),
        loops_(static_cast<size_t>(cst.numNodes())),
        taken_(static_cast<size_t>(cst.numNodes())),
        leaves_(static_cast<size_t>(cst.numNodes())) {}

  /// Wrap one process's CTT.
  static MergedCtt fromCtt(const Ctt& ctt, int rank);

  /// Absorb another merged tree (same CST): per vertex, the union of
  /// the two sides' equivalence classes (equal payloads; for leaves also
  /// equal timing classes). Commutative and associative up to the
  /// serialized bytes, so every merge plan writes the same trace.
  void absorb(MergedCtt&& other);
  /// Absorb one process's CTT: the step every merge fold repeats.
  void absorb(const Ctt& ctt, int rank) { absorb(fromCtt(ctt, rank)); }

  const cst::Tree& cst() const { return *cst_; }

  /// Ranks whose per-process traces were lost (killed mid-run) and are
  /// therefore absent from this merged tree. Serialized with the trace
  /// so downstream consumers know the coverage is partial.
  const RankSet& lostRanks() const { return lostRanks_; }
  void markLost(const RankSet& ranks) { lostRanks_.unite(ranks); }

  const std::vector<SeqEntry>& loopEntries(int gid) const {
    return loops_[static_cast<size_t>(gid)];
  }
  const std::vector<SeqEntry>& takenEntries(int gid) const {
    return taken_[static_cast<size_t>(gid)];
  }
  const std::vector<LeafEntry>& leafEntries(int gid) const {
    return leaves_[static_cast<size_t>(gid)];
  }

  /// Serialized CYPRESS trace: compressed-text CST + payloads. This is
  /// the byte count reported as "Cypress" trace size; apply flate on top
  /// for "Cypress+Gzip". serializeTo streams into `w` (use a
  /// sink-backed writer to avoid materializing the trace); serialize()
  /// is the materializing wrapper.
  void serializeTo(ByteWriter& w) const;
  std::vector<uint8_t> serialize() const;
  static MergedCtt deserialize(std::span<const uint8_t> data,
                               const cst::Tree& cst);

  /// Parse the serialized form including its embedded CST (ownership of
  /// the tree transfers to the caller via `treeOut`).
  static MergedCtt deserializeWithTree(std::span<const uint8_t> data,
                                       cst::Tree& treeOut);

  size_t memoryBytes() const;

 private:
  const cst::Tree* cst_;
  RankSet lostRanks_;
  std::vector<std::vector<SeqEntry>> loops_;
  std::vector<std::vector<SeqEntry>> taken_;
  std::vector<std::vector<LeafEntry>> leaves_;
};

/// The payload one vertex's entries hold for `rank`, or nullptr.
const SectionSeq* seqFor(const std::vector<SeqEntry>& entries, int32_t rank);
const LeafEntry* leafFor(const std::vector<LeafEntry>& entries, int32_t rank);

/// Merge per-process CTTs. `interCost`, when given, accumulates the
/// merge CPU time (Fig. 18). min(P, threads) lanes each fold a
/// contiguous rank range, in rank order, into one running total, and
/// the lane totals fold in order (the paper's parallel merge, §IV-B);
/// like any other plan, it yields the same bytes. `ranks`, when given,
/// supplies the world rank of each CTT (for partial merges over
/// surviving ranks); by default ctts[i] is rank i.
MergedCtt mergeAll(std::vector<const Ctt*> ctts, CostMeter* interCost = nullptr,
                   int threads = 1, const std::vector<int>* ranks = nullptr);

}  // namespace cypress::core
