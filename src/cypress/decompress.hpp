// Sequence-preserving decompression (paper §V).
//
// The merged trace tree is traversed in pre-order; loop vertices replay
// their recorded iteration counts, branch vertices their recorded
// outcomes, and comm leaves print the stored records — reproducing each
// rank's original event sequence exactly (recursion pseudo-loops are the
// paper's documented approximation: event multiset preserved, unwind
// order linearized).
//
// CompressedCursor is the one implementation of that walk. It runs as
// an explicit machine that pauses after every emitted event, so replay
// and event-at-a-time analyses read the compressed form directly with
// O(#CST vertices + #records + tree depth) state — never O(events).
// decompressRank() is nothing but a cursor drained into a vector.
//
// The cursor state is laid out per vertex kind, like the Ctt it walks:
// one loop-count cursor per Loop vertex, one outcome cursor per Branch
// vertex and one leaf cursor (execution ordinals plus a record cursor
// per CommRecord) per Comm vertex, each array sized by
// cst::Tree::kindCount and indexed by cst::Tree::slot(gid). Only the
// per-vertex execution counters span every gid. Replay keeps one
// cursor per rank live at once, so this footprint is the replay's
// per-rank memory.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cypress/merge.hpp"
#include "support/error.hpp"
#include "trace/event.hpp"

namespace cypress::core {

/// Streams one rank's events straight off the CTT. A cursor that
/// reaches done() has checked that every payload cursor was consumed;
/// a tree whose payload is inconsistent throws cypress::Error.
class CompressedCursor {
 public:
  /// Build a cursor over `m` for one covered rank. `m` must outlive the
  /// cursor. A cursor for a lost / uncovered rank throws on first use.
  CompressedCursor(const MergedCtt& m, int rank);

  CompressedCursor(CompressedCursor&&) = default;
  CompressedCursor& operator=(CompressedCursor&&) = default;

  /// True when the walk is complete (runs the drain check once).
  bool done() {
    if (!hasEvent_ && !finished_) advance();
    return !hasEvent_;
  }

  /// The current event; valid until next(). Requires !done().
  const trace::Event& peek() {
    CYP_CHECK(!done(), "compressed cursor exhausted");
    return buf_;
  }

  /// Consume the current event.
  void next() {
    CYP_CHECK(!done(), "compressed cursor exhausted");
    hasEvent_ = false;
  }

  /// Events emitted so far (consumed + the buffered one, if any).
  uint64_t emitted() const { return emitted_; }

  int rank() const { return rank_; }

  /// Heap footprint of the cursor state (the replay-side memory story:
  /// compare against events * sizeof(Event) for the materialized path).
  size_t memoryBytes() const;

 private:
  struct RecState {
    SectionSeq::Cursor ord;
    std::optional<SectionSeq::Cursor> matched;
    const CommRecord* rec = nullptr;
  };
  struct LeafCursor {
    const LeafEntry* entry = nullptr;
    uint64_t nextOrdinal = 0;
    std::optional<SectionSeq::Cursor> execCursor;
    std::vector<RecState> recs;
  };
  /// One execution of one CST vertex, paused between children (and
  /// between occurrences at a Comm child).
  struct Frame {
    const cst::Node* node = nullptr;
    uint64_t exec = 0;    // this execution's ordinal of `node`
    size_t child = 0;     // index of the child being processed
    uint64_t pending = 0; // loop iterations still to push
    bool pendingValid = false;
  };

  /// Index of `n` in the per-kind array of its kind.
  size_t slotOf(const cst::Node* n) const {
    return static_cast<size_t>(m_->cst().slot(n->gid));
  }
  void push(const cst::Node* n);
  void fillEvent(const cst::Node* leaf);
  void advance();  // run the machine until an event is buffered or done
  void checkDrained() const;

  const MergedCtt* m_;
  int rank_;
  std::vector<std::optional<SectionSeq::Cursor>> loopCur_;   // per Loop
  std::vector<std::optional<SectionSeq::Cursor>> takenCur_;  // per Branch
  std::vector<LeafCursor> leaf_;                             // per Comm
  std::vector<uint64_t> execCount_;                          // per gid
  std::vector<Frame> stack_;
  trace::Event buf_;
  bool hasEvent_ = false;
  bool finished_ = false;
  uint64_t emitted_ = 0;
};

/// Reconstruct the full event sequence of one rank. Timing fields are
/// filled from the recorded statistics (mean values); all communication
/// content (op, peers, sizes, tags, wildcard matches, request mapping)
/// is exact. Throws cypress::Error if the tree's payload is inconsistent
/// (any cursor left unconsumed is a bug, not a warning).
std::vector<trace::Event> decompressRank(const MergedCtt& m, int rank);

/// Decompress every rank (convenience for tests and the replay harness).
trace::RawTrace decompressAll(const MergedCtt& m, int numRanks);

}  // namespace cypress::core
