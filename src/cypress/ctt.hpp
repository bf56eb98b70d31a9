// The Compressed Trace Tree (CTT) and the on-the-fly intra-process
// compressor (paper §IV-A).
//
// The CTT shares the CST's shape; per-vertex payloads are stored in
// per-kind arrays (one entry per vertex of that kind):
//   - loop vertices:   per-activation iteration counts (SectionSeq —
//                      the paper's <first,last,stride> tuples, Fig. 10)
//   - branch vertices: parent-execution ordinals at which the path was
//                      taken (Fig. 11's <0,8,2> encoding)
//   - comm leaves:     CommRecord runs, merged against the last record
//
// CttRecorder implements the PMPI observer: it maintains the "program
// pointer" p of the paper — a stack of active structure frames — and
// fills event details into the static template. With
// Options::meterHooks set, all hook work is charged to a CostMeter so
// the intra-process overhead experiments measure exactly the
// compression cost; otherwise the hooks read no clock at all.
#pragma once

#include <cstdint>
#include <vector>

#include "cst/tree.hpp"
#include "cypress/record.hpp"
#include "support/timer.hpp"
#include "trace/observer.hpp"

namespace cypress::core {

/// Per-process populated trace tree.
class Ctt {
 public:
  explicit Ctt(const cst::Tree& cst)
      : cst_(&cst),
        loopCounts_(static_cast<size_t>(cst.kindCount(cst::NodeKind::Loop))),
        taken_(static_cast<size_t>(cst.kindCount(cst::NodeKind::Branch))),
        records_(static_cast<size_t>(cst.kindCount(cst::NodeKind::Comm))),
        leafExec_(static_cast<size_t>(cst.kindCount(cst::NodeKind::Comm))) {}

  const cst::Tree& cst() const { return *cst_; }

  // Payloads are stored per vertex kind (indexed by cst::Tree::slot);
  // the gid-indexed readers return a shared empty value for a vertex
  // whose kind carries no such payload.
  const SectionSeq& loopCounts(int gid) const {
    return is(gid, cst::NodeKind::Loop) ? loopCounts_[slot(gid)] : kNoSeq;
  }
  const SectionSeq& taken(int gid) const {
    return is(gid, cst::NodeKind::Branch) ? taken_[slot(gid)] : kNoSeq;
  }
  const std::vector<CommRecord>& records(int gid) const {
    return is(gid, cst::NodeKind::Comm) ? records_[slot(gid)] : kNoRecords;
  }
  /// Parent-execution ordinal of each event at this leaf (in occurrence
  /// order). Ordinary leaves emit exactly once per parent execution, so
  /// this compresses to a single <0,n-1,1> tuple; partial-completion ops
  /// (Waitsome) may emit zero or several events per execution.
  const SectionSeq& leafExec(int gid) const {
    return is(gid, cst::NodeKind::Comm) ? leafExec_[slot(gid)] : kNoSeq;
  }

  // Writers: `gid` must be a vertex of the payload's kind.
  SectionSeq& loopCountsMut(int gid) { return loopCounts_[slot(gid)]; }
  SectionSeq& takenMut(int gid) { return taken_[slot(gid)]; }
  std::vector<CommRecord>& recordsMut(int gid) { return records_[slot(gid)]; }
  SectionSeq& leafExecMut(int gid) { return leafExec_[slot(gid)]; }

  /// Exact heap footprint of the compressed payload (Fig. 16 memory).
  size_t memoryBytes() const;

  /// Total number of compressed items (records + count/taken sections):
  /// the per-process "n" of the paper's complexity discussion.
  size_t compressedItems() const;

  /// Per-process trace file (the paper's model: each process writes its
  /// compressed trace at MPI_Finalize; merging can then happen offline).
  /// The CST is NOT embedded — the reader must supply the same tree.
  /// serializeTo streams into `w` — pair it with a sink-backed writer
  /// (e.g. over flate::StreamingCompressor) so the CYPP bytes leave RAM
  /// as they are produced; serialize() is the materializing wrapper.
  /// The file lists every vertex's four payloads, empty ones included.
  void serializeTo(ByteWriter& w) const;
  std::vector<uint8_t> serialize() const;
  static Ctt deserialize(std::span<const uint8_t> data, const cst::Tree& cst);

 private:
  static const SectionSeq kNoSeq;
  static const std::vector<CommRecord> kNoRecords;

  bool is(int gid, cst::NodeKind k) const { return cst_->byGid(gid)->kind == k; }
  size_t slot(int gid) const { return static_cast<size_t>(cst_->slot(gid)); }

  const cst::Tree* cst_;
  std::vector<SectionSeq> loopCounts_;            // per loop
  std::vector<SectionSeq> taken_;                 // per branch
  std::vector<std::vector<CommRecord>> records_;  // per comm leaf
  std::vector<SectionSeq> leafExec_;              // per comm leaf
};

/// On-the-fly intra-process compressor for one rank.
class CttRecorder final : public trace::Observer {
 public:
  struct Options {
    TimeMode timeMode;
    /// How many existing records to scan for a parameter match before
    /// opening a new one (the paper's sliding window, §IV-A). 1 degrades
    /// to compare-with-last; larger windows capture loop-carried
    /// parameter cycles at slightly higher per-event cost.
    int window;
    /// Charge every hook to cost() (two clock reads per call). Off by
    /// default: only the overhead experiments read the meter.
    bool meterHooks = false;
    Options() : timeMode(TimeMode::MeanStddev), window(64) {}
    explicit Options(TimeMode m, int w = 64) : timeMode(m), window(w) {}
  };

  CttRecorder(const cst::Tree& cst, int rank, Options opts = Options());

  // trace::Observer:
  void onEvent(const trace::Event& e) override;
  void onStructEnter(int structId, int pathIndex) override;
  void onStructExit(int structId) override;
  void onCallEnter(int callInstrId, const std::string& callee) override;
  void onCallExit(const std::string& callee) override;
  void onFinalize() override;

  const Ctt& ctt() const { return ctt_; }
  int rank() const { return rank_; }
  bool finalized() const { return finalized_; }

  /// CPU time spent inside the hooks (the tool's intra-process
  /// overhead); stays 0 unless Options::meterHooks is set.
  const CostMeter& cost() const { return cost_; }

  /// CTT payload + recorder bookkeeping memory.
  size_t memoryBytes() const;

 private:
  struct Frame {
    const cst::Node* node = nullptr;
    uint64_t loopCount = 0;  // iterations in the current activation
  };
  struct CallLogEntry {
    enum class Kind : uint8_t { Transparent, Pushed, Reentry } kind;
    size_t savedDepth = 0;            // Pushed: stack depth before push
    std::vector<Frame> savedFrames;   // Reentry: frames popped at re-entry
  };

  CostMeter* meter() { return opts_.meterHooks ? &cost_ : nullptr; }
  const cst::Node* top() const { return stack_.back().node; }
  uint64_t& exec(const cst::Node* n) { return exec_[static_cast<size_t>(n->gid)]; }

  /// Close one frame (flush loop activation counts).
  void closeFrame();
  /// Close frames until the stack has `depth` entries.
  void closeTo(size_t depth);
  void pushLoopIteration(const cst::Node* loop);

  const cst::Tree& cst_;
  int rank_;
  Options opts_;
  Ctt ctt_;
  std::vector<Frame> stack_;
  std::vector<CallLogEntry> callLog_;
  std::vector<uint64_t> exec_;  // per-gid execution ordinal counters
  std::vector<uint64_t> occ_;   // per-comm-leaf (slot) event occurrences
  CostMeter cost_;
  bool finalized_ = false;
};

}  // namespace cypress::core
