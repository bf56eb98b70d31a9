// Crash-consistent merge spill files (CYSP) and the streaming-merge
// checkpoint manifest (CYM1).
//
// The memory-bounded streaming merge (cypress/merge_stream.hpp) keeps
// at most a batch of ranks in RAM and parks every intermediate merged
// CTT on disk. Both on-disk forms are segment logs
// (trace/segment_log.hpp) — CRC framing so any torn byte is
// detectable, plus an explicit completeness marker — because both are
// written on the crash path by construction: a kill -9 or an ENOSPC
// mid-merge must never leave an undetectably damaged file.
//
// CYSP spill file:
//
//   header:  str "CYSP" | uvarint version (1)
//
// Segment kinds:
//   0 CHUNK payload = a slice of the serialized CYPC stream
//   1 SEAL  payload = uv totalBytes | u32 crc32(whole stream)
//
// A spill ending in a valid SEAL whose totals match is *complete*;
// anything else (truncated, torn chunk, missing seal) means the batch
// it held was mid-write when the process died, and the resume path
// recomputes it. There is no lenient reader on purpose: a spill is a
// checkpoint artifact, not a source of record — partial content is
// worthless because the inputs that produced it still exist.
//
// CYM1 checkpoint manifest:
//
//   header:  str "CYM1" | uvarint version (1)
//            | uv numRanks | uv budgetBytes | uv maxBatchRanks
//
// Segment kinds:
//   0 BATCH payload = uv batchIndex | uv firstRank | uv rankCount
//                     | str file | uv fileBytes | u32 fileCrc
//                     | RankSet lostRanks
//   1 MERGE payload = uv round | uv pairIndex | str file
//                     | uv fileBytes | u32 fileCrc
//   2 FINAL payload = str outPath | uv bytes | u32 crc32
//
// Like the CYL1 ledger the manifest is a durable segment log, never sealed;
// each segment is one completed, durable step of the merge. `file` is
// relative to the manifest's directory; a BATCH with an empty file is
// a degraded batch whose ranks were dropped (lostRanks says which).
// Recovery is prefix salvage: replay CRC-valid segments, truncate the
// torn tail, resume appending. The header parameters pin the plan —
// resuming with a different rank count or budget would re-batch
// differently, so it is refused.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "support/bytebuf.hpp"
#include "support/io.hpp"
#include "support/rank_set.hpp"
#include "trace/segment_log.hpp"

namespace cypress::core {

/// Write `data` to `path` as a sealed CYSP spill (fsync before
/// returning). Throws io::IoError on disk faults.
void writeSpill(io::IoBackend& io, const std::string& path,
                std::span<const uint8_t> data);

/// Streaming CYSP writer: a ByteSink producers serialize straight
/// into, so a spill never requires the serialized stream as one
/// buffer. Bytes are framed into CRC'd CHUNK segments at the same
/// fixed cut points writeSpill uses (the file is byte-identical);
/// seal() flushes the tail chunk, appends the SEAL segment with the
/// running totals (whole-stream CRC via crc32Combine folding), fsyncs,
/// closes, and reports the payload totals for checkpoint records.
/// A destroyed-unsealed sink leaves a torn spill — exactly what the
/// strict reader rejects and the resume path recomputes.
class SpillSink final : public ByteSink {
 public:
  struct Totals {
    uint64_t bytes = 0;  ///< payload stream length
    uint32_t crc = 0;    ///< crc32 of the whole payload stream
  };

  SpillSink(io::IoBackend& io, const std::string& path);
  ~SpillSink() override = default;

  SpillSink(const SpillSink&) = delete;
  SpillSink& operator=(const SpillSink&) = delete;

  void append(std::span<const uint8_t> bytes) override;
  Totals seal();

 private:
  void flushChunk();

  std::unique_ptr<io::IoFile> file_;
  std::vector<uint8_t> chunk_;
  Totals totals_;
  bool sealed_ = false;
};

/// Strict parse of spill bytes: returns the payload stream only when
/// every chunk CRC checks out and a valid, matching SEAL terminates the
/// file; any anomaly raises cypress::Error.
std::vector<uint8_t> parseSpill(std::span<const uint8_t> file);

/// Read + parse a spill file.
std::vector<uint8_t> readSpill(io::IoBackend& io, const std::string& path);

/// True when `path` exists and holds a sealed spill of exactly
/// `expectBytes` payload bytes with CRC `expectCrc` — the resume path's
/// "is this checkpointed step still durable" probe. Never throws:
/// missing, torn, or mismatched files are simply not intact.
bool spillIntact(io::IoBackend& io, const std::string& path,
                 uint64_t expectBytes, uint32_t expectCrc);

/// One completed leaf batch recorded in the manifest.
struct BatchRecord {
  uint64_t batchIndex = 0;
  int firstRank = 0;
  int rankCount = 0;
  std::string file;  ///< relative to the manifest dir; empty = degraded
  uint64_t fileBytes = 0;
  uint32_t fileCrc = 0;
  RankSet lostRanks;  ///< ranks dropped by graceful degradation
};

/// One completed reduction-pair merge recorded in the manifest.
struct MergeRecord {
  uint64_t round = 0;
  uint64_t pairIndex = 0;
  std::string file;
  uint64_t fileBytes = 0;
  uint32_t fileCrc = 0;
};

/// The durable FINAL step: the merged CYPC was atomically written.
struct FinalRecord {
  std::string outPath;
  uint64_t bytes = 0;
  uint32_t crc = 0;
};

/// The plan parameters pinned in the manifest header. Deterministic
/// batching is a pure function of these plus the rank CTT stream, so
/// equality here guarantees a resume re-derives the identical plan.
struct MergePlanKey {
  uint64_t numRanks = 0;
  uint64_t budgetBytes = 0;
  uint64_t maxBatchRanks = 0;

  bool operator==(const MergePlanKey&) const = default;
};

/// Append-only CYM1 writer: one write + fsync per segment.
class ManifestWriter {
 public:
  /// Opens `path` for appending; writes the header when the file is new
  /// or empty, otherwise requires `resume` (the file must already have
  /// been salvaged to a valid prefix by recoverManifestFile).
  ManifestWriter(io::IoBackend& io, const std::string& path,
                 const MergePlanKey& key, bool resume = false);

  void appendBatch(const BatchRecord& b);
  void appendMerge(const MergeRecord& m);
  void appendFinal(const FinalRecord& f);

  /// Durable segments appended through this writer (header excluded) —
  /// the clock the kill-matrix --crash-after-steps hook reads.
  uint64_t segmentsWritten() const { return log_.segmentsWritten(); }

 private:
  trace::SegmentLogWriter log_;
};

/// The replayed state of a (possibly torn) manifest.
struct ManifestRecovery {
  MergePlanKey key;
  std::vector<BatchRecord> batches;  ///< ascending batchIndex
  std::vector<MergeRecord> merges;
  std::optional<FinalRecord> final;
  size_t segmentsRecovered = 0;
  size_t bytesDiscarded = 0;  ///< torn tail after the last good segment
};

/// Salvage manifest bytes: replay CRC-valid segments up to the first
/// damage. Throws cypress::Error only on an unusable header.
ManifestRecovery recoverManifest(std::span<const uint8_t> data);

/// Strict read for fuzzing: any anomaly raises cypress::Error.
ManifestRecovery parseManifest(std::span<const uint8_t> data);

/// Read + salvage a manifest file and truncate it to the valid prefix
/// so a ManifestWriter can resume appending. A missing or empty file
/// (including a torn header, which is truncated to empty) yields
/// nullopt: there is nothing to resume from.
std::optional<ManifestRecovery> recoverManifestFile(io::IoBackend& io,
                                                    const std::string& path);

}  // namespace cypress::core
