// The streaming-merge checkpoint manifest (CYM1) and the check that
// decides whether a file it records is still intact.
//
// The memory-bounded streaming merge (cypress/merge_stream.hpp) writes
// every leaf batch it merges as a spill — the batch's own CYPC bytes,
// written atomically (tmp, fsync, rename) — and checkpoints it in the
// manifest with the file's size and CRC. Those two numbers are the
// spill's only integrity check: a spill whose bytes do not match its
// record (torn by a lying rename, truncated, left by an older build) is
// recomputed from the rank traces, never repaired. The same rule checks
// the merged output the FINAL record describes.
//
// CYM1 checkpoint manifest:
//
//   header:  str "CYM1" | uvarint version (2) | uv numRanks
//
// Segment kinds:
//   0 BATCH payload = uv batchIndex | uv firstRank | uv rankCount
//                     | str file | uv fileBytes | u32 fileCrc
//                     | RankSet lostRanks
//   1 FINAL payload = str outPath | uv bytes | u32 crc32
//
// Like the CYL1 ledger the manifest is a durable segment log, never sealed;
// each segment is one completed, durable step of the merge. `file` is
// relative to the manifest's directory; a BATCH with an empty file is
// a degraded batch whose ranks were dropped (lostRanks says which).
// The batches tile [0, numRanks) in order. Recovery is prefix salvage:
// replay CRC-valid segments, truncate the torn tail, resume appending.
// The merged result does not depend on where batches were cut, so the
// header pins only the rank count: a resume may change the budget or
// the batch cap and still writes the same bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "support/io.hpp"
#include "support/rank_set.hpp"
#include "trace/segment_log.hpp"

namespace cypress::core {

/// The bytes of `path` when it exists and holds exactly `expectBytes`
/// bytes with CRC-32 `expectCrc` — the resume path's "is this
/// checkpointed file still durable" probe, which reads the file once.
/// Never throws: a missing, unreadable, torn or mismatched file is
/// simply not intact (nullopt).
std::optional<std::vector<uint8_t>> readIntactSpill(io::IoBackend& io,
                                                    const std::string& path,
                                                    uint64_t expectBytes,
                                                    uint32_t expectCrc);

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

/// The durable FINAL step: the merged CYPC was atomically written.
struct FinalRecord {
  std::string outPath;
  uint64_t bytes = 0;
  uint32_t crc = 0;
};

/// Append-only CYM1 writer: one write + fsync per segment.
class ManifestWriter {
 public:
  /// Opens `path` for appending; writes the header when the file is new
  /// or empty, otherwise requires `resume` (the file must already have
  /// been salvaged to a valid prefix by recoverManifestFile).
  ManifestWriter(io::IoBackend& io, const std::string& path,
                 uint64_t numRanks, bool resume = false);

  void appendBatch(const BatchRecord& b);
  void appendFinal(const FinalRecord& f);

  /// Durable segments appended through this writer (header excluded) —
  /// the clock the kill-matrix --crash-after-steps hook reads.
  uint64_t segmentsWritten() const { return log_.segmentsWritten(); }

 private:
  trace::SegmentLogWriter log_;
};

/// The replayed state of a (possibly torn) manifest.
struct ManifestRecovery {
  uint64_t numRanks = 0;
  std::vector<BatchRecord> batches;  ///< ascending batchIndex, tiling ranks
  std::optional<FinalRecord> final;
  size_t segmentsRecovered = 0;
  size_t bytesDiscarded = 0;  ///< torn tail after the last good segment
};

/// Salvage manifest bytes: replay CRC-valid segments up to the first
/// damage. Throws cypress::Error on an unusable header and on a
/// CRC-valid batch that does not continue the rank tiling — no torn
/// write produces one, so it is refused, not truncated away.
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
