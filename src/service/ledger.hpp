// Crash-consistent job ledger: the CYL1 append-only on-disk format.
//
// The daemon journals every job state transition the way the tracer
// journals events: as a durable segment log (trace/segment_log.hpp), so
// a `kill -9` at any byte leaves a recoverable prefix. The layout:
//
//   header:  str "CYL1" | uvarint version (2)
//
// Segment kinds:
//   0 SUBMIT payload = uv jobId | uv clientId | JobSpec
//   1 STATE  payload = uv jobId | u8 state | uv attempt | str detail
//                      | str artifactPath | str journalPath
//
// A ledger is never sealed — the server is meant to outlive any one
// job — so recovery is always prefix salvage: replay CRC-valid
// segments in order, stop at the first torn or corrupt one, and
// truncate the trailing bytes before appending resumes.
// A job whose last recovered state is non-terminal (ACCEPTED or
// RUNNING) was in flight at the crash: the server re-queues it and
// marks its half-written artifacts for salvage.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "support/io.hpp"
#include "trace/segment_log.hpp"

namespace cypress::service {

/// Append-only CYL1 writer. Every append is written and fsynced before
/// returning, so the on-disk stream always ends at a segment boundary
/// unless the process died mid-write — either way a recoverable prefix,
/// and every acknowledged state transition is on the platter.
class LedgerWriter {
 public:
  /// Opens `path` for appending, writing the header first when the file
  /// is new or empty. Refuses a non-empty file unless `resume` is set
  /// (the recovery path truncates to the valid prefix, then resumes).
  /// All I/O goes through `io` (null = the real backend), so tests can
  /// inject disk faults into the append path.
  explicit LedgerWriter(const std::string& path, bool resume = false,
                        io::IoBackend* io = nullptr);

  LedgerWriter(const LedgerWriter&) = delete;
  LedgerWriter& operator=(const LedgerWriter&) = delete;

  void appendSubmit(uint64_t jobId, uint64_t clientId, const JobSpec& spec);
  void appendState(uint64_t jobId, JobState state, uint32_t attempt,
                   const std::string& detail, const std::string& artifactPath,
                   const std::string& journalPath);

  /// Segments appended through this writer (header excluded) — the
  /// clock the kill-matrix test's --crash-after-segments hook reads.
  uint64_t segmentsWritten() const { return log_.segmentsWritten(); }

 private:
  trace::SegmentLogWriter log_;
};

/// One job as reconstructed from the ledger (last state wins).
struct LedgerJob {
  uint64_t id = 0;
  uint64_t clientId = 0;
  JobSpec spec;
  JobState state = JobState::Accepted;
  uint32_t attempt = 0;
  std::string detail;
  std::string artifactPath;
  std::string journalPath;
};

/// The result of reading a CYL1 ledger.
struct LedgerRecovery {
  std::vector<LedgerJob> jobs;  ///< ascending job id
  size_t segmentsRecovered = 0;
  size_t bytesDiscarded = 0;  ///< torn tail after the last good segment
  uint64_t maxJobId = 0;

  /// Jobs that never reached DONE/FAILED/CANCELLED — the re-queue set.
  std::vector<uint64_t> nonTerminal() const;
};

/// Salvage a (possibly torn) ledger: replay CRC-valid segments up to
/// the first damage. Throws cypress::Error only on an unusable header.
LedgerRecovery recoverLedger(std::span<const uint8_t> data);

/// Strict read for verification and fuzzing: any anomaly (torn or
/// corrupt segment, unknown job id, out-of-order transition payload)
/// raises cypress::Error.
LedgerRecovery parseLedger(std::span<const uint8_t> data);

/// Read + salvage a ledger file and truncate it to the valid prefix so
/// a LedgerWriter can resume appending. Returns the recovery; a missing
/// file yields an empty recovery. `io` as in LedgerWriter.
LedgerRecovery recoverLedgerFile(const std::string& path,
                                 io::IoBackend* io = nullptr);

}  // namespace cypress::service
