// Crash-consistent trace journaling: the CYJ1 segmented on-disk format.
//
// A journal is a segment log (trace/segment_log.hpp): an append-only
// byte stream a tracer can be killed in the middle of writing, at any
// byte, and still recover from. The layout:
//
//   header:  str "CYJ1" | uvarint numRanks
//
// Segment kinds:
//   0 EVENTS   payload = uv rank | uv nEvents | nEvents serialized Events
//   1 FINALIZE payload = uv rank            (the rank reached MPI_Finalize)
//   2 SEAL     payload = RankSet lostRanks | uv totalEvents
//
// The SEAL segment is written exactly once, after all ranks have either
// finalized or been declared lost; a journal ending in a valid SEAL is
// *complete*. Anything else is a partial journal: recovery replays
// CRC-valid segments in order and stops at the first torn, corrupt, or
// missing segment, yielding every event up to the last complete segment
// — the same guarantee Recorder-style per-rank I/O tracing provides.
//
// Two readers share the segment log's walk:
//   recoverJournal() is the salvage path (`cyptrace recover`): it throws
//     only on a bad header and otherwise returns the recoverable prefix,
//     reporting how many trailing bytes were discarded.
//   parseJournal() is the strict path (verification, fuzzing): any
//     anomaly — torn segment, CRC mismatch, unsealed journal, trailing
//     bytes, event-count mismatch — raises cypress::Error.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "support/bytebuf.hpp"
#include "support/rank_set.hpp"
#include "trace/event.hpp"
#include "trace/observer.hpp"

namespace cypress::trace {

/// Append-only CYJ1 writer shared by all ranks of one run. Each append
/// produces one self-contained CRC-framed segment, so the byte stream is
/// recoverable after any prefix.
class JournalBuilder {
 public:
  /// Receives every appended chunk (the header, then each complete
  /// segment) as soon as it is framed; the builder then drops the
  /// chunk, so with a sink it holds no journal bytes. A sink that hands
  /// each chunk to one write(2) of an open file makes the on-disk
  /// journal as kill-safe as the format promises: once the call returns
  /// the bytes are in the page cache, so a killed process tears the
  /// file at a segment boundary (or, killed mid-call, inside one
  /// segment) — both recoverable prefixes. Surviving a power cut takes
  /// an fsync, which the file's owner issues once, when the run is over
  /// and before the file is renamed into place — never per chunk.
  using Sink = std::function<void(std::span<const uint8_t>)>;

  explicit JournalBuilder(int numRanks, Sink sink = nullptr);

  /// Append an EVENTS segment for `rank` (no-op for an empty batch).
  void appendEvents(int rank, std::span<const Event> events);

  /// Append a FINALIZE segment: `rank` reached MPI_Finalize.
  void appendFinalize(int rank);

  /// Append the SEAL footer. `lostRanks` are ranks whose traces are
  /// known-incomplete (killed mid-run). Must be called at most once;
  /// no segment may follow it.
  void seal(const RankSet& lostRanks);

  bool sealed() const { return sealed_; }
  uint64_t totalEvents() const { return totalEvents_; }
  int numRanks() const { return numRanks_; }
  /// The journal so far; empty with a sink, which has every byte.
  const std::vector<uint8_t>& bytes() const { return w_.bytes(); }
  std::vector<uint8_t> take() { return w_.take(); }

 private:
  void segment(uint8_t kind, const ByteWriter& payload);
  /// Pass the chunk framed since the last hand-off to the sink, if any.
  void handOff();

  ByteWriter w_;
  Sink sink_;
  int numRanks_;
  uint64_t totalEvents_ = 0;
  bool sealed_ = false;
};

/// Per-rank journaling observer: buffers events and flushes them to the
/// shared builder as EVENTS segments every `flushEvery` events (and at
/// finalize). A rank killed between flushes loses only its buffered
/// tail — everything already flushed is CRC-framed on disk.
class JournalRecorder final : public Observer {
 public:
  JournalRecorder(JournalBuilder& builder, int rank, size_t flushEvery = 64);

  void onEvent(const Event& e) override;
  void onStructEnter(int, int) override {}
  void onStructExit(int) override {}
  void onCallEnter(int, const std::string&) override {}
  void onCallExit(const std::string&) override {}
  void onFinalize() override;

  /// Flush buffered events to the builder without finalizing.
  void flush();

  bool finalized() const { return finalized_; }
  uint64_t eventsSeen() const { return eventsSeen_; }

 private:
  JournalBuilder& builder_;
  int rank_;
  size_t flushEvery_;
  std::vector<Event> buf_;
  uint64_t eventsSeen_ = 0;
  bool finalized_ = false;
};

/// The result of reading a CYJ1 journal.
struct JournalRecovery {
  RawTrace trace;                   ///< one RankTrace per rank, 0..numRanks-1
  bool sealed = false;              ///< the journal ended in a valid SEAL
  std::vector<int> finalizedRanks;  ///< ranks with a FINALIZE segment
  RankSet lostRanks;                ///< from the SEAL (empty when unsealed)
  size_t segmentsRecovered = 0;
  size_t bytesDiscarded = 0;        ///< trailing bytes after the last good segment

  /// Ranks that neither finalized nor were declared lost by a seal —
  /// their traces are prefixes of unknown completeness.
  std::vector<int> unfinalizedRanks() const;

  /// True when salvage discarded data or could not prove completeness:
  /// the journal is unsealed, trailing bytes were dropped, or some rank
  /// never finalized without being declared lost. A lossy recovery must
  /// be reported as such (non-zero `cyptrace recover` exit, the
  /// daemon's degraded-recover job outcome) — it is not a clean read.
  bool lossy() const {
    return !sealed || bytesDiscarded > 0 || !unfinalizedRanks().empty();
  }
};

/// Salvage a (possibly torn) journal: replay CRC-valid segments up to
/// the first damage. Throws cypress::Error only when the header itself
/// is unusable (bad magic / implausible rank count).
JournalRecovery recoverJournal(std::span<const uint8_t> data);

/// Strict read for verification and fuzzing: every anomaly (torn or
/// CRC-corrupt segment, unsealed journal, trailing bytes, seal/event
/// count mismatch) raises cypress::Error.
JournalRecovery parseJournal(std::span<const uint8_t> data);

}  // namespace cypress::trace
