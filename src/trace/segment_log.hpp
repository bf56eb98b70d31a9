// The segment log: one framing, one walk and one durable writer shared
// by every crash-consistent cypress format — the CYJ1 trace journal,
// the CYL1 job ledger and the CYM1 merge manifest.
//
// A segment log is a header followed by self-contained segments:
//
//   header:  str magic | uvarint field...      (field count per format)
//   segment: u8 kind | uvarint payloadLen | u32 crc32(payload) | payload
//
// A kill at any byte tears at most one segment, and the CRC makes the
// tear detectable, so every log has a recoverable prefix. The formats
// differ only in their header fields and in what each segment kind's
// payload means; everything about the frame lives here.
//
// Reading comes in two modes. Strict (verification, fuzzing)
// turns the first anomaly into cypress::Error. Salvage (recovery) stops
// at the first torn, corrupt or payload-invalid segment and reports how
// many trailing bytes it discarded; only header damage throws.
//
// Writing durably (the ledger and the manifest) is one write + fsync
// per segment: a kill between appends tears the file at a segment
// boundary, a kill mid-write tears one segment, and an acknowledged
// append survives a power cut. recoverSegmentFile() is the other half:
// it truncates a torn tail (or a torn header) so a writer can resume.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/bytebuf.hpp"
#include "support/io.hpp"

namespace cypress::trace {

/// What distinguishes one segment-log format from another.
struct SegmentLogFormat {
  std::string_view name;  ///< error-message prefix, e.g. "ledger"
  std::string_view magic; ///< the header's leading string, e.g. "CYL1"
  size_t headerFields;    ///< uvarints after the magic (at least one)
  uint8_t maxKind;        ///< highest segment kind the format defines
};

/// Encode the header `str magic | uv fields...`.
void writeSegmentHeader(ByteWriter& w, const SegmentLogFormat& f,
                        std::span<const uint64_t> fields);

/// Read the header, checking the magic; returns the header fields.
std::vector<uint64_t> readSegmentHeader(ByteReader& r,
                                        const SegmentLogFormat& f);

/// Append one framed segment to `w`. The only encoder of the frame.
void frameSegment(ByteWriter& w, uint8_t kind,
                  std::span<const uint8_t> payload);

enum class WalkMode { Strict, Salvage };

struct SegmentWalk {
  size_t segments = 0;        ///< segments framed, CRC-valid and accepted
  size_t bytesDiscarded = 0;  ///< salvage: bytes from the first bad segment
};

/// Receives each CRC-valid segment. Throwing cypress::Error rejects the
/// segment: the walk then throws (Strict) or stops before it (Salvage),
/// so a visitor must parse fully before it commits any state.
using SegmentVisitor =
    std::function<void(uint8_t kind, std::span<const uint8_t> payload)>;

/// Walk the segments from `r`'s position to the end of its input.
SegmentWalk walkSegments(ByteReader& r, const SegmentLogFormat& f,
                         WalkMode mode, const SegmentVisitor& visit);

/// Append-only durable segment-log file.
class SegmentLogWriter {
 public:
  /// Opens `path` for appending. A missing or empty file is fresh: the
  /// header is written and fsynced. A non-empty file is refused unless
  /// `resume` is set (recoverSegmentFile() leaves it at a segment
  /// boundary); `resumeHint` ends the refusal message.
  SegmentLogWriter(io::IoBackend& io, const std::string& path,
                   const SegmentLogFormat& f,
                   std::span<const uint64_t> headerFields, bool resume,
                   std::string_view resumeHint);

  SegmentLogWriter(const SegmentLogWriter&) = delete;
  SegmentLogWriter& operator=(const SegmentLogWriter&) = delete;

  /// Frame `payload`, then one write and one fsync.
  void append(uint8_t kind, const ByteWriter& payload);

  /// Segments appended through this writer (header excluded) — the
  /// clock the --crash-after-segments/--crash-after-steps hooks read.
  uint64_t segmentsWritten() const { return segments_; }

 private:
  std::unique_ptr<io::IoFile> file_;
  uint64_t segments_ = 0;
};

/// What recoverSegmentFile() found.
struct SegmentFileRecovery {
  bool resumable = false;     ///< the header is intact and `salvage` ran
  size_t bytesDiscarded = 0;  ///< bytes truncated away
};

/// Make `path` safe to resume appending to. A missing or empty file has
/// nothing to resume. A file that is a strict prefix of the header
/// `str magic | headerFields uvarints` is a torn fresh file: it is
/// truncated to 0. Otherwise `salvage` replays the bytes and returns
/// how many trailing bytes it discarded, which are truncated away; a
/// foreign file makes `salvage` throw, and the file is left untouched.
SegmentFileRecovery recoverSegmentFile(
    io::IoBackend& io, const std::string& path, const SegmentLogFormat& f,
    const std::function<size_t(std::span<const uint8_t>)>& salvage);

}  // namespace cypress::trace
