#include "service/ledger.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace cypress::service {

namespace {

constexpr uint8_t kSubmitSegment = 0;
constexpr uint8_t kStateSegment = 1;
// v2: JobSpec grew querySpec (protocol v2); old ledgers are not
// readable across the format change, matching the strict version check
// in recover().
constexpr uint64_t kLedgerVersion = 2;
constexpr uint64_t kLedgerHeader[] = {kLedgerVersion};

constexpr trace::SegmentLogFormat kLedgerFormat{"ledger", "CYL1", 1,
                                                kStateSegment};

JobState checkedState(uint8_t v) {
  CYP_CHECK(v <= static_cast<uint8_t>(JobState::FailedDisk),
            "ledger: unknown job state " << int(v));
  return static_cast<JobState>(v);
}

}  // namespace

LedgerWriter::LedgerWriter(const std::string& path, bool resume,
                           io::IoBackend* io)
    : log_(io ? *io : io::realIo(), path, kLedgerFormat, kLedgerHeader, resume,
           "run with --recover to salvage it or remove it to start fresh") {}

void LedgerWriter::appendSubmit(uint64_t jobId, uint64_t clientId,
                                const JobSpec& spec) {
  ByteWriter p;
  p.uv(jobId);
  p.uv(clientId);
  spec.serialize(p);
  log_.append(kSubmitSegment, p);
}

void LedgerWriter::appendState(uint64_t jobId, JobState state, uint32_t attempt,
                               const std::string& detail,
                               const std::string& artifactPath,
                               const std::string& journalPath) {
  ByteWriter p;
  p.uv(jobId);
  p.u8(static_cast<uint8_t>(state));
  p.uv(attempt);
  p.str(detail);
  p.str(artifactPath);
  p.str(journalPath);
  log_.append(kStateSegment, p);
}

std::vector<uint64_t> LedgerRecovery::nonTerminal() const {
  std::vector<uint64_t> out;
  for (const LedgerJob& j : jobs)
    if (!isTerminal(j.state)) out.push_back(j.id);
  return out;
}

namespace {

LedgerRecovery readLedger(std::span<const uint8_t> data, bool strict) {
  ByteReader r(data);
  const uint64_t version = trace::readSegmentHeader(r, kLedgerFormat)[0];
  CYP_CHECK(version == kLedgerVersion,
            "ledger: unsupported version " << version);

  LedgerRecovery out;
  // id → index in out.jobs; the job count is bounded by the segment
  // count, which is bounded by the input size.
  auto find = [&](uint64_t id) -> LedgerJob* {
    for (LedgerJob& j : out.jobs)
      if (j.id == id) return &j;
    return nullptr;
  };

  // Parse fully into locals before committing, so a half-valid segment
  // mutates nothing.
  auto visit = [&](uint8_t kind, std::span<const uint8_t> payload) {
    ByteReader p(payload);
    if (kind == kSubmitSegment) {
      LedgerJob j;
      j.id = p.uv();
      j.clientId = p.uv();
      j.spec = JobSpec::deserialize(p);
      CYP_CHECK(p.atEnd(), "ledger: trailing bytes in submit segment");
      CYP_CHECK(find(j.id) == nullptr,
                "ledger: job " << j.id << " submitted twice");
      out.maxJobId = std::max(out.maxJobId, j.id);
      out.jobs.push_back(std::move(j));
      return;
    }
    const uint64_t id = p.uv();
    const JobState state = checkedState(p.u8());
    const uint32_t attempt = static_cast<uint32_t>(p.uv());
    std::string detail = p.str();
    std::string artifactPath = p.str();
    std::string journalPath = p.str();
    CYP_CHECK(p.atEnd(), "ledger: trailing bytes in state segment");
    LedgerJob* j = find(id);
    CYP_CHECK(j != nullptr, "ledger: state transition for unknown job " << id);
    CYP_CHECK(!isTerminal(j->state),
              "ledger: transition after terminal state for job " << id);
    j->state = state;
    j->attempt = attempt;
    j->detail = std::move(detail);
    if (!artifactPath.empty()) j->artifactPath = std::move(artifactPath);
    if (!journalPath.empty()) j->journalPath = std::move(journalPath);
  };
  const trace::SegmentWalk walk = trace::walkSegments(
      r, kLedgerFormat,
      strict ? trace::WalkMode::Strict : trace::WalkMode::Salvage, visit);
  out.segmentsRecovered = walk.segments;
  out.bytesDiscarded = walk.bytesDiscarded;
  return out;
}

}  // namespace

LedgerRecovery recoverLedger(std::span<const uint8_t> data) {
  return readLedger(data, /*strict=*/false);
}

LedgerRecovery parseLedger(std::span<const uint8_t> data) {
  return readLedger(data, /*strict=*/true);
}

LedgerRecovery recoverLedgerFile(const std::string& path, io::IoBackend* io) {
  LedgerRecovery rec;
  const trace::SegmentFileRecovery file = trace::recoverSegmentFile(
      io ? *io : io::realIo(), path, kLedgerFormat,
      [&](std::span<const uint8_t> bytes) {
        rec = recoverLedger(bytes);
        return rec.bytesDiscarded;
      });
  // A torn header leaves an empty ledger; report the bytes it cost.
  rec.bytesDiscarded = file.bytesDiscarded;
  return rec;
}

}  // namespace cypress::service
