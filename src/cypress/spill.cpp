#include "cypress/spill.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "flate/flate.hpp"
#include "support/error.hpp"
#include "trace/segment_log.hpp"

namespace cypress::core {

namespace {

constexpr uint64_t kSpillVersion = 1;
constexpr uint64_t kManifestVersion = 2;
constexpr size_t kSpillChunkBytes = 256u << 10;

constexpr uint8_t kChunkSegment = 0;
constexpr uint8_t kSealSegment = 1;

constexpr uint8_t kBatchSegment = 0;
constexpr uint8_t kFinalSegment = 1;

constexpr trace::SegmentLogFormat kSpillFormat{"spill", "CYSP", 1,
                                               kSealSegment};
// Header fields: version | numRanks.
constexpr trace::SegmentLogFormat kManifestFormat{"manifest", "CYM1", 2,
                                                  kFinalSegment};

}  // namespace

SpillSink::SpillSink(io::IoBackend& io, const std::string& path)
    : file_(io.openWrite(path)) {
  chunk_.reserve(kSpillChunkBytes);
  ByteWriter h;
  const uint64_t header[] = {kSpillVersion};
  trace::writeSegmentHeader(h, kSpillFormat, header);
  file_->write(h.bytes());
}

void SpillSink::flushChunk() {
  // Chunked so a torn write is localized: every chunk is independently
  // CRC-checked, and the seal pins the whole-stream length and CRC.
  const uint32_t chunkCrc = flate::crc32(chunk_);
  totals_.crc = totals_.bytes == 0
                    ? chunkCrc
                    : flate::crc32Combine(totals_.crc, chunkCrc, chunk_.size());
  totals_.bytes += chunk_.size();
  ByteWriter seg;
  trace::frameSegment(seg, kChunkSegment, chunk_);
  file_->write(seg.bytes());
  chunk_.clear();
}

void SpillSink::append(std::span<const uint8_t> bytes) {
  CYP_CHECK(!sealed_, "spill: append after seal");
  while (!bytes.empty()) {
    const size_t n = std::min(kSpillChunkBytes - chunk_.size(), bytes.size());
    chunk_.insert(chunk_.end(), bytes.begin(), bytes.begin() + n);
    bytes = bytes.subspan(n);
    // Eager flush at exactly the chunk size: writeSpill cuts full
    // chunks at the same offsets, so the files are byte-identical.
    if (chunk_.size() == kSpillChunkBytes) flushChunk();
  }
}

SpillSink::Totals SpillSink::seal() {
  CYP_CHECK(!sealed_, "spill: sealed twice");
  sealed_ = true;
  if (!chunk_.empty()) flushChunk();
  ByteWriter seal;
  seal.uv(totals_.bytes);
  seal.u32fixed(totals_.crc);
  ByteWriter seg;
  trace::frameSegment(seg, kSealSegment, seal.bytes());
  file_->write(seg.bytes());
  file_->sync();
  file_->close();
  return totals_;
}

void writeSpill(io::IoBackend& io, const std::string& path,
                std::span<const uint8_t> data) {
  SpillSink sink(io, path);
  sink.append(data);
  sink.seal();
}

std::vector<uint8_t> parseSpill(std::span<const uint8_t> file) {
  ByteReader r(file);
  const uint64_t version = trace::readSegmentHeader(r, kSpillFormat)[0];
  CYP_CHECK(version == kSpillVersion, "spill: unsupported version " << version);

  std::vector<uint8_t> data;
  bool sealed = false;
  trace::walkSegments(
      r, kSpillFormat, trace::WalkMode::Strict,
      [&](uint8_t kind, std::span<const uint8_t> payload) {
        CYP_CHECK(!sealed, "spill: segment after seal");
        if (kind == kChunkSegment) {
          r.chargeAlloc(payload.size());
          data.insert(data.end(), payload.begin(), payload.end());
          return;
        }
        ByteReader p(payload);
        const uint64_t totalBytes = p.uv();
        const uint32_t totalCrc = p.u32fixed();
        CYP_CHECK(p.atEnd(), "spill: trailing bytes in seal");
        CYP_CHECK(totalBytes == data.size(),
                  "spill: seal declares " << totalBytes
                                          << " bytes, chunks hold "
                                          << data.size());
        CYP_CHECK(totalCrc == flate::crc32(data), "spill: stream CRC mismatch");
        sealed = true;
      });
  CYP_CHECK(sealed, "spill: unsealed (incomplete checkpoint)");
  return data;
}

std::vector<uint8_t> readSpill(io::IoBackend& io, const std::string& path) {
  return parseSpill(io.readAll(path));
}

std::optional<std::vector<uint8_t>> readIntactSpill(io::IoBackend& io,
                                                    const std::string& path,
                                                    uint64_t expectBytes,
                                                    uint32_t expectCrc) {
  if (!io.exists(path)) return std::nullopt;
  try {
    std::vector<uint8_t> data = readSpill(io, path);
    if (data.size() == expectBytes && flate::crc32(data) == expectCrc)
      return data;
  } catch (const Error&) {
  }
  return std::nullopt;
}

ManifestWriter::ManifestWriter(io::IoBackend& io, const std::string& path,
                               uint64_t numRanks, bool resume)
    : log_(io, path, kManifestFormat,
           std::array<uint64_t, 2>{kManifestVersion, numRanks},
           resume,
           "pass --resume to continue the interrupted merge or remove its "
           "work directory to start fresh") {}

void ManifestWriter::appendBatch(const BatchRecord& b) {
  ByteWriter p;
  p.uv(b.batchIndex);
  p.uv(static_cast<uint64_t>(b.firstRank));
  p.uv(static_cast<uint64_t>(b.rankCount));
  p.str(b.file);
  p.uv(b.fileBytes);
  p.u32fixed(b.fileCrc);
  b.lostRanks.serialize(p);
  log_.append(kBatchSegment, p);
}

void ManifestWriter::appendFinal(const FinalRecord& f) {
  ByteWriter p;
  p.str(f.outPath);
  p.uv(f.bytes);
  p.u32fixed(f.crc);
  log_.append(kFinalSegment, p);
}

namespace {

ManifestRecovery readManifest(std::span<const uint8_t> data, bool strict) {
  ByteReader r(data);
  const std::vector<uint64_t> header =
      trace::readSegmentHeader(r, kManifestFormat);
  CYP_CHECK(header[0] == kManifestVersion,
            "manifest: unsupported format version "
                << header[0] << ", expected version " << kManifestVersion);
  ManifestRecovery out;
  out.numRanks = header[1];
  CYP_CHECK(out.numRanks >= 1 && out.numRanks <= (1u << 22),
            "manifest: implausible rank count " << out.numRanks);

  // Set when a CRC-valid batch breaks the rank tiling. Salvage stops
  // before such a segment like before a torn one, but no torn write
  // produces it, so it fails the recovery instead of being truncated.
  std::optional<std::string> badBatch;
  uint64_t nextRank = 0;
  auto visit = [&](uint8_t kind, std::span<const uint8_t> payload) {
    CYP_CHECK(!out.final.has_value(), "manifest: segment after FINAL");
    ByteReader p(payload);
    if (kind == kBatchSegment) {
      BatchRecord b;
      b.batchIndex = p.uv();
      const uint64_t firstRank = p.uv();
      const uint64_t rankCount = p.uv();
      b.file = p.str();
      b.fileBytes = p.uv();
      b.fileCrc = p.u32fixed();
      b.lostRanks = RankSet::deserialize(p);
      CYP_CHECK(p.atEnd(), "manifest: trailing bytes in batch segment");
      // Checked in u64 before the int casts: nextRank <= numRanks <= 2^22.
      if (b.batchIndex != out.batches.size() || firstRank != nextRank ||
          rankCount < 1 || rankCount > out.numRanks - nextRank) {
        std::ostringstream msg;
        msg << "manifest: batch " << b.batchIndex << " covers " << rankCount
            << " ranks from rank " << firstRank << "; batch "
            << out.batches.size() << " must cover at least one rank from rank "
            << nextRank << " below " << out.numRanks;
        badBatch = msg.str();
        throw Error(*badBatch);
      }
      nextRank += rankCount;
      b.firstRank = static_cast<int>(firstRank);
      b.rankCount = static_cast<int>(rankCount);
      out.batches.push_back(std::move(b));
    } else {
      FinalRecord f;
      f.outPath = p.str();
      f.bytes = p.uv();
      f.crc = p.u32fixed();
      CYP_CHECK(p.atEnd(), "manifest: trailing bytes in final segment");
      out.final = std::move(f);
    }
  };
  const trace::SegmentWalk walk = trace::walkSegments(
      r, kManifestFormat,
      strict ? trace::WalkMode::Strict : trace::WalkMode::Salvage, visit);
  if (badBatch) throw Error(*badBatch);
  out.segmentsRecovered = walk.segments;
  out.bytesDiscarded = walk.bytesDiscarded;
  return out;
}

}  // namespace

ManifestRecovery recoverManifest(std::span<const uint8_t> data) {
  return readManifest(data, /*strict=*/false);
}

ManifestRecovery parseManifest(std::span<const uint8_t> data) {
  return readManifest(data, /*strict=*/true);
}

std::optional<ManifestRecovery> recoverManifestFile(io::IoBackend& io,
                                                    const std::string& path) {
  std::optional<ManifestRecovery> rec;
  trace::recoverSegmentFile(io, path, kManifestFormat,
                            [&](std::span<const uint8_t> bytes) {
                              rec = recoverManifest(bytes);
                              return rec->bytesDiscarded;
                            });
  return rec;
}

}  // namespace cypress::core
