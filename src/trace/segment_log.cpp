#include "trace/segment_log.hpp"

#include <algorithm>

#include "flate/flate.hpp"
#include "support/error.hpp"

namespace cypress::trace {

namespace {

/// Longest LEB128 encoding of a uint64.
constexpr size_t kMaxVarintBytes = 10;

/// True when `bytes` is a strict prefix of some `str magic | uv...`
/// header of `f`: the magic bytes present match, and fewer than
/// `headerFields` complete varints follow them.
bool isTornHeader(std::span<const uint8_t> bytes, const SegmentLogFormat& f) {
  ByteWriter w;
  w.str(f.magic);
  const std::vector<uint8_t>& magic = w.bytes();
  const size_t n = std::min(bytes.size(), magic.size());
  if (!std::equal(bytes.begin(), bytes.begin() + n, magic.begin()))
    return false;
  size_t fields = 0;
  size_t varintLen = 0;
  for (size_t i = magic.size(); i < bytes.size(); ++i) {
    if (++varintLen > kMaxVarintBytes) return false;
    if ((bytes[i] & 0x80) == 0) {
      ++fields;
      varintLen = 0;
    }
  }
  return bytes.size() < magic.size() || fields < f.headerFields;
}

}  // namespace

void writeSegmentHeader(ByteWriter& w, const SegmentLogFormat& f,
                        std::span<const uint64_t> fields) {
  CYP_CHECK(fields.size() == f.headerFields,
            f.name << ": header takes " << f.headerFields << " fields");
  w.str(f.magic);
  for (uint64_t v : fields) w.uv(v);
}

std::vector<uint64_t> readSegmentHeader(ByteReader& r,
                                        const SegmentLogFormat& f) {
  CYP_CHECK(r.str() == f.magic, f.name << ": bad magic");
  std::vector<uint64_t> fields(f.headerFields);
  for (uint64_t& v : fields) v = r.uv();
  return fields;
}

void frameSegment(ByteWriter& w, uint8_t kind,
                  std::span<const uint8_t> payload) {
  w.u8(kind);
  w.uv(payload.size());
  w.u32fixed(flate::crc32(payload));
  w.raw(payload);
}

SegmentWalk walkSegments(ByteReader& r, const SegmentLogFormat& f,
                         WalkMode mode, const SegmentVisitor& visit) {
  SegmentWalk out;
  while (!r.atEnd()) {
    const size_t left = r.remaining();
    try {
      const uint8_t kind = r.u8();
      CYP_CHECK(kind <= f.maxKind,
                f.name << ": unknown segment kind " << int(kind));
      const uint64_t len = r.uv();
      const uint32_t crc = r.u32fixed();
      const std::span<const uint8_t> payload = r.raw(len);
      CYP_CHECK(flate::crc32(payload) == crc,
                f.name << ": segment CRC mismatch");
      visit(kind, payload);
      ++out.segments;
    } catch (const Error&) {
      if (mode == WalkMode::Strict) throw;
      // Torn or corrupt segment: everything before it is intact.
      out.bytesDiscarded = left;
      return out;
    }
  }
  return out;
}

SegmentLogWriter::SegmentLogWriter(io::IoBackend& io, const std::string& path,
                                   const SegmentLogFormat& f,
                                   std::span<const uint64_t> headerFields,
                                   bool resume, std::string_view resumeHint) {
  const bool fresh = !io.exists(path) || io.fileSize(path) == 0;
  CYP_CHECK(fresh || resume,
            f.name << ": " << path << " already exists; " << resumeHint);
  file_ = io.openWrite(path, /*append=*/true);
  if (fresh) {
    ByteWriter h;
    writeSegmentHeader(h, f, headerFields);
    file_->write(h.bytes());
    file_->sync();
  }
}

void SegmentLogWriter::append(uint8_t kind, const ByteWriter& payload) {
  ByteWriter w;
  frameSegment(w, kind, payload.bytes());
  file_->write(w.bytes());
  file_->sync();
  ++segments_;
}

SegmentFileRecovery recoverSegmentFile(
    io::IoBackend& io, const std::string& path, const SegmentLogFormat& f,
    const std::function<size_t(std::span<const uint8_t>)>& salvage) {
  SegmentFileRecovery out;
  if (!io.exists(path)) return out;
  const std::vector<uint8_t> bytes = io.readAll(path);
  if (bytes.empty()) return out;
  if (isTornHeader(bytes, f)) {
    // The process died writing the header of a fresh file: start over.
    io.truncate(path, 0);
    out.bytesDiscarded = bytes.size();
    return out;
  }
  out.bytesDiscarded = salvage(bytes);
  out.resumable = true;
  // Cut the torn tail so a resumed writer appends at a segment boundary
  // instead of behind garbage.
  if (out.bytesDiscarded > 0)
    io.truncate(path, bytes.size() - out.bytesDiscarded);
  return out;
}

}  // namespace cypress::trace
