// Segment-log unit tests: the one frame, walk, durable writer and file
// recovery every crash-consistent format (CYJ1, CYL1, CYM1)
// builds on. A synthetic log is cut at every byte and flipped at every
// byte in both walk modes; a torn header at every prefix length must
// be truncated to empty; foreign files and unresumed overwrites are
// refused.
#include "trace/segment_log.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "support/error.hpp"

namespace cypress::trace {
namespace {

namespace fs = std::filesystem;

constexpr SegmentLogFormat kFormat{"test", "CYT9", 2, 2};
constexpr uint64_t kHeader[] = {7, 300};

std::string freshDir(const std::string& name) {
  const fs::path d = fs::temp_directory_path() / name;
  fs::remove_all(d);
  fs::create_directories(d);
  return d.string();
}

std::vector<uint8_t> fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void writeBytes(const std::string& path, std::span<const uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

struct Segment {
  uint8_t kind;
  std::vector<uint8_t> payload;
  bool operator==(const Segment&) const = default;
};

/// Segments of every kind, including an empty payload and one long
/// enough for a two-byte length varint.
std::vector<Segment> sampleSegments() {
  std::vector<Segment> out;
  out.push_back({0, {1, 2, 3}});
  out.push_back({1, {}});
  std::vector<uint8_t> big(200);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint8_t>(i * 7);
  out.push_back({2, big});
  out.push_back({0, {42}});
  return out;
}

struct SampleLog {
  std::vector<uint8_t> bytes;
  size_t headerBytes = 0;
  std::vector<size_t> ends;  ///< byte offset just past each segment
};

SampleLog sampleLog() {
  SampleLog log;
  ByteWriter w;
  writeSegmentHeader(w, kFormat, kHeader);
  log.headerBytes = w.size();
  for (const Segment& s : sampleSegments()) {
    frameSegment(w, s.kind, s.payload);
    log.ends.push_back(w.size());
  }
  log.bytes = w.take();
  return log;
}

/// Walk `bytes` (header included) collecting accepted segments.
SegmentWalk walk(std::span<const uint8_t> bytes, WalkMode mode,
                 std::vector<Segment>* seen = nullptr) {
  ByteReader r(bytes);
  EXPECT_EQ(readSegmentHeader(r, kFormat),
            (std::vector<uint64_t>{kHeader[0], kHeader[1]}));
  return walkSegments(r, kFormat, mode,
                      [&](uint8_t kind, std::span<const uint8_t> payload) {
                        if (seen)
                          seen->push_back(
                              {kind, {payload.begin(), payload.end()}});
                      });
}

/// Segments wholly inside a prefix of `len` bytes.
size_t completeSegments(const SampleLog& log, size_t len) {
  size_t k = 0;
  while (k < log.ends.size() && log.ends[k] <= len) ++k;
  return k;
}

TEST(SegmentLog, IntactLogWalksInBothModes) {
  const SampleLog log = sampleLog();
  for (WalkMode mode : {WalkMode::Strict, WalkMode::Salvage}) {
    std::vector<Segment> seen;
    const SegmentWalk w = walk(log.bytes, mode, &seen);
    EXPECT_EQ(w.segments, sampleSegments().size());
    EXPECT_EQ(w.bytesDiscarded, 0u);
    EXPECT_EQ(seen, sampleSegments());
  }
}

TEST(SegmentLog, CutAtEveryByte) {
  const SampleLog log = sampleLog();
  for (size_t len = 0; len < log.headerBytes; ++len) {
    ByteReader r(std::span<const uint8_t>(log.bytes.data(), len));
    EXPECT_THROW(readSegmentHeader(r, kFormat), Error) << "prefix " << len;
  }
  for (size_t len = log.headerBytes; len <= log.bytes.size(); ++len) {
    const std::span<const uint8_t> prefix(log.bytes.data(), len);
    const size_t k = completeSegments(log, len);
    const size_t boundary = k == 0 ? log.headerBytes : log.ends[k - 1];

    std::vector<Segment> seen;
    const SegmentWalk w = walk(prefix, WalkMode::Salvage, &seen);
    EXPECT_EQ(w.segments, k) << "prefix " << len;
    EXPECT_EQ(w.bytesDiscarded, len - boundary) << "prefix " << len;
    const std::vector<Segment> all = sampleSegments();
    EXPECT_EQ(seen, std::vector<Segment>(all.begin(), all.begin() + k));

    if (len == boundary)
      EXPECT_EQ(walk(prefix, WalkMode::Strict).segments, k) << "prefix " << len;
    else
      EXPECT_THROW(walk(prefix, WalkMode::Strict), Error) << "prefix " << len;
  }
}

TEST(SegmentLog, FlipAtEveryByte) {
  const SampleLog log = sampleLog();
  for (size_t pos = log.headerBytes; pos < log.bytes.size(); ++pos) {
    std::vector<uint8_t> bad = log.bytes;
    bad[pos] ^= 0xff;
    // The damaged segment itself fails (unknown kind, CRC mismatch or
    // a length running past the end); everything before it survives.
    const size_t k = completeSegments(log, pos);
    const size_t boundary = k == 0 ? log.headerBytes : log.ends[k - 1];
    const SegmentWalk w = walk(bad, WalkMode::Salvage);
    EXPECT_EQ(w.segments, k) << "flip @" << pos;
    EXPECT_EQ(w.bytesDiscarded, bad.size() - boundary) << "flip @" << pos;
    EXPECT_THROW(walk(bad, WalkMode::Strict), Error) << "flip @" << pos;
  }
  for (size_t pos = 0; pos < log.headerBytes; ++pos) {
    std::vector<uint8_t> bad = log.bytes;
    bad[pos] ^= 0xff;
    ByteReader r(bad);
    std::vector<uint64_t> fields;
    try {
      fields = readSegmentHeader(r, kFormat);
    } catch (const Error&) {
      continue;
    }
    // A flip inside a field varint still reads, but never as the
    // fields that were written.
    EXPECT_NE(fields, (std::vector<uint64_t>{kHeader[0], kHeader[1]}))
        << "flip @" << pos;
  }
}

TEST(SegmentLog, VisitorRejectionStopsTheWalk) {
  const SampleLog log = sampleLog();
  for (size_t reject = 0; reject < log.ends.size(); ++reject) {
    auto run = [&](WalkMode mode) {
      ByteReader r(log.bytes);
      readSegmentHeader(r, kFormat);
      size_t i = 0;
      return walkSegments(r, kFormat, mode,
                          [&](uint8_t, std::span<const uint8_t>) {
                            CYP_CHECK(i++ != reject, "rejected");
                          });
    };
    const SegmentWalk w = run(WalkMode::Salvage);
    const size_t boundary =
        reject == 0 ? log.headerBytes : log.ends[reject - 1];
    EXPECT_EQ(w.segments, reject);
    EXPECT_EQ(w.bytesDiscarded, log.bytes.size() - boundary);
    EXPECT_THROW(run(WalkMode::Strict), Error);
  }
}

TEST(SegmentLog, WriterCostsOneWriteAndOneSyncPerSegment) {
  const std::string dir = freshDir("cyp_seglog_writer");
  const std::string path = dir + "/log.bin";
  io::FaultyIoBackend io(io::realIo());
  {
    SegmentLogWriter w(io, path, kFormat, kHeader, /*resume=*/false, "hint");
    EXPECT_EQ(io.writesSeen(), 1u);
    EXPECT_EQ(io.syncsSeen(), 1u);
    for (const Segment& s : sampleSegments()) {
      ByteWriter p;
      p.raw(s.payload);
      w.append(s.kind, p);
    }
    EXPECT_EQ(w.segmentsWritten(), sampleSegments().size());
  }
  EXPECT_EQ(io.writesSeen(), 1 + sampleSegments().size());
  EXPECT_EQ(io.syncsSeen(), 1 + sampleSegments().size());
  EXPECT_EQ(fileBytes(path), sampleLog().bytes);
}

TEST(SegmentLog, WriterRefusesNonEmptyFileWithoutResume) {
  const std::string dir = freshDir("cyp_seglog_refuse");
  const std::string path = dir + "/log.bin";
  const SampleLog log = sampleLog();
  writeBytes(path, log.bytes);
  EXPECT_THROW(SegmentLogWriter(io::realIo(), path, kFormat, kHeader,
                                /*resume=*/false, "hint"),
               Error);
  EXPECT_EQ(fileBytes(path), log.bytes);
  {
    // Resuming appends after the existing bytes, without a new header.
    SegmentLogWriter w(io::realIo(), path, kFormat, kHeader, /*resume=*/true,
                       "hint");
    ByteWriter p;
    p.u8(9);
    w.append(1, p);
  }
  std::vector<Segment> seen;
  EXPECT_EQ(walk(fileBytes(path), WalkMode::Strict, &seen).segments,
            log.ends.size() + 1);
  EXPECT_EQ(seen.back(), (Segment{1, {9}}));

  // An empty file counts as fresh.
  writeBytes(path, {});
  { SegmentLogWriter w(io::realIo(), path, kFormat, kHeader, false, "hint"); }
  EXPECT_EQ(fileBytes(path),
            std::vector<uint8_t>(log.bytes.begin(),
                                 log.bytes.begin() + log.headerBytes));
}

size_t salvageAll(std::span<const uint8_t> bytes) {
  return walk(bytes, WalkMode::Salvage).bytesDiscarded;
}

TEST(SegmentLog, RecoverMissingOrEmptyFileHasNothingToResume) {
  const std::string dir = freshDir("cyp_seglog_missing");
  const std::string path = dir + "/log.bin";
  bool called = false;
  auto salvage = [&](std::span<const uint8_t>) {
    called = true;
    return size_t{0};
  };
  SegmentFileRecovery rec = recoverSegmentFile(io::realIo(), path, kFormat,
                                               salvage);
  EXPECT_FALSE(rec.resumable);
  EXPECT_EQ(rec.bytesDiscarded, 0u);
  EXPECT_FALSE(fs::exists(path));
  writeBytes(path, {});
  rec = recoverSegmentFile(io::realIo(), path, kFormat, salvage);
  EXPECT_FALSE(rec.resumable);
  EXPECT_FALSE(called);
}

TEST(SegmentLog, RecoverTruncatesTornHeaderAtEveryPrefixToEmpty) {
  const std::string dir = freshDir("cyp_seglog_torn_header");
  const std::string path = dir + "/log.bin";
  const SampleLog log = sampleLog();
  for (size_t len = 1; len < log.headerBytes; ++len) {
    writeBytes(path, std::span<const uint8_t>(log.bytes.data(), len));
    bool called = false;
    const SegmentFileRecovery rec = recoverSegmentFile(
        io::realIo(), path, kFormat, [&](std::span<const uint8_t>) {
          called = true;
          return size_t{0};
        });
    EXPECT_FALSE(rec.resumable) << "prefix " << len;
    EXPECT_FALSE(called) << "prefix " << len;
    EXPECT_EQ(rec.bytesDiscarded, len) << "prefix " << len;
    EXPECT_EQ(fs::file_size(path), 0u) << "prefix " << len;
  }
}

TEST(SegmentLog, RecoverTruncatesTornTailAtEveryByteAndResumes) {
  const std::string dir = freshDir("cyp_seglog_torn_tail");
  const std::string path = dir + "/log.bin";
  const SampleLog log = sampleLog();
  for (size_t len = log.headerBytes; len <= log.bytes.size(); ++len) {
    writeBytes(path, std::span<const uint8_t>(log.bytes.data(), len));
    const SegmentFileRecovery rec =
        recoverSegmentFile(io::realIo(), path, kFormat, salvageAll);
    const size_t k = completeSegments(log, len);
    const size_t boundary = k == 0 ? log.headerBytes : log.ends[k - 1];
    EXPECT_TRUE(rec.resumable) << "prefix " << len;
    EXPECT_EQ(rec.bytesDiscarded, len - boundary) << "prefix " << len;
    ASSERT_EQ(fs::file_size(path), boundary) << "prefix " << len;
    {
      SegmentLogWriter w(io::realIo(), path, kFormat, kHeader,
                         /*resume=*/true, "hint");
      ByteWriter p;
      p.u8(5);
      w.append(0, p);
    }
    EXPECT_EQ(walk(fileBytes(path), WalkMode::Strict).segments, k + 1)
        << "prefix " << len;
  }
}

TEST(SegmentLog, RecoverRefusesForeignFile) {
  const std::string dir = freshDir("cyp_seglog_foreign");
  const std::string path = dir + "/log.bin";
  const std::vector<uint8_t> junk = {'n', 'o', 'p', 'e', '!', '!'};
  writeBytes(path, junk);
  EXPECT_THROW(recoverSegmentFile(io::realIo(), path, kFormat, salvageAll),
               Error);
  EXPECT_EQ(fileBytes(path), junk);

  // Another format's complete header is foreign too, never "torn".
  constexpr SegmentLogFormat kOther{"other", "CYT8", 2, 2};
  ByteWriter w;
  writeSegmentHeader(w, kOther, kHeader);
  writeBytes(path, w.bytes());
  EXPECT_THROW(recoverSegmentFile(io::realIo(), path, kFormat, salvageAll),
               Error);
  EXPECT_EQ(fileBytes(path), w.bytes());
}

}  // namespace
}  // namespace cypress::trace
