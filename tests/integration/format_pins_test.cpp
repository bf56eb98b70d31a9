// Byte pins for the three segment-log formats (CYJ1, CYL1, CYM1) and
// for the CYF1 compressed container.
//
// Each segment-log sample below is built deterministically and compared
// against a golden file committed under tests/data/pins/. The goldens
// were captured from the writers as they stood before the shared
// segment-log module existed (manifest.cym was re-captured when CYM1
// went to version 2), so any change to the frame, the headers or a
// payload encoding shows up here as a byte diff. The readers must
// also parse the pinned bytes back into the values that produced them.
//
// CYF1 is pinned by (container size, crc32 of the container) per
// seeded input, captured from the codec as it stood while flate::compress
// and the streaming compressor were still two separate writers, so the
// pin holds the one encoder to those bytes at every thread count and
// append granularity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cypress/manifest.hpp"
#include "flate/flate.hpp"
#include "flate/stream.hpp"
#include "service/ledger.hpp"
#include "support/bytebuf.hpp"
#include "support/io.hpp"
#include "support/rng.hpp"
#include "trace/journal.hpp"

namespace cypress {
namespace {

namespace fs = std::filesystem;

std::vector<uint8_t> fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

std::string freshDir(const std::string& name) {
  const fs::path d = fs::temp_directory_path() / name;
  fs::remove_all(d);
  fs::create_directories(d);
  return d.string();
}

std::vector<uint8_t> golden(const std::string& name) {
  const std::string path = std::string(CYP_PINS_DIR) + "/" + name;
  EXPECT_TRUE(fs::exists(path)) << path;
  return fileBytes(path);
}

trace::Event pinEvent(int k) {
  trace::Event e;
  e.op = k % 2 == 0 ? ir::MpiOp::Send : ir::MpiOp::Irecv;
  e.peer = k % 3;
  e.bytes = 64 << k;
  e.tag = k;
  e.callSiteId = 10 + k;
  e.reqId = k % 2 == 0 ? -1 : k;
  e.computeNs = 100 * static_cast<uint64_t>(k);
  e.durationNs = 7;
  return e;
}

/// CYJ1: EVENTS for both ranks, FINALIZE for rank 0, SEAL declaring
/// rank 1 lost.
std::vector<uint8_t> sampleJournal() {
  trace::JournalBuilder b(2);
  const std::vector<trace::Event> r0 = {pinEvent(0), pinEvent(1), pinEvent(2)};
  const std::vector<trace::Event> r1 = {pinEvent(3)};
  b.appendEvents(0, r0);
  b.appendEvents(1, r1);
  b.appendFinalize(0);
  RankSet lost;
  lost.insert(1);
  b.seal(lost);
  return b.bytes();
}

/// CYL1: two SUBMITs and a STATE lifecycle, written through the file
/// writer.
std::vector<uint8_t> sampleLedger(const std::string& dir) {
  const std::string path = dir + "/pin.cyl";
  {
    service::LedgerWriter w(path);
    service::JobSpec spec;
    spec.kind = service::JobKind::Run;
    spec.target = "JACOBI";
    spec.procs = 4;
    spec.faultSpecs = {"drop:1@3"};
    w.appendSubmit(1, 7, spec);
    spec.kind = service::JobKind::Query;
    spec.target = "out.cyp";
    spec.querySpec = "summary";
    w.appendSubmit(2, 8, spec);
    w.appendState(1, service::JobState::Running, 1, "attempt 1 of 3", "", "");
    w.appendState(1, service::JobState::Done, 1, "traced 96 events",
                  "job-1.cyp", "job-1.cyj");
    w.appendState(2, service::JobState::Failed, 2, "bad query", "", "");
  }
  return fileBytes(path);
}

/// CYM1 version 2: a BATCH, a degraded BATCH and the FINAL record.
std::vector<uint8_t> sampleManifest(const std::string& dir) {
  const std::string path = dir + "/pin.cym";
  {
    core::ManifestWriter w(io::realIo(), path, /*numRanks=*/6);
    core::BatchRecord b;
    b.batchIndex = 0;
    b.firstRank = 0;
    b.rankCount = 3;
    b.file = "b0.cysp";
    b.fileBytes = 4096;
    b.fileCrc = 0xdeadbeef;
    w.appendBatch(b);
    b.batchIndex = 1;
    b.firstRank = 3;
    b.file.clear();
    b.fileBytes = 0;
    b.fileCrc = 0;
    b.lostRanks.insert(3);
    b.lostRanks.insert(5);
    w.appendBatch(b);
    core::FinalRecord f;
    f.outPath = "out.cyp";
    f.bytes = 999;
    f.crc = 7;
    w.appendFinal(f);
  }
  return fileBytes(path);
}

TEST(FormatPins, JournalBytesAndParse) {
  const auto bytes = sampleJournal();
  EXPECT_EQ(bytes, golden("journal.cyj"));
  const auto rec = trace::parseJournal(golden("journal.cyj"));
  EXPECT_TRUE(rec.sealed);
  EXPECT_EQ(rec.segmentsRecovered, 4u);
  EXPECT_EQ(rec.finalizedRanks, (std::vector<int>{0}));
  EXPECT_TRUE(rec.lostRanks.contains(1));
  ASSERT_EQ(rec.trace.ranks.size(), 2u);
  EXPECT_EQ(rec.trace.ranks[0].events,
            (std::vector<trace::Event>{pinEvent(0), pinEvent(1), pinEvent(2)}));
  EXPECT_EQ(rec.trace.ranks[1].events,
            (std::vector<trace::Event>{pinEvent(3)}));
}

/// The daemon's journal sink: one write per chunk to a file the caller
/// owns. Before each write returns nothing may stay buffered in user
/// space — the bytes a killed process leaves are exactly those handed
/// off — so after every hand-off the file holds every chunk so far.
TEST(FormatPins, JournalDurableSinkWritesTheSameBytes) {
  const std::string dir = freshDir("cyp_pin_journal");
  const std::string path = dir + "/pin.cyj.partial";
  const std::unique_ptr<io::IoFile> file = io::realIo().openWrite(path);
  std::vector<uint8_t> handedOff;
  size_t handOffs = 0;
  {
    trace::JournalBuilder b(2, [&](std::span<const uint8_t> chunk) {
      file->write(chunk);
      handedOff.insert(handedOff.end(), chunk.begin(), chunk.end());
      ++handOffs;
      EXPECT_EQ(fileBytes(path), handedOff) << "after hand-off " << handOffs;
    });
    const std::vector<trace::Event> r0 = {pinEvent(0), pinEvent(1),
                                          pinEvent(2)};
    const std::vector<trace::Event> r1 = {pinEvent(3)};
    b.appendEvents(0, r0);
    b.appendEvents(1, r1);
    b.appendFinalize(0);
    RankSet lost;
    lost.insert(1);
    b.seal(lost);
    EXPECT_TRUE(b.bytes().empty()) << "a sink-backed builder keeps no bytes";
  }
  // The header and four segments, each handed off once; the one sync
  // comes after the seal.
  EXPECT_EQ(handOffs, 5u);
  file->sync();
  file->close();
  EXPECT_EQ(fileBytes(path), golden("journal.cyj"));
}

TEST(FormatPins, LedgerBytesAndParse) {
  const std::string dir = freshDir("cyp_pin_ledger");
  EXPECT_EQ(sampleLedger(dir), golden("ledger.cyl"));
  const auto rec = service::parseLedger(golden("ledger.cyl"));
  EXPECT_EQ(rec.segmentsRecovered, 5u);
  EXPECT_EQ(rec.maxJobId, 2u);
  ASSERT_EQ(rec.jobs.size(), 2u);
  EXPECT_EQ(rec.jobs[0].clientId, 7u);
  EXPECT_EQ(rec.jobs[0].spec.target, "JACOBI");
  EXPECT_EQ(rec.jobs[0].spec.faultSpecs,
            (std::vector<std::string>{"drop:1@3"}));
  EXPECT_EQ(rec.jobs[0].state, service::JobState::Done);
  EXPECT_EQ(rec.jobs[0].detail, "traced 96 events");
  EXPECT_EQ(rec.jobs[0].artifactPath, "job-1.cyp");
  EXPECT_EQ(rec.jobs[0].journalPath, "job-1.cyj");
  EXPECT_EQ(rec.jobs[1].spec.querySpec, "summary");
  EXPECT_EQ(rec.jobs[1].state, service::JobState::Failed);
  EXPECT_EQ(rec.jobs[1].attempt, 2u);
}

TEST(FormatPins, ManifestBytesAndParse) {
  const std::string dir = freshDir("cyp_pin_manifest");
  EXPECT_EQ(sampleManifest(dir), golden("manifest.cym"));
  const auto rec = core::parseManifest(golden("manifest.cym"));
  EXPECT_EQ(rec.segmentsRecovered, 3u);
  EXPECT_EQ(rec.numRanks, 6u);
  ASSERT_EQ(rec.batches.size(), 2u);
  EXPECT_EQ(rec.batches[0].file, "b0.cysp");
  EXPECT_EQ(rec.batches[0].fileCrc, 0xdeadbeefu);
  EXPECT_TRUE(rec.batches[1].file.empty());
  EXPECT_TRUE(rec.batches[1].lostRanks.contains(5));
  ASSERT_TRUE(rec.final.has_value());
  EXPECT_EQ(rec.final->outPath, "out.cyp");
  EXPECT_EQ(rec.final->bytes, 999u);
}

/// Seeded, compressible CYF1 input: trace-like text records with one
/// random byte in eight, so shards code as Huffman blocks.
std::vector<uint8_t> cyf1Input(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out;
  out.reserve(n);
  while (out.size() < n) {
    if (rng.below(8) == 0) {
      out.push_back(static_cast<uint8_t>(rng.below(256)));
      continue;
    }
    const std::string rec = "send peer=" + std::to_string(rng.below(64)) +
                            " bytes=" + std::to_string(64 << rng.below(8)) +
                            " tag=" + std::to_string(rng.below(4)) + "\n";
    out.insert(out.end(), rec.begin(), rec.end());
  }
  out.resize(n);
  return out;
}

struct Cyf1Pin {
  size_t size;
  flate::Level level;
  uint64_t containerBytes;
  uint32_t containerCrc;
};

constexpr Cyf1Pin kCyf1Pins[] = {
    {0, flate::Level::Fast, 9, 0xa38257cau},
    {0, flate::Level::Default, 9, 0xa38257cau},
    {1, flate::Level::Fast, 11, 0x1b96d5b7u},
    {1, flate::Level::Default, 11, 0x1b96d5b7u},
    {4096, flate::Level::Fast, 824, 0x6e07a704u},
    {4096, flate::Level::Default, 760, 0x5100b1fcu},
    {flate::kShardBytes, flate::Level::Fast, 34044, 0xa8511e43u},
    {flate::kShardBytes, flate::Level::Default, 27960, 0x6dc0542fu},
    {flate::kShardBytes + 1, flate::Level::Fast, 33909, 0x4f5ee186u},
    {flate::kShardBytes + 1, flate::Level::Default, 27878, 0xbe98ac3eu},
    {3 * flate::kShardBytes + 7, flate::Level::Fast, 102058, 0xa44806e2u},
    {3 * flate::kShardBytes + 7, flate::Level::Default, 83850, 0x1787039du},
    {9 * flate::kShardBytes + 5, flate::Level::Fast, 306308, 0xa2305455u},
    {9 * flate::kShardBytes + 5, flate::Level::Default, 251548, 0x89300932u},
};

std::string describe(const std::vector<uint8_t>& container) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%zu, 0x%08xu", container.size(),
                flate::crc32(container));
  return buf;
}

/// The same (size, crc) must come back from flate::compress at every
/// thread count and from the streaming compressor fed one byte at a
/// time or in 64 KiB appends. Ten shards at 2 threads fill more than
/// one window, so the producer sends windows while others are in
/// flight and waits for the oldest.
TEST(FormatPins, Cyf1ContainerBytes) {
  for (const Cyf1Pin& pin : kCyf1Pins) {
    const std::vector<uint8_t> data = cyf1Input(pin.size, pin.size + 1);
    const std::string where =
        "size " + std::to_string(pin.size) + " level " +
        std::to_string(static_cast<int>(pin.level)) + ": ";
    auto expectPinned = [&](const std::vector<uint8_t>& c,
                            const std::string& how) {
      EXPECT_EQ(c.size(), pin.containerBytes) << where << how << " got "
                                              << describe(c);
      EXPECT_EQ(flate::crc32(c), pin.containerCrc) << where << how << " got "
                                                   << describe(c);
    };
    for (int threads : {1, 2, 4, 8})
      expectPinned(flate::compress(data, pin.level, threads),
                   "compress threads " + std::to_string(threads));
    for (int threads : {1, 2, 4}) {
      for (size_t chunk : {size_t{1}, size_t{64 * 1024}}) {
        VectorSink sink;
        flate::StreamingCompressor sc(sink, pin.level, threads);
        const std::span<const uint8_t> in(data);
        for (size_t i = 0; i < in.size(); i += chunk)
          sc.append(in.subspan(i, std::min(chunk, in.size() - i)));
        sc.finish();
        expectPinned(sink.take(), "stream threads " + std::to_string(threads) +
                                      " chunk " + std::to_string(chunk));
      }
    }
  }
}

}  // namespace
}  // namespace cypress
