// The streaming-write contract: every artifact the pipeline can stream
// (per-rank CYPP, merged CYPC, raw CYTR) must be
// byte-identical to the materialize-then-write path it replaced, at
// every thread count — streaming is a memory optimization, never a
// format change.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "driver/pipeline.hpp"
#include "flate/flate.hpp"
#include "flate/stream.hpp"
#include "support/error.hpp"
#include "support/io.hpp"

namespace cypress {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / (name + "." + std::to_string(getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<uint8_t> fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

const driver::RunOutput& cgRun() {
  static const driver::RunOutput run = [] {
    driver::Options opts;
    opts.procs = 16;
    opts.withScala2 = false;
    return driver::runWorkload("CG", opts);
  }();
  return run;
}

/// Stream `producer.serializeTo` through a StreamingCompressor.
template <typename P>
std::vector<uint8_t> streamCompressed(const P& producer, int threads) {
  VectorSink sink;
  flate::StreamingCompressor sc(sink, flate::Level::Default, threads);
  ByteWriter w(sc);
  producer.serializeTo(w);
  w.flush();
  sc.finish();
  return sink.take();
}

/// Stream `producer.serializeTo` raw (uncompressed) through a sink.
template <typename P>
std::vector<uint8_t> streamRaw(const P& producer) {
  VectorSink sink;
  {
    ByteWriter w(sink);
    producer.serializeTo(w);
    w.flush();
  }
  return sink.take();
}

TEST(StreamingArtifacts, CyppStreamedEqualsMaterializedAtEveryThreadCount) {
  const driver::RunOutput& run = cgRun();
  ASSERT_EQ(run.cypress.size(), 16u);
  for (size_t r = 0; r < run.cypress.size(); ++r) {
    const auto materialized = flate::compress(run.cypress[r]->ctt().serialize());
    for (int threads : {1, 2, 4, 8}) {
      EXPECT_EQ(streamCompressed(run.cypress[r]->ctt(), threads), materialized)
          << "rank " << r << " threads " << threads;
    }
  }
}

TEST(StreamingArtifacts, CypcAndCytrStreamedEqualMaterialized) {
  const driver::RunOutput& run = cgRun();
  const core::MergedCtt merged = driver::mergeCypress(run);
  EXPECT_EQ(streamRaw(merged), merged.serialize());
  EXPECT_EQ(streamRaw(run.raw), run.raw.serialize());
  for (int threads : {1, 2, 4, 8}) {
    EXPECT_EQ(streamCompressed(run.raw, threads),
              flate::compress(run.raw.serialize()))
        << threads;
  }
}

TEST(StreamingArtifacts, SerializedBytesMatchesSerializeWithoutMaterializing) {
  const driver::RunOutput& run = cgRun();
  EXPECT_EQ(run.raw.serializedBytes(), run.raw.serialize().size());
}

TEST(StreamingArtifacts, WriteRankTracesStreamsFromRecorders) {
  const driver::RunOutput& run = cgRun();
  const std::string ref = freshDir("cyp-stream-ranks-ref");
  const std::string par = freshDir("cyp-stream-ranks-par");
  EXPECT_TRUE(driver::writeRankTraces(run, ref, nullptr, 1).empty());
  EXPECT_TRUE(driver::writeRankTraces(run, par, nullptr, 8).empty());
  for (size_t r = 0; r < run.cypress.size(); ++r) {
    char name[32];
    std::snprintf(name, sizeof name, "/rank-%05zu.cypp", r);
    const auto bytes = fileBytes(ref + name);
    // On-disk file == the materialized flate(serialize()) bytes, and
    // the shard-parallel writer changes nothing.
    EXPECT_EQ(bytes, flate::compress(run.cypress[r]->ctt().serialize())) << r;
    EXPECT_EQ(fileBytes(par + name), bytes) << r;
  }
  // The directory still opens and round-trips through the merge input.
  const driver::RankTraceDir dir = driver::openRankTraceDir(ref);
  ASSERT_EQ(dir.numRanks, 16);
  for (int r = 0; r < dir.numRanks; ++r) {
    const auto ctt = dir.load(r);
    ASSERT_TRUE(ctt.has_value()) << r;
    EXPECT_EQ(ctt->serialize(), run.cypress[r]->ctt().serialize()) << r;
  }
  fs::remove_all(ref);
  fs::remove_all(par);
}

TEST(StreamingArtifacts, WriteRankTracesRefusesARunWithoutCypress) {
  // Per-rank files stream only from CYPRESS recorders; a run traced
  // without them is refused before anything touches the disk.
  driver::Options opts;
  opts.procs = 4;
  opts.withRaw = false;
  opts.withCypress = false;
  opts.withScala2 = false;
  const driver::RunOutput run = driver::runWorkload("JACOBI", opts);
  const std::string dir =
      (fs::temp_directory_path() /
       ("cyp-stream-nocyp." + std::to_string(getpid())))
          .string();
  fs::remove_all(dir);
  EXPECT_THROW(driver::writeRankTraces(run, dir), Error);
  EXPECT_FALSE(fs::exists(dir));
}

TEST(StreamingArtifacts, AtomicWriterAsSinkCommitsExactStream) {
  const std::string dir = freshDir("cyp-stream-atomic");
  const driver::RunOutput& run = cgRun();
  const core::MergedCtt merged = driver::mergeCypress(run);
  const std::string path = dir + "/out.cyp";
  {
    io::AtomicFileWriter writer(io::realIo(), path);
    flate::Crc32Sink counted(&writer);
    ByteWriter w(counted);
    merged.serializeTo(w);
    w.flush();
    const auto want = merged.serialize();
    EXPECT_EQ(counted.bytes(), want.size());
    EXPECT_EQ(counted.crc(), flate::crc32(want));
    writer.commit();
  }
  EXPECT_EQ(fileBytes(path), merged.serialize());
  fs::remove_all(dir);
}

TEST(StreamingArtifacts, WriteTraceWritesTheSerializedBytes) {
  const std::string dir = freshDir("cyp-stream-writetrace");
  const core::MergedCtt merged = driver::mergeCypress(cgRun());
  const std::string path = dir + "/trace.cyp";
  const size_t written = driver::writeTrace(merged, path);
  EXPECT_EQ(fileBytes(path), merged.serialize());
  EXPECT_EQ(written, fs::file_size(path));
  fs::remove_all(dir);
}

TEST(StreamingArtifacts, WriteTraceDiskFullLeavesNothingUnderTheFinalName) {
  const std::string dir = freshDir("cyp-stream-writetrace-enospc");
  const core::MergedCtt merged = driver::mergeCypress(cgRun());
  const std::string path = dir + "/trace.cyp";
  io::FaultyIoBackend faulty(io::realIo(), {io::parseIoFaultSpec("enospc@1")});
  EXPECT_THROW(driver::writeTrace(merged, path, &faulty), io::IoError);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cypress
