// The thread-count determinism contract of the whole pipeline: every
// artifact the driver produces — merged CYPC trees, per-rank CYPP trace
// files, flate containers, journals, size reports — must be
// byte-identical no matter how many threads the run stage's epoch
// scheduler or the post-run stages fan out on.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "driver/pipeline.hpp"
#include "flate/flate.hpp"

namespace cypress {
namespace {

namespace fs = std::filesystem;

/// The per-rank CYPP files driver::writeRankTraces writes for `run`
/// (shard compression on `threads` lanes), read back in rank order.
/// Each one must equal the reference flate::compress(ctt.serialize()).
std::vector<std::vector<uint8_t>> rankTraceFiles(const driver::RunOutput& run,
                                                 int threads) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("cyp-det-ranks." + std::to_string(getpid())))
          .string();
  fs::remove_all(dir);
  EXPECT_TRUE(driver::writeRankTraces(run, dir, nullptr, threads).empty());
  std::vector<std::vector<uint8_t>> files;
  for (size_t r = 0; r < run.cypress.size(); ++r) {
    char name[32];
    std::snprintf(name, sizeof name, "/rank-%05zu.cypp", r);
    files.push_back(io::realIo().readAll(dir + name));
    EXPECT_EQ(files.back(), flate::compress(run.cypress[r]->ctt().serialize()))
        << "rank " << r;
  }
  fs::remove_all(dir);
  return files;
}

driver::RunOutput runCg(int threads) {
  driver::Options opts;
  opts.procs = 32;
  opts.threads = threads;
  opts.withScala = false;  // keep the fixture fast; scala is untouched here
  return driver::runWorkload("CG", opts);
}

driver::Options runStageOptions(int threads) {
  driver::Options opts;
  opts.procs = 16;
  opts.threads = threads;
  opts.withJournal = true;
  opts.withScala = false;
  opts.withScala2 = false;
  return opts;
}

/// Every run-stage artifact of `got` (traced on `threads` threads) must
/// equal `ref`'s, byte for byte.
void expectSameRunArtifacts(const driver::RunOutput& ref,
                            const driver::RunOutput& got, int threads) {
  EXPECT_EQ(got.raw.serialize(), ref.raw.serialize());
  EXPECT_EQ(rankTraceFiles(got, threads), rankTraceFiles(ref, 1));
  EXPECT_EQ(driver::mergeCypress(got).serialize(),
            driver::mergeCypress(ref).serialize());
  ASSERT_NE(ref.journal, nullptr);
  ASSERT_NE(got.journal, nullptr);
  EXPECT_EQ(got.journal->bytes(), ref.journal->bytes());
  EXPECT_EQ(got.runStats.executionNs, ref.runStats.executionNs);
  EXPECT_EQ(got.runStats.totalInstructions, ref.runStats.totalInstructions);
}

TEST(PipelineDeterminism, RunStageByteIdenticalAcrossThreadCounts) {
  // The epoch scheduler must produce identical CYPP per-rank traces,
  // merged CYPC, raw stream, and journal at every thread count, across
  // point-to-point (CG), wavefront (LU), and collective-heavy (FT)
  // communication shapes.
  for (const char* name : {"CG", "LU", "FT"}) {
    SCOPED_TRACE(name);
    const driver::RunOutput ref =
        driver::runWorkload(name, runStageOptions(1));
    ASSERT_TRUE(ref.runStats.clean());
    for (int threads : {2, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const driver::RunOutput got =
          driver::runWorkload(name, runStageOptions(threads));
      expectSameRunArtifacts(ref, got, threads);
    }
  }
}

TEST(PipelineDeterminism, HookMeteringDoesNotChangeArtifacts) {
  // Opt-in hook metering only reads clocks around the hooks: the merged
  // CYPC and every per-rank CYPP must be byte-identical with it on and
  // off, at one and at several run threads.
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    driver::Options opts = runStageOptions(threads);
    opts.withRaw = false;
    const driver::RunOutput off = driver::runWorkload("LU", opts);
    opts.meterHooks = true;
    const driver::RunOutput on = driver::runWorkload("LU", opts);
    EXPECT_GT(on.cypressIntraSeconds(), 0.0);
    EXPECT_EQ(off.cypressIntraSeconds(), 0.0);
    const auto offFiles = rankTraceFiles(off, threads);
    ASSERT_FALSE(offFiles.empty());
    EXPECT_EQ(rankTraceFiles(on, threads), offFiles);
    EXPECT_EQ(driver::mergeCypress(on, nullptr, threads).serialize(),
              driver::mergeCypress(off, nullptr, threads).serialize());
  }
}

TEST(PipelineDeterminism, WildcardHeavyRunByteIdenticalAcrossThreadCounts) {
  // Master/worker with MPI_ANY_SOURCE: the match order of wildcard
  // receives is exactly the place where a racy scheduler would leak
  // thread-count into the trace, so hammer it — every worker's messages
  // race toward rank 0 and are matched by the deterministic
  // lowest-src/FIFO tiebreak in commit order.
  const std::string source = R"(
    func main() {
      if (rank == 0) {
        var total = (size - 1) * 4;
        for (var i = 0; i < total; i = i + 1) {
          mpi_recv(ANY_SOURCE, 64, 7);
        }
        for (var w = 1; w < size; w = w + 1) {
          mpi_send(w, 8, 9);
        }
      } else {
        for (var j = 0; j < 3; j = j + 1) {
          compute(1000 * rank + j * 37);
          mpi_send(0, 64, 7);
        }
        var r = mpi_isend(0, 64, 7);
        mpi_wait(r);
        mpi_recv(0, 8, 9);
      }
    })";
  const driver::RunOutput ref =
      driver::runSource("wildcard", source, runStageOptions(1));
  ASSERT_TRUE(ref.runStats.clean());
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const driver::RunOutput got =
        driver::runSource("wildcard", source, runStageOptions(threads));
    expectSameRunArtifacts(ref, got, threads);
  }
}

TEST(PipelineDeterminism, FullRunByteIdenticalAcrossThreadCounts) {
  const driver::RunOutput ref = runCg(1);
  const core::MergedCtt refMerged = driver::mergeCypress(ref, nullptr, 1);
  const auto refBytes = refMerged.serialize();
  ASSERT_FALSE(refBytes.empty());
  const auto refFiles = rankTraceFiles(ref, 1);
  ASSERT_EQ(refFiles.size(), 32u);
  for (const auto& f : refFiles) EXPECT_FALSE(f.empty());

  const driver::RunOutput par = runCg(8);
  const core::MergedCtt parMerged = driver::mergeCypress(par, nullptr, 8);
  EXPECT_EQ(parMerged.serialize(), refBytes);
  EXPECT_EQ(rankTraceFiles(par, 8), refFiles);
}

TEST(PipelineDeterminism, SizeReportIndependentOfThreadCount) {
  const driver::RunOutput run = runCg(1);
  const driver::SizeReport ref = driver::computeSizes(run, 1);
  EXPECT_GT(ref.rawBytes, 0u);
  EXPECT_GT(ref.cypressGzipBytes, 0u);
  for (int threads : {2, 4, 8}) {
    const driver::SizeReport got = driver::computeSizes(run, threads);
    EXPECT_EQ(got.rawBytes, ref.rawBytes) << threads;
    EXPECT_EQ(got.gzipBytes, ref.gzipBytes) << threads;
    EXPECT_EQ(got.scala2Bytes, ref.scala2Bytes) << threads;
    EXPECT_EQ(got.scala2GzipBytes, ref.scala2GzipBytes) << threads;
    EXPECT_EQ(got.cypressBytes, ref.cypressBytes) << threads;
    EXPECT_EQ(got.cypressGzipBytes, ref.cypressGzipBytes) << threads;
  }
}

TEST(PipelineDeterminism, FlateOverRealPayloadsIdenticalAcrossThreads) {
  // The raw CYTR stream of a real run is big enough to exercise the
  // framed multi-block path; the merged CYPC payload usually is not —
  // both must be stable, and decompress back exactly.
  const driver::RunOutput run = runCg(1);
  const auto rawBytes = run.raw.serialize();
  const auto cypBytes = driver::mergeCypress(run).serialize();
  for (const auto& payload : {rawBytes, cypBytes}) {
    const auto ref = flate::compress(payload, flate::Level::Default, 1);
    EXPECT_EQ(flate::decompress(ref), payload);
    for (int threads : {2, 4, 8}) {
      EXPECT_EQ(flate::compress(payload, flate::Level::Default, threads), ref)
          << "payload " << payload.size() << " threads " << threads;
      EXPECT_EQ(flate::decompress(ref, threads), payload)
          << "payload " << payload.size() << " threads " << threads;
    }
  }
}

TEST(PipelineDeterminism, VerifyRunPassesThreaded) {
  const driver::RunOutput run = runCg(8);
  const verify::Report rep = driver::verifyRun(run, 8);
  EXPECT_TRUE(rep.ok()) << rep.toString();
}

}  // namespace
}  // namespace cypress
