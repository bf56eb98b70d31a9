// SIM-MPI replay tests: LogGP timing, blocking semantics, collectives,
// and end-to-end performance prediction from decompressed CYPRESS traces
// (the paper's Fig. 14/21 workflow).
#include <gtest/gtest.h>

#include "cst/builder.hpp"
#include "cypress/ctt.hpp"
#include "cypress/decompress.hpp"
#include "cypress/merge.hpp"
#include "driver/pipeline.hpp"
#include "minic/compile.hpp"
#include "replay/simulator.hpp"
#include "simmpi/engine.hpp"
#include "support/io.hpp"
#include "trace/observer.hpp"
#include "vm/runner.hpp"
#include "workloads/workloads.hpp"

namespace cypress::replay {
namespace {

struct Traced {
  trace::RawTrace raw;
  vm::RunResult measured;
};

Traced runTraced(const std::string& src, int ranks, double jitter = 0.0) {
  Traced out;
  auto m = minic::compileProgram(src);
  simmpi::Engine::Config cfg;
  cfg.numRanks = ranks;
  cfg.jitter = jitter;
  simmpi::Engine engine(cfg);
  out.raw.ranks.resize(static_cast<size_t>(ranks));
  std::vector<std::unique_ptr<trace::RawRecorder>> raws;
  std::vector<trace::Observer*> obs;
  for (int r = 0; r < ranks; ++r) {
    out.raw.ranks[static_cast<size_t>(r)].rank = r;
    raws.push_back(std::make_unique<trace::RawRecorder>(
        out.raw.ranks[static_cast<size_t>(r)]));
    obs.push_back(raws.back().get());
  }
  out.measured =
      vm::run(*m, engine, obs, {.instructionLimitPerRank = 1ull << 27});
  return out;
}

TEST(Replay, SingleRankComputeOnly) {
  auto t = runTraced(R"(
    func main() {
      compute(1000000);
      mpi_barrier();
    })", 1);
  auto p = simulate(t.raw);
  EXPECT_GT(p.predictedNs, 1000000u);
  EXPECT_EQ(p.totalEvents, 1u);
}

TEST(Replay, SendRecvOrderingRespected) {
  auto t = runTraced(R"(
    func main() {
      if (rank == 0) { compute(5000000); mpi_send(1, 4096, 0); }
      if (rank == 1) { mpi_recv(0, 4096, 0); }
    })", 2);
  auto p = simulate(t.raw);
  // Rank 1 must wait for rank 0's compute before its recv completes.
  EXPECT_GT(p.rankClockNs[1], 5000000u);
  EXPECT_GT(p.rankCommNs[1], 4000000u);  // mostly wait time
}

TEST(Replay, NonBlockingOverlapsComputation) {
  // The irecv is posted before a long compute; the wait then finds the
  // message already there — communication should be (mostly) hidden.
  auto t = runTraced(R"(
    func main() {
      if (rank == 0) { mpi_send(1, 1024, 0); compute(3000000); }
      if (rank == 1) {
        var r = mpi_irecv(0, 1024, 0);
        compute(3000000);
        mpi_wait(r);
      }
    })", 2);
  auto p = simulate(t.raw);
  // Wait time should be small: the message arrived during compute.
  EXPECT_LT(p.rankCommNs[1], 1000000u);
}

TEST(Replay, CollectivesSynchronizeClocks) {
  auto t = runTraced(R"(
    func main() {
      if (rank == 0) { compute(2000000); }
      mpi_barrier();
      compute(1000);
    })", 4);
  auto p = simulate(t.raw);
  // All ranks end at nearly the same time (barrier synchronizes).
  uint64_t lo = p.rankClockNs[0], hi = p.rankClockNs[0];
  for (auto c : p.rankClockNs) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  EXPECT_LT(hi - lo, 100000u);
  EXPECT_GT(p.rankCommNs[3], 1500000u);  // waited on rank 0 in the barrier
}

TEST(Replay, WildcardRecvReplaysFromRecordedSource) {
  auto t = runTraced(R"(
    func main() {
      if (rank != 0) { compute(rank * 100000); mpi_send(0, 64, 1); }
      else {
        for (var i = 1; i < size; i = i + 1) { mpi_recv(ANY_SOURCE, 64, 1); }
      }
    })", 4);
  auto p = simulate(t.raw);
  EXPECT_GT(p.predictedNs, 300000u);  // bounded by the slowest sender
}

TEST(Replay, WaitallAndWaitany) {
  auto t = runTraced(R"(
    func main() {
      var a = mpi_isend((rank + 1) % size, 256, 0);
      var b = mpi_irecv((rank + size - 1) % size, 256, 0);
      mpi_waitall();
      var c = mpi_isend((rank + 1) % size, 128, 1);
      var d = mpi_irecv((rank + size - 1) % size, 128, 1);
      mpi_waitany();
      mpi_waitany();
    })", 3);
  auto p = simulate(t.raw);
  EXPECT_EQ(p.totalEvents, 3u * 7u);
}

TEST(Replay, MalformedTraceDeadlockDetected) {
  trace::RawTrace t;
  t.ranks.resize(2);
  trace::Event recv;
  recv.op = ir::MpiOp::Recv;
  recv.peer = 1;
  recv.bytes = 8;
  recv.tag = 0;
  t.ranks[0].events.push_back(recv);  // rank 1 never sends
  EXPECT_THROW(simulate(t), Error);
}

TEST(Replay, PredictionMatchesMeasuredWithinTolerance) {
  // The Fig. 21 workflow: measure with jitter on the engine, predict by
  // replaying the CYPRESS-decompressed trace with mean times.
  const char* src = R"(
    func main() {
      for (var k = 0; k < 30; k = k + 1) {
        compute(200000);
        if (rank < size - 1) { mpi_send(rank + 1, 8192, 0); }
        if (rank > 0)        { mpi_recv(rank - 1, 8192, 0); }
        mpi_allreduce(64);
      }
    })";
  auto m = minic::compileProgram(src);
  cst::StaticResult sr = cst::analyzeAndInstrument(*m);

  const int ranks = 8;
  simmpi::Engine::Config cfg;
  cfg.numRanks = ranks;
  cfg.jitter = 0.05;
  simmpi::Engine engine(cfg);
  std::vector<std::unique_ptr<core::CttRecorder>> recs;
  std::vector<trace::Observer*> obs;
  for (int r = 0; r < ranks; ++r) {
    recs.push_back(std::make_unique<core::CttRecorder>(sr.cst, r));
    obs.push_back(recs.back().get());
  }
  auto measured =
      vm::run(*m, engine, obs, {.instructionLimitPerRank = 1ull << 27});

  std::vector<const core::Ctt*> ctts;
  for (const auto& r : recs) ctts.push_back(&r->ctt());
  core::MergedCtt merged = core::mergeAll(ctts);
  trace::RawTrace decompressed = core::decompressAll(merged, ranks);

  auto p = simulate(decompressed);
  const double measuredS = static_cast<double>(measured.executionNs);
  const double predictedS = static_cast<double>(p.predictedNs);
  const double err = std::abs(predictedS - measuredS) / measuredS;
  EXPECT_LT(err, 0.15) << "measured " << measuredS << " predicted " << predictedS;
  EXPECT_GT(p.commPercent(), 0.0);
  EXPECT_LT(p.commPercent(), 100.0);
}

TEST(Replay, RecordedTimesModeMatchesMeasuredClosely) {
  // Timed replay sums the recorded per-event times; on a single rank it
  // reproduces the measured clock exactly (no network contention).
  auto t = runTraced(R"(
    func main() {
      compute(500000);
      mpi_barrier();
      compute(250000);
      mpi_barrier();
    })", 1);
  auto p = simulateRecordedTimes(t.raw);
  EXPECT_EQ(p.totalEvents, 2u);
  const double err =
      std::abs(static_cast<double>(p.predictedNs) -
               static_cast<double>(t.measured.executionNs)) /
      static_cast<double>(t.measured.executionNs);
  EXPECT_LT(err, 0.01);
}

TEST(Replay, RecordedTimesModeOnMultiRankTrace) {
  auto t = runTraced(R"(
    func main() {
      for (var i = 0; i < 8; i = i + 1) {
        compute(100000);
        if (rank < size - 1) { mpi_send(rank + 1, 1024, 0); }
        if (rank > 0)        { mpi_recv(rank - 1, 1024, 0); }
      }
    })", 4);
  auto timed = simulateRecordedTimes(t.raw);
  auto modeled = simulate(t.raw);
  EXPECT_EQ(timed.totalEvents, modeled.totalEvents);
  // Both within a factor of two of the measured run (timed replay keeps
  // recorded wait times; the model recomputes them).
  const double measured = static_cast<double>(t.measured.executionNs);
  EXPECT_LT(static_cast<double>(timed.predictedNs), measured * 2);
  EXPECT_GT(static_cast<double>(timed.predictedNs), measured / 2);
}

/// MergedCtt references the CST by pointer, so the holder keeps the
/// static result (and with it the tree) alive alongside the trace.
struct MergedTrace {
  std::shared_ptr<cst::StaticResult> sr;
  core::MergedCtt m;
};

MergedTrace mergeTraced(const std::string& src, int ranks) {
  auto m = minic::compileProgram(src);
  auto sr = std::make_shared<cst::StaticResult>(cst::analyzeAndInstrument(*m));
  simmpi::Engine::Config cfg;
  cfg.numRanks = ranks;
  simmpi::Engine engine(cfg);
  std::vector<std::unique_ptr<core::CttRecorder>> recs;
  std::vector<trace::Observer*> obs;
  for (int r = 0; r < ranks; ++r) {
    recs.push_back(std::make_unique<core::CttRecorder>(sr->cst, r));
    obs.push_back(recs.back().get());
  }
  vm::run(*m, engine, obs, {.instructionLimitPerRank = 1ull << 28});
  std::vector<const core::Ctt*> ctts;
  for (const auto& r : recs) ctts.push_back(&r->ctt());
  return MergedTrace{sr, core::mergeAll(ctts)};
}

void expectSamePrediction(const Prediction& got, const Prediction& want) {
  EXPECT_EQ(got.predictedNs, want.predictedNs);
  EXPECT_EQ(got.totalEvents, want.totalEvents);
  EXPECT_EQ(got.rankClockNs, want.rankClockNs);
  EXPECT_EQ(got.rankCommNs, want.rankCommNs);
}

TEST(Replay, WaitallCompletesSeveralWildcardReceives) {
  // Waitall events carry no matched sources, so replay resolves each
  // wildcard itself. Two wildcards in one Waitall must take the two
  // senders' messages, not both claim the lowest source's only one.
  const char* src = R"(
    func main() {
      if (rank == 0) {
        var a = mpi_irecv(ANY_SOURCE, 64, 1);
        var b = mpi_irecv(ANY_SOURCE, 64, 1);
        mpi_waitall();
      } else {
        mpi_send(0, 64, 1);
      }
    })";
  const Traced t = runTraced(src, 3);
  const Prediction raw = simulate(t.raw);
  EXPECT_EQ(raw.totalEvents, 5u);
  const MergedTrace merged = mergeTraced(src, 3);
  expectSamePrediction(simulate(merged.m), raw);
  expectSamePrediction(simulate(core::decompressAll(merged.m, 3)), raw);
}

TEST(CompressedReplay, PredictionIdenticalToDecompressedReplay) {
  // The compressed-domain source must feed SIM-MPI the exact event
  // stream decompressAll produces, so the predictions are equal to the
  // nanosecond, not merely close.
  const char* src = R"(
    func main() {
      for (var k = 0; k < 25; k = k + 1) {
        compute(150000);
        if (rank < size - 1) { mpi_send(rank + 1, 4096, 0); }
        if (rank > 0)        { mpi_recv(rank - 1, 4096, 0); }
        mpi_allreduce(64);
      }
    })";
  const MergedTrace t = mergeTraced(src, 6);
  const core::MergedCtt& merged = t.m;
  const trace::RawTrace expanded = core::decompressAll(merged, 6);
  expectSamePrediction(simulate(merged), simulate(expanded));

  const auto timedDirect = simulateRecordedTimes(merged);
  const auto timedExpanded = simulateRecordedTimes(expanded);
  EXPECT_EQ(timedDirect.totalEvents, timedExpanded.totalEvents);
  EXPECT_EQ(timedDirect.predictedNs, timedExpanded.predictedNs);
}

/// Smallest process count each built-in workload runs at in the
/// workload suite.
int smallestProcs(const std::string& name) {
  if (name == "LESLIE3D") return 8;
  if (name == "DT") return 12;
  return 16;
}

TEST(CompressedReplay, EveryWorkloadMatchesItsExpansion) {
  // The differential replay oracle: on every built-in workload and under
  // both network models, replaying the compressed trace gives the same
  // prediction, field by field, as replaying its full expansion.
  for (const std::string& name : workloads::allNames()) {
    SCOPED_TRACE(name);
    driver::Options opts;
    opts.procs = smallestProcs(name);
    opts.withRaw = false;
    opts.withScala = false;
    opts.withScala2 = false;
    const driver::RunOutput run = driver::runWorkload(name, opts);
    const core::MergedCtt merged = driver::mergeCypress(run);
    const trace::RawTrace expanded = core::decompressAll(merged, opts.procs);
    for (const simmpi::LogGP& net :
         {simmpi::LogGP::infiniband(), simmpi::LogGP::ethernet()}) {
      const Prediction direct = simulate(merged, net);
      EXPECT_GT(direct.totalEvents, 0u);
      expectSamePrediction(direct, simulate(expanded, net));
    }
  }
}

TEST(CompressedReplay, PartialTraceIsRejected) {
  // Replay needs every rank's stream; a trace with lost ranks must be
  // refused with a structured error, exactly as decompressAll refuses.
  MergedTrace t = mergeTraced(R"(
    func main() { mpi_barrier(); })", 4);
  EXPECT_NO_THROW(simulate(t.m));
  RankSet lost;
  lost.insert(4);
  t.m.markLost(lost);
  EXPECT_THROW(simulate(t.m), Error);
}

TEST(CompressedReplay, PeakRssStaysFarBelowTheMaterializedTrace) {
  // The reason the cursor path exists: replaying N events must not
  // allocate the N-event vector. The workload below expands to ~1.2M
  // events (~96 MB materialized); the compressed walk has to finish
  // within a quarter of that above its starting watermark.
  const char* src = R"(
    func main() {
      for (var k = 0; k < 50000; k = k + 1) {
        compute(1000);
        if (rank < size - 1) { mpi_send(rank + 1, 1024, 0); }
        if (rank > 0)        { mpi_recv(rank - 1, 1024, 0); }
      }
    })";
  const MergedTrace t = mergeTraced(src, 8);
  const core::MergedCtt& merged = t.m;
  const uint64_t before = io::peakRssBytes();
  const auto p = simulate(merged);
  const uint64_t after = io::peakRssBytes();
  ASSERT_GT(p.totalEvents, 500000u);
  const uint64_t materialized = p.totalEvents * sizeof(trace::Event);
  EXPECT_LT(after - before, materialized / 4)
      << "replay grew RSS by " << (after - before) << " bytes against a "
      << materialized << "-byte expansion";
}

}  // namespace
}  // namespace cypress::replay
