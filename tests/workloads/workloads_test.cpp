// Workload integration tests: every NPB skeleton compiles, runs on the
// simulated MPI at a small process count, traces losslessly through the
// full CYPRESS pipeline, and exhibits its characteristic pattern.
#include <gtest/gtest.h>

#include "cypress/decompress.hpp"
#include "driver/pipeline.hpp"
#include "scalatrace/inter.hpp"
#include "trace/matrix.hpp"
#include "workloads/workloads.hpp"

namespace cypress::driver {
namespace {

std::vector<trace::Event> contentOnly(std::vector<trace::Event> ev) {
  for (auto& e : ev) {
    e.computeNs = 0;
    e.durationNs = 0;
  }
  return ev;
}

/// Smallest paper-adjacent process count each workload supports in tests.
int testProcs(const std::string& name) {
  if (name == "BT" || name == "SP") return 16;  // 4x4 grid
  if (name == "LESLIE3D") return 8;
  if (name == "DT") return 12;
  return 16;
}

class WorkloadSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSuite, RunsAndCypressRoundTripsLosslessly) {
  Options opts;
  opts.procs = testProcs(GetParam());
  opts.scale = 1;
  opts.withScala = false;
  opts.withScala2 = false;
  RunOutput run = runWorkload(GetParam(), opts);

  EXPECT_GT(run.raw.totalEvents(), 0u);
  core::MergedCtt merged = mergeCypress(run);
  for (int r = 0; r < opts.procs; ++r) {
    auto got = contentOnly(core::decompressRank(merged, r));
    auto want = contentOnly(run.raw.ranks[static_cast<size_t>(r)].events);
    ASSERT_EQ(got.size(), want.size()) << GetParam() << " rank " << r;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << GetParam() << " rank " << r << " event " << i << "\n got "
          << got[i].toString() << "\nwant " << want[i].toString();
    }
  }
}

TEST_P(WorkloadSuite, ScalaTraceRoundTripsLosslessly) {
  Options opts;
  opts.procs = testProcs(GetParam());
  opts.withCypress = false;
  opts.withScala2 = false;
  RunOutput run = runWorkload(GetParam(), opts);

  std::vector<const std::vector<scalatrace::Element>*> seqs;
  for (const auto& r : run.scala) seqs.push_back(&r->sequence());
  auto merged = scalatrace::mergeSequences(seqs, scalatrace::Flavor::V1);
  for (int r = 0; r < opts.procs; ++r) {
    EXPECT_EQ(contentOnly(scalatrace::decompressRank(merged, r)),
              contentOnly(run.raw.ranks[static_cast<size_t>(r)].events))
        << GetParam() << " rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSuite,
                         ::testing::Values("BT", "CG", "DT", "EP", "FT", "LU",
                                           "MG", "SP", "JACOBI", "LESLIE3D",
                                           "SMG2000", "IS"),
                         [](const auto& info) { return info.param; });

TEST(Workloads, CstShapesAreStable) {
  // Golden structural counts per workload: catches accidental changes to
  // skeleton structure or the CST builder. Update deliberately when a
  // skeleton changes.
  struct Golden {
    const char* name;
    int procs;
    int loops, branches, comms;
  };
  const Golden goldens[] = {
      {"BT", 16, 1, 12, 22},     {"CG", 16, 5, 1, 8},
      {"DT", 12, 0, 3, 4},       {"EP", 16, 0, 0, 3},
      {"FT", 16, 1, 0, 2},       {"LU", 16, 3, 9, 9},
      {"MG", 16, 3, 26, 25},     {"SP", 16, 1, 6, 16},
      {"JACOBI", 8, 1, 4, 4},    {"LESLIE3D", 8, 1, 13, 14},
  };
  for (const Golden& g : goldens) {
    Options opts;
    opts.procs = g.procs;
    opts.withRaw = false;
    opts.withScala = false;
    opts.withScala2 = false;
    opts.withCypress = false;
    RunOutput run = runWorkload(g.name, opts);
    EXPECT_EQ(run.compileStats.numLoops, g.loops) << g.name;
    EXPECT_EQ(run.compileStats.numBranches, g.branches) << g.name;
    EXPECT_EQ(run.compileStats.numCommVertices, g.comms) << g.name;
  }
}

TEST(Workloads, RegistryIsComplete) {
  auto names = workloads::allNames();
  EXPECT_EQ(names.size(), 12u);
  for (const auto& n : workloads::npbNames())
    EXPECT_NO_THROW(workloads::get(n));
  EXPECT_THROW(workloads::get("NOPE"), Error);
}

TEST(Workloads, ProcessCountValidation) {
  EXPECT_TRUE(workloads::get("BT").supportsProcs(121));
  EXPECT_FALSE(workloads::get("BT").supportsProcs(120));
  EXPECT_TRUE(workloads::get("CG").supportsProcs(128));
  EXPECT_FALSE(workloads::get("CG").supportsProcs(96));
  Options opts;
  opts.procs = 15;
  EXPECT_THROW(runWorkload("BT", opts), Error);
}

TEST(Workloads, EpHasTinyTrace) {
  Options opts;
  opts.procs = 16;
  opts.withScala = false;
  opts.withScala2 = false;
  RunOutput run = runWorkload("EP", opts);
  EXPECT_LE(run.raw.ranks[0].events.size(), 4u);
}

TEST(Workloads, LuHasManySmallMessages) {
  Options opts;
  opts.procs = 16;
  opts.withScala = false;
  opts.withScala2 = false;
  RunOutput run = runWorkload("LU", opts);
  // Interior ranks send/recv hundreds of small messages.
  size_t maxEvents = 0;
  for (const auto& r : run.raw.ranks) maxEvents = std::max(maxEvents, r.events.size());
  EXPECT_GT(maxEvents, 500u);
}

TEST(Workloads, SpVariedSizesDefeatLastRecordMatching) {
  Options opts;
  opts.procs = 16;
  opts.withScala = false;
  opts.withScala2 = false;
  RunOutput runSp = runWorkload("SP", opts);
  RunOutput runBt = runWorkload("BT", opts);
  // SP's per-iteration varying sizes force many more CYPRESS records
  // than BT's constant sizes.
  EXPECT_GT(runSp.cypress[5]->ctt().compressedItems(),
            4 * runBt.cypress[5]->ctt().compressedItems());
}

TEST(Workloads, MgRanksDiverge) {
  Options opts;
  opts.procs = 16;
  opts.withScala = false;
  opts.withScala2 = false;
  RunOutput run = runWorkload("MG", opts);
  // Coarse levels exclude some ranks: event counts differ across ranks.
  std::set<size_t> counts;
  for (const auto& r : run.raw.ranks) counts.insert(r.events.size());
  EXPECT_GT(counts.size(), 1u);
}

TEST(Workloads, LeslieHasExactlyTwoHaloSizes) {
  Options opts;
  opts.procs = 8;
  opts.withScala = false;
  opts.withScala2 = false;
  RunOutput run = runWorkload("LESLIE3D", opts);
  std::set<int64_t> sizes;
  for (const auto& r : run.raw.ranks)
    for (const auto& e : r.events)
      if (e.op == ir::MpiOp::Isend) sizes.insert(e.bytes);
  EXPECT_EQ(sizes, (std::set<int64_t>{44032, 84992}));
}

TEST(Workloads, LeslieCommLocality) {
  Options opts;
  opts.procs = 32;
  opts.withScala = false;
  opts.withScala2 = false;
  RunOutput run = runWorkload("LESLIE3D", opts);
  auto m = trace::commMatrix(run.raw);
  // The paper: at 32 processes, rank 0 talks exactly to 1, 2 and 8.
  std::set<int> peers;
  for (size_t j = 0; j < m[0].size(); ++j)
    if (m[0][j] > 0) peers.insert(static_cast<int>(j));
  EXPECT_EQ(peers, (std::set<int>{1, 2, 8}));
}

TEST(Workloads, CommMatrixRenderable) {
  Options opts;
  opts.procs = 16;
  opts.withScala = false;
  opts.withScala2 = false;
  RunOutput run = runWorkload("MG", opts);
  auto m = trace::commMatrix(run.raw);
  std::string art = trace::renderMatrix(m, 16);
  EXPECT_FALSE(art.empty());
  EXPECT_NE(art.find('\n'), std::string::npos);
}

TEST(Driver, SizeReportOrdersToolsOnRegularCode) {
  Options opts;
  opts.procs = 16;
  RunOutput run = runWorkload("LU", opts);
  SizeReport rep = computeSizes(run);
  EXPECT_GT(rep.rawBytes, 0u);
  EXPECT_LT(rep.gzipBytes, rep.rawBytes);
  // Structured compressors beat the byte-stream codec by a lot on LU.
  EXPECT_LT(rep.cypressBytes, rep.gzipBytes / 4);
  EXPECT_LT(rep.scalaBytes, rep.gzipBytes);
  EXPECT_GT(rep.cypressInterSeconds, 0.0);
}

TEST(Driver, CompileStatsPopulated) {
  Options opts;
  opts.procs = 16;
  opts.withRaw = false;
  opts.withScala = false;
  opts.withScala2 = false;
  RunOutput run = runWorkload("CG", opts);
  EXPECT_GT(run.compileStats.numNodes, 0);
  EXPECT_GT(run.compileStats.numLoops, 0);
  EXPECT_GT(run.compileStats.cstSeconds, 0.0);
}

TEST(Driver, RawlessRunVerifiesAndReportsNoRawBytes) {
  // withRaw=false records no raw trace at all: roundtrip verification
  // checks what was recorded instead of comparing against an empty raw
  // trace, and the size report has no raw or gzip bytes to show.
  Options opts;
  opts.procs = 8;
  opts.withRaw = false;
  RunOutput run = runWorkload("CG", opts);
  EXPECT_TRUE(run.raw.ranks.empty());
  EXPECT_GT(run.runStats.totalEvents, 0u);
  EXPECT_TRUE(verifyRun(run).ok());
  const SizeReport rep = computeSizes(run);
  EXPECT_EQ(rep.rawBytes, 0u);
  EXPECT_EQ(rep.gzipBytes, 0u);
  EXPECT_GT(rep.cypressBytes, 0u);
}

TEST(Driver, MeteringIsOptIn) {
  Options opts;
  opts.procs = 8;
  opts.withRaw = false;
  RunOutput off = runWorkload("CG", opts);
  EXPECT_EQ(off.cypressIntraSeconds(), 0.0);
  EXPECT_EQ(off.scalaIntraSeconds(), 0.0);
  EXPECT_EQ(off.scala2IntraSeconds(), 0.0);
  opts.meterHooks = true;
  RunOutput on = runWorkload("CG", opts);
  EXPECT_GT(on.cypressIntraSeconds(), 0.0);
  EXPECT_GT(on.scalaIntraSeconds(), 0.0);
  EXPECT_GT(on.scala2IntraSeconds(), 0.0);
}

}  // namespace
}  // namespace cypress::driver
