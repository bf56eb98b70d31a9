// Tests for the compressed-trace differ: identical traces, iteration
// count drift, message size drift, rank regrouping, structural
// (different-program) mismatch, and one change among per-rank entries.
#include "cypress/diff.hpp"

#include <gtest/gtest.h>

#include "driver/pipeline.hpp"
#include "workloads/workloads.hpp"

namespace cypress::core {
namespace {

// The merged tree points into the run's CST, so runs are kept alive at
// stable addresses.
MergedCtt traceOf(const std::string& src, int procs,
                  std::vector<std::unique_ptr<driver::RunOutput>>* keepAlive) {
  driver::Options opts;
  opts.procs = procs;
  opts.withScala = false;
  opts.withScala2 = false;
  opts.engine.jitter = 0.0;  // identical runs produce identical payloads
  keepAlive->push_back(
      std::make_unique<driver::RunOutput>(driver::runSource("diff", src, opts)));
  return mergeCypress(*keepAlive->back());
}

const char* kBase = R"(
  func main() {
    for (var i = 0; i < 10; i = i + 1) {
      if (rank < size - 1) { mpi_send(rank + 1, 512, 0); }
      if (rank > 0)        { mpi_recv(rank - 1, 512, 0); }
      mpi_allreduce(8);
    }
  })";

TEST(TraceDiff, IdenticalRunsAreIdentical) {
  std::vector<std::unique_ptr<driver::RunOutput>> keep;
  MergedCtt a = traceOf(kBase, 6, &keep);
  MergedCtt b = traceOf(kBase, 6, &keep);
  TraceDiff d = diffTraces(a, b);
  EXPECT_TRUE(d.identical()) << d.toString();
}

TEST(TraceDiff, IterationCountChangeLocalizedToLoop) {
  std::vector<std::unique_ptr<driver::RunOutput>> keep;
  MergedCtt a = traceOf(kBase, 6, &keep);
  std::string more = kBase;
  more.replace(more.find("i < 10"), 6, "i < 20");
  MergedCtt b = traceOf(more, 6, &keep);
  TraceDiff d = diffTraces(a, b);
  EXPECT_TRUE(d.sameStructure);
  EXPECT_FALSE(d.identical());
  bool loopDiff = false;
  for (const auto& e : d.entries)
    if (e.what.find("loop counts") != std::string::npos) loopDiff = true;
  EXPECT_TRUE(loopDiff) << d.toString();
}

TEST(TraceDiff, MessageSizeChangeLocalizedToLeaf) {
  std::vector<std::unique_ptr<driver::RunOutput>> keep;
  MergedCtt a = traceOf(kBase, 6, &keep);
  std::string bigger = kBase;
  bigger.replace(bigger.find("512"), 3, "999");
  bigger.replace(bigger.find("512"), 3, "999");
  MergedCtt b = traceOf(bigger, 6, &keep);
  TraceDiff d = diffTraces(a, b);
  EXPECT_TRUE(d.sameStructure);
  bool recordDiff = false;
  for (const auto& e : d.entries)
    if (e.what.find("record") != std::string::npos) recordDiff = true;
  EXPECT_TRUE(recordDiff) << d.toString();
}

TEST(TraceDiff, DifferentProcessCountRegroupsRanks) {
  std::vector<std::unique_ptr<driver::RunOutput>> keep;
  MergedCtt a = traceOf(kBase, 6, &keep);
  MergedCtt b = traceOf(kBase, 12, &keep);
  TraceDiff d = diffTraces(a, b);
  EXPECT_TRUE(d.sameStructure);  // same program
  EXPECT_FALSE(d.identical());
}

TEST(TraceDiff, DifferentProgramsStopAtStructure) {
  std::vector<std::unique_ptr<driver::RunOutput>> keep;
  MergedCtt a = traceOf(kBase, 4, &keep);
  MergedCtt b = traceOf("func main() { mpi_barrier(); }", 4, &keep);
  TraceDiff d = diffTraces(a, b);
  EXPECT_FALSE(d.sameStructure);
  EXPECT_NE(d.toString().find("structure"), std::string::npos);
}

TEST(TraceDiff, OneRankChangeAmongPerRankEntries) {
  // DT's receives have a distinct relative peer on every rank, so its
  // leaf entries are per rank: a P=256 trace holds hundreds of entries
  // per vertex, paired by lowest rank. Rank 77 posts a one-byte-larger
  // receive, and that record is the one difference reported.
  std::vector<std::unique_ptr<driver::RunOutput>> keep;
  const std::string src = workloads::get("DT").source(256, 1);
  std::string changed = src;
  const std::string recv = "mpi_recv(left, 2000000, 0)";
  ASSERT_NE(changed.find(recv), std::string::npos);
  changed.replace(changed.find(recv), recv.size(),
                  "mpi_recv(left, 2000000 + (rank == 77), 0)");
  MergedCtt a = traceOf(src, 256, &keep);
  MergedCtt b = traceOf(changed, 256, &keep);
  TraceDiff d = diffTraces(a, b);
  ASSERT_TRUE(d.sameStructure);
  ASSERT_EQ(d.entries.size(), 1u) << d.toString();
  EXPECT_EQ(d.entries[0].what,
            "record 0 for ranks {77} changed: MPI_Recv x1 bytes=2000000 tag=0 -> "
            "MPI_Recv x1 bytes=2000001 tag=0");
  EXPECT_TRUE(diffTraces(b, b).identical());
}

}  // namespace
}  // namespace cypress::core
