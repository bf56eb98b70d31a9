// Peak memory of `cyptrace replay`, read with wait4 from a forked
// cyptrace. SIM-MPI streams every rank's events off the compressed
// trace, keeps one flat channel table and O(1) state per live
// collective, so its peak follows the compressed size plus O(P)
// per-rank state: the contract is 16 MB + 2 KiB per rank, and the peak
// must not grow with the number of collective calls.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "child_process.hpp"

#ifndef CYPTRACE_BIN
#error "CYPTRACE_BIN must point at the cyptrace binary"
#endif

namespace cypress {
namespace {

namespace fs = std::filesystem;

std::string tempPath(const std::string& stem) {
  return (fs::temp_directory_path() /
          ("cyp-replay-rss." + std::to_string(getpid()) + "." + stem))
      .string();
}

/// Trace `args` with `cyptrace run` into `trace`, then replay it.
ChildRun runThenReplay(std::vector<std::string> args, const std::string& trace) {
  args.insert(args.begin(), "run");
  args.push_back("--out");
  args.push_back(trace);
  const ChildRun run = runChild(CYPTRACE_BIN, args);
  EXPECT_EQ(run.exitCode, 0) << run.stderrText;
  const ChildRun replay = runChild(CYPTRACE_BIN, {"replay", trace});
  fs::remove(trace);
  EXPECT_EQ(replay.exitCode, 0) << replay.stderrText;
  return replay;
}

TEST(ReplayMemory, PeakRssIsBasePlusPerRank) {
  // At P = 16384 the bound is 48 MB; the 911-byte trace expands to
  // 3.3M events (~260 MB materialized).
  constexpr uint64_t kProcs = 16384;
  const ChildRun replay =
      runThenReplay({"JACOBI", "--procs", std::to_string(kProcs),
                     "--threads", "4"},
                    tempPath("jacobi.cyp"));
  EXPECT_NE(replay.stdoutText.find("on 16384 ranks"), std::string::npos)
      << replay.stdoutText;
  const uint64_t boundKiB = 16 * 1024 + 2 * kProcs;
  EXPECT_LT(replay.maxRssKiB, boundKiB)
      << "replay peak RSS " << replay.maxRssKiB << " KiB at P=" << kProcs;
}

/// Peak RSS of `cyptrace replay` on a loop of `iters` allreduces at P=256.
uint64_t allreduceLoopReplayRssKiB(int iters) {
  const std::string src = tempPath(std::to_string(iters) + ".mc");
  std::ofstream(src) << "func main() {\n"
                     << "  for (var k = 0; k < " << iters
                     << "; k = k + 1) {\n"
                     << "    compute(1000);\n"
                     << "    mpi_allreduce(8);\n"
                     << "  }\n"
                     << "}\n";
  const ChildRun replay = runThenReplay(
      {src, "--procs", "256"}, tempPath(std::to_string(iters) + ".cyp"));
  fs::remove(src);
  return replay.maxRssKiB;
}

TEST(ReplayMemory, CollectiveStateDoesNotGrowWithCalls) {
  // A P-sized arrival vector per collective instance, kept for the
  // whole replay, would add 2 KiB per call at P=256: over 36 MB for
  // 18000 more calls.
  const uint64_t small = allreduceLoopReplayRssKiB(2000);
  const uint64_t large = allreduceLoopReplayRssKiB(20000);
  EXPECT_LT(large, small + 4 * 1024)
      << "replay peak RSS " << large << " KiB for 20000 allreduces vs "
      << small << " KiB for 2000";
}

}  // namespace
}  // namespace cypress
