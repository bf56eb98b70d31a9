// Peak memory of `cyptrace run`: the command keeps no raw event trace,
// the simulated MPI engine retires finished requests and collectives,
// and the merge evaluates its reduction tree depth-first, so the
// process's peak RSS follows the live per-rank recorder state instead
// of the number of events traced. Bounds, read with wait4 from a forked
// cyptrace: the contract is 16 MB + 4 KiB per rank, the peak must also
// stay below the memory the raw trace alone would need (events x
// sizeof(trace::Event)), and it must not grow with the number of
// collective calls.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "child_process.hpp"
#include "trace/event.hpp"

#ifndef CYPTRACE_BIN
#error "CYPTRACE_BIN must point at the cyptrace binary"
#endif

namespace cypress {
namespace {

namespace fs = std::filesystem;

TEST(RunMemory, PeakRssStaysBelowTheRawTraceSize) {
  // At P = 8192 the contract is 48 MB. Deep-copying every rank's CTT
  // before reducing, or a 608-byte record per run of events, each
  // breaks it on their own.
  constexpr uint64_t kProcs = 8192;
  const std::string out =
      (fs::temp_directory_path() /
       ("cyp-run-rss." + std::to_string(getpid()) + ".cyp"))
          .string();
  const ChildRun run =
      runChild(CYPTRACE_BIN, {"run", "JACOBI", "--procs",
                              std::to_string(kProcs), "--out", out});
  fs::remove(out);
  ASSERT_EQ(run.exitCode, 0) << run.stdoutText;

  const uint64_t boundKiB = 16 * 1024 + 4 * kProcs;
  EXPECT_LT(run.maxRssKiB, boundKiB)
      << "run peak RSS " << run.maxRssKiB << " KiB at P=" << kProcs;

  unsigned long long events = 0;
  ASSERT_EQ(std::sscanf(run.stdoutText.c_str(),
                        "traced JACOBI on 8192 ranks: %llu events", &events),
            1)
      << run.stdoutText;
  ASSERT_GT(events, 0u);
  const uint64_t rawBytes = events * sizeof(trace::Event);
  EXPECT_LT(run.maxRssKiB * 1024, rawBytes)
      << "peak RSS " << run.maxRssKiB << " KiB for " << events
      << " events (raw trace " << rawBytes / 1024 << " KiB)";
}

/// Peak RSS of `cyptrace run` on a loop of `iters` allreduces at P=256.
uint64_t allreduceLoopRunRssKiB(int iters) {
  const std::string base = (fs::temp_directory_path() /
                            ("cyp-run-coll." + std::to_string(getpid()) +
                             "." + std::to_string(iters)))
                               .string();
  std::ofstream(base + ".mc")
      << "func main() {\n"
      << "  for (var k = 0; k < " << iters << "; k = k + 1) {\n"
      << "    compute(1000);\n"
      << "    mpi_allreduce(8);\n"
      << "  }\n"
      << "}\n";
  const ChildRun run = runChild(
      CYPTRACE_BIN,
      {"run", base + ".mc", "--procs", "256", "--out", base + ".cyp"});
  fs::remove(base + ".mc");
  fs::remove(base + ".cyp");
  EXPECT_EQ(run.exitCode, 0) << run.stderrText;
  return run.maxRssKiB;
}

TEST(RunMemory, CollectiveSlotsAreRetired) {
  // A live collective instance is popped once every member has
  // completed it. Keeping retired instances, or giving each one a
  // P-sized arrival table as the engine once did (~6 KiB per call at
  // P=256), would grow with the call count: over 100 MB for 18000 more
  // calls.
  const uint64_t small = allreduceLoopRunRssKiB(2000);
  const uint64_t large = allreduceLoopRunRssKiB(20000);
  EXPECT_LT(large, small + 4 * 1024)
      << "run peak RSS " << large << " KiB for 20000 allreduces vs " << small
      << " KiB for 2000";
}

}  // namespace
}  // namespace cypress
