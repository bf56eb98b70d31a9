// Peak memory of `cyptrace run`: the command keeps no raw event trace,
// and the simulated MPI engine retires finished requests, so the
// process's peak RSS follows the per-rank recorder state instead of
// the number of events traced. The bound is the memory the raw trace
// alone would need — events x sizeof(trace::Event) — which the peak
// must stay below.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
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
  const std::string out =
      (fs::temp_directory_path() /
       ("cyp-run-rss." + std::to_string(getpid()) + ".cyp"))
          .string();
  const ChildRun run = runChild(
      CYPTRACE_BIN, {"run", "JACOBI", "--procs", "4096", "--out", out});
  fs::remove(out);
  ASSERT_EQ(run.exitCode, 0) << run.stdoutText;

  unsigned long long events = 0;
  ASSERT_EQ(std::sscanf(run.stdoutText.c_str(),
                        "traced JACOBI on 4096 ranks: %llu events", &events),
            1)
      << run.stdoutText;
  ASSERT_GT(events, 0u);
  const uint64_t rawBytes = events * sizeof(trace::Event);
  EXPECT_LT(run.maxRssKiB * 1024, rawBytes)
      << "peak RSS " << run.maxRssKiB << " KiB for " << events
      << " events (raw trace " << rawBytes / 1024 << " KiB)";
}

}  // namespace
}  // namespace cypress
