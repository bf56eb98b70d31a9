// Peak memory of `cyptrace stats`, read with wait4 from a forked
// cyptrace. The command answers in the compressed domain, so its peak
// follows the compressed size plus O(P) per-rank rows: the contract is
// 32 MB + 4 KiB per rank, never in events or P^2.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "child_process.hpp"

#ifndef CYPTRACE_BIN
#error "CYPTRACE_BIN must point at the cyptrace binary"
#endif

namespace cypress {
namespace {

namespace fs = std::filesystem;

TEST(StatsMemory, PeakRssIsBasePlusPerRank) {
  // At P = 4096 the bound is 48 MB; a dense P x P byte-count matrix
  // alone would be 128 MB, and the expanded trace larger still.
  constexpr uint64_t kProcs = 4096;
  const std::string trace =
      (fs::temp_directory_path() /
       ("cyp-stats-rss." + std::to_string(getpid()) + ".cyp"))
          .string();
  const ChildRun run =
      runChild(CYPTRACE_BIN, {"run", "JACOBI", "--procs",
                              std::to_string(kProcs), "--out", trace});
  ASSERT_EQ(run.exitCode, 0) << run.stderrText;
  const ChildRun stats = runChild(CYPTRACE_BIN, {"stats", trace});
  fs::remove(trace);
  ASSERT_EQ(stats.exitCode, 0) << stats.stderrText;
  EXPECT_NE(stats.stdoutText.find("(4096 ranks, "), std::string::npos)
      << stats.stdoutText;
  const uint64_t boundKiB = 32 * 1024 + 4 * kProcs;
  EXPECT_LT(stats.maxRssKiB, boundKiB)
      << "stats peak RSS " << stats.maxRssKiB << " KiB at P=" << kProcs;
}

}  // namespace
}  // namespace cypress
