// Smoke runs of the figure and example binaries: each must exit 0 and
// print the lines that carry its claim, so a figure that silently
// breaks (or stops matching its raw-trace check) fails CI instead of
// only failing to compile.
#include <gtest/gtest.h>

#include <string>

#include "child_process.hpp"

#if !defined(FIG17_BIN) || !defined(FIG20_BIN) || !defined(FIG21_BIN) || \
    !defined(PREDICT_BIN)
#error "FIG17_BIN, FIG20_BIN, FIG21_BIN and PREDICT_BIN must be defined"
#endif

namespace cypress {
namespace {

size_t occurrences(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size()))
    ++n;
  return n;
}

TEST(BenchSmoke, Fig17CommPatterns) {
  const ChildRun r = runChild(FIG17_BIN, {});
  EXPECT_EQ(r.exitCode, 0) << r.stderrText;
  EXPECT_NE(r.stdoutText.find("MG, 64 processes:"), std::string::npos);
  EXPECT_NE(r.stdoutText.find("SP, 64 processes:"), std::string::npos);
}

TEST(BenchSmoke, Fig20MatchesRawTraceAtBothScales) {
  const ChildRun r = runChild(FIG20_BIN, {});
  EXPECT_EQ(r.exitCode, 0) << r.stderrText;
  EXPECT_EQ(occurrences(r.stdoutText, "matches raw trace: yes"), 2u)
      << r.stdoutText;
  EXPECT_NE(r.stdoutText.find("rank 0 communicates with: 1 2 8\n"),
            std::string::npos)
      << r.stdoutText;
}

TEST(BenchSmoke, Fig21ReportsAveragePredictionError) {
  const ChildRun r = runChild(FIG21_BIN, {});
  EXPECT_EQ(r.exitCode, 0) << r.stderrText;
  EXPECT_NE(r.stdoutText.find("average prediction error:"), std::string::npos)
      << r.stdoutText;
}

TEST(BenchSmoke, PredictPerformance) {
  const ChildRun r = runChild(PREDICT_BIN, {"64"});
  EXPECT_EQ(r.exitCode, 0) << r.stderrText;
  EXPECT_NE(r.stdoutText.find("prediction error on the traced fabric:"),
            std::string::npos)
      << r.stdoutText;
}

}  // namespace
}  // namespace cypress
