// Argument validation of the shipped binaries: a --threads or --procs
// count below 1 is a usage error caught while parsing, so the command
// fails fast with a message naming the flag, before it traces,
// listens or writes anything. The same holds for every other numeric
// flag of `cyptrace` and `cyptraced` given anything but decimal digits,
// or a value past its bound (INT_MAX for int flags, 2^64-1 for --seed
// and merge's unsigned flags), and for a job id that is not a number.
// `cyptrace run` of an unknown workload is a usage error too.
//
// Also the read commands on a salvaged trace (one whose merge marked
// some ranks lost): `stats` and `dump --otf` answer for the survivors
// and exit 0 instead of failing on the lost ranks.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "child_process.hpp"

#if !defined(CYPTRACE_BIN) || !defined(CYPTRACED_BIN)
#error "CYPTRACE_BIN and CYPTRACED_BIN must point at the tool binaries"
#endif

namespace cypress {
namespace {

namespace fs = std::filesystem;

std::string tempPath(const std::string& name) {
  const std::string p =
      (fs::temp_directory_path() / (name + "." + std::to_string(getpid())))
          .string();
  fs::remove_all(p);
  return p;
}

TEST(CliArgs, CyptraceRunRejectsZeroThreadsBeforeTracing) {
  const std::string out = tempPath("cyp-args-threads.cyp");
  const ChildRun run = runChild(
      CYPTRACE_BIN,
      {"run", "JACOBI", "--procs", "16", "--threads", "0", "--out", out});
  EXPECT_NE(run.exitCode, 0);
  EXPECT_NE(run.stderrText.find("--threads"), std::string::npos)
      << run.stderrText;
  EXPECT_FALSE(fs::exists(out));
}

TEST(CliArgs, CyptraceRunRejectsNonPositiveProcs) {
  const std::string out = tempPath("cyp-args-procs.cyp");
  for (const char* procs : {"0", "-4"}) {
    const ChildRun run =
        runChild(CYPTRACE_BIN,
                 {"run", "JACOBI", "--procs", procs, "--out", out});
    EXPECT_NE(run.exitCode, 0) << procs;
    EXPECT_NE(run.stderrText.find("--procs"), std::string::npos)
        << run.stderrText;
    EXPECT_FALSE(fs::exists(out)) << procs;
  }
}

TEST(CliArgs, CyptracedServeRejectsZeroThreadsBeforeListening) {
  const std::string socket = tempPath("cyp-args.sock");
  const std::string spool = tempPath("cyp-args-spool");
  const ChildRun run =
      runChild(CYPTRACED_BIN, {"serve", "--socket", socket, "--spool", spool,
                               "--threads", "0"});
  EXPECT_NE(run.exitCode, 0);
  EXPECT_NE(run.stderrText.find("--threads"), std::string::npos)
      << run.stderrText;
  EXPECT_FALSE(fs::exists(socket));
  EXPECT_FALSE(fs::exists(spool));
}

TEST(CliArgs, CyptracedSubmitRejectsZeroProcs) {
  const ChildRun run =
      runChild(CYPTRACED_BIN, {"submit", "--socket", tempPath("cyp-args.sock"),
                               "JACOBI", "--procs", "0"});
  EXPECT_NE(run.exitCode, 0);
  EXPECT_NE(run.stderrText.find("--procs"), std::string::npos)
      << run.stderrText;
}

TEST(CliArgs, CyptraceStatsAndOtfDumpReadASalvagedTrace) {
  // Rank 5 is killed; rank 4, blocked on it, stalls. Both are lost.
  const std::string trace = tempPath("cyp-salvaged.cyp");
  const ChildRun run = runChild(
      CYPTRACE_BIN, {"run", "JACOBI", "--procs", "16", "--fault",
                     "kill:5@199", "--salvage", "--out", trace});
  ASSERT_EQ(run.exitCode, 0) << run.stderrText;

  const ChildRun stats = runChild(CYPTRACE_BIN, {"stats", trace});
  EXPECT_EQ(stats.exitCode, 0) << stats.stderrText;
  EXPECT_NE(stats.stdoutText.find("(16 ranks, "), std::string::npos)
      << stats.stdoutText;
  EXPECT_NE(stats.stdoutText.find("\nlost ranks: 4 5 "), std::string::npos)
      << stats.stdoutText;
  // 14 survivors: the two edge ranks and the two neighbours of the lost
  // pair send and receive 100 times, the other ten 200 times.
  EXPECT_NE(
      stats.stdoutText.find("events per rank: min 100, avg 185.7, max 200"),
      std::string::npos)
      << stats.stdoutText;

  const ChildRun otf = runChild(CYPTRACE_BIN, {"dump", trace, "--otf"});
  EXPECT_EQ(otf.exitCode, 0) << otf.stderrText;
  EXPECT_NE(otf.stdoutText.find("\nRANK 3 "), std::string::npos);
  EXPECT_NE(otf.stdoutText.find("\nRANK 6 "), std::string::npos);
  EXPECT_EQ(otf.stdoutText.find("\nRANK 4 "), std::string::npos);
  EXPECT_EQ(otf.stdoutText.find("\nRANK 5 "), std::string::npos);
  fs::remove(trace);
}

TEST(CliArgs, CyptraceStatsPrintsNoLostLineForACompleteTrace) {
  const std::string trace = tempPath("cyp-complete.cyp");
  const ChildRun run = runChild(
      CYPTRACE_BIN, {"run", "JACOBI", "--procs", "16", "--out", trace});
  ASSERT_EQ(run.exitCode, 0) << run.stderrText;
  const ChildRun stats = runChild(CYPTRACE_BIN, {"stats", trace});
  EXPECT_EQ(stats.exitCode, 0) << stats.stderrText;
  EXPECT_EQ(stats.stdoutText.find("lost ranks"), std::string::npos)
      << stats.stdoutText;
  fs::remove(trace);
}

TEST(CliArgs, CyptraceMergeRejectsMalformedNumbers) {
  // A real rank directory, so a flag that slipped through would merge
  // and write the output.
  const std::string ranks = tempPath("cyp-args-ranks");
  const ChildRun emit = runChild(
      CYPTRACE_BIN, {"run", "JACOBI", "--procs", "8", "--emit-ranks", ranks,
                     "--out", ranks + ".cyp"});
  ASSERT_EQ(emit.exitCode, 0) << emit.stderrText;

  const std::string out = tempPath("cyp-args-merge.cyp");
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"--batch-ranks", "-1"},
      {"--batch-ranks", "abc"},
      {"--batch-ranks", "3x"},
      {"--batch-ranks", ""},
      {"--merge-budget", "-1k"},
      {"--merge-budget", "k"},
      {"--merge-budget", "18446744073709551616"},
      {"--merge-budget", "17179869184g"},
      {"--crash-after-steps", "+2"},
      {"--crash-after-steps", " 2"},
  };
  for (const auto& [flag, value] : bad) {
    const ChildRun run =
        runChild(CYPTRACE_BIN, {"merge", ranks, flag, value, "--out", out,
                                "--work-dir", ranks + ".work"});
    EXPECT_EQ(run.exitCode, 2) << flag << " " << value;
    EXPECT_NE(run.stderrText.find(flag), std::string::npos)
        << flag << " " << value << ": " << run.stderrText;
    EXPECT_FALSE(fs::exists(out)) << flag << " " << value;
  }

  // The same flags, well formed, merge to the trace `run` wrote.
  const ChildRun good = runChild(
      CYPTRACE_BIN, {"merge", ranks, "--batch-ranks", "3", "--merge-budget",
                     "64K", "--crash-after-steps", "0", "--out", out,
                     "--work-dir", ranks + ".work"});
  ASSERT_EQ(good.exitCode, 0) << good.stderrText;
  EXPECT_TRUE(fs::exists(out));
  fs::remove_all(ranks);
  fs::remove_all(ranks + ".work");
  fs::remove(ranks + ".cyp");
  fs::remove(out);
}

TEST(CliArgs, CyptraceRejectsMalformedNumericFlags) {
  const std::string trace = tempPath("cyp-args-numbers-src.cyp");
  const ChildRun traced = runChild(
      CYPTRACE_BIN, {"run", "JACOBI", "--procs", "4", "--out", trace});
  ASSERT_EQ(traced.exitCode, 0) << traced.stderrText;

  const std::string out = tempPath("cyp-args-numbers.cyp");
  struct Case {
    std::string flag;
    std::vector<std::string> args;
  };
  const std::vector<Case> bad = {
      {"--procs", {"run", "JACOBI", "--procs", "4x", "--out", out}},
      {"--procs", {"run", "JACOBI", "--procs", "abc", "--out", out}},
      {"--procs", {"run", "JACOBI", "--procs", "2147483648", "--out", out}},
      {"--scale", {"run", "JACOBI", "--procs", "4", "--scale", "0", "--out", out}},
      {"--scale", {"run", "JACOBI", "--procs", "4", "--scale", "-3", "--out", out}},
      {"--scale", {"compare", "JACOBI", "--procs", "4", "--scale", "1.5"}},
      {"--threads", {"run", "JACOBI", "--procs", "4", "--threads", "", "--out", out}},
      {"--rank", {"dump", trace, "--rank", "abc"}},
      {"--rank", {"dump", trace, "--rank", "-1"}},
      {"--rank", {"dump", trace, "--rank", "2147483648"}},
      {"--limit", {"dump", trace, "--limit", "-5"}},
      {"--seed", {"verify", trace, "--fuzz", "3", "--seed", "-1"}},
      {"--seed", {"verify", trace, "--seed", "18446744073709551616"}},
      {"--fuzz", {"verify", trace, "--fuzz", "-1"}},
      {"--fuzz", {"verify", trace, "--fuzz", "10x"}},
  };
  for (const Case& c : bad) {
    const ChildRun run = runChild(CYPTRACE_BIN, c.args);
    std::string argv;
    for (const std::string& a : c.args) argv += " " + a;
    EXPECT_EQ(run.exitCode, 2) << argv;
    EXPECT_NE(run.stderrText.find(c.flag), std::string::npos)
        << argv << ": " << run.stderrText;
    EXPECT_TRUE(run.stdoutText.empty()) << argv << ": " << run.stdoutText;
    EXPECT_FALSE(fs::exists(out)) << argv;
  }

  // Well-formed values at the edges of their ranges still work.
  const ChildRun dump =
      runChild(CYPTRACE_BIN, {"dump", trace, "--rank", "3", "--limit", "0"});
  EXPECT_EQ(dump.exitCode, 0) << dump.stderrText;
  const ChildRun verify = runChild(
      CYPTRACE_BIN, {"verify", trace, "--fuzz", "3", "--seed",
                     "18446744073709551615"});
  EXPECT_EQ(verify.exitCode, 0) << verify.stderrText;
  fs::remove(trace);
}

TEST(CliArgs, CyptracedRejectsMalformedNumericFlags) {
  const std::string socket = tempPath("cyp-args-d.sock");
  const std::string spool = tempPath("cyp-args-d-spool");
  struct Case {
    std::string flag;
    std::vector<std::string> args;
  };
  auto serve = [&](const std::string& flag, const std::string& v) {
    return Case{flag, {"serve", "--socket", socket, "--spool", spool, flag, v}};
  };
  auto submit = [&](const std::string& flag, const std::string& v) {
    return Case{flag, {"submit", "--socket", socket, "JACOBI", "--procs", "4",
                       flag, v}};
  };
  const std::vector<Case> bad = {
      serve("--queue", "abc"),
      serve("--concurrent", "0"),
      serve("--concurrent", "2x"),
      serve("--client-cap", "-1"),
      serve("--attempts", "4294967296"),
      serve("--deadline", "1.5"),
      serve("--crash-after-segments", "x"),
      submit("--scale", "abc"),
      submit("--scale", "0"),
      submit("--procs", "4x"),
      submit("--attempts", "-2"),
      submit("--deadline", "10ms"),
      submit("--wait", "abc"),
      {"--timeout", {"wait", "--socket", socket, "1", "--timeout", "soon"}},
      {"job id", {"status", "--socket", socket, "x"}},
      {"job id", {"wait", "--socket", socket, "1x"}},
      {"job id", {"cancel", "--socket", socket, "18446744073709551616"}},
  };
  for (const Case& c : bad) {
    const ChildRun run = runChild(CYPTRACED_BIN, c.args);
    std::string argv;
    for (const std::string& a : c.args) argv += " " + a;
    EXPECT_EQ(run.exitCode, 2) << argv;
    EXPECT_NE(run.stderrText.find(c.flag), std::string::npos)
        << argv << ": " << run.stderrText;
    EXPECT_FALSE(fs::exists(socket)) << argv;
    EXPECT_FALSE(fs::exists(spool)) << argv;
  }
}

TEST(CliArgs, CyptraceRunRejectsAnUnknownWorkload) {
  const std::string out = tempPath("cyp-args-nope.cyp");
  const ChildRun run = runChild(
      CYPTRACE_BIN, {"run", "NOPE", "--procs", "4", "--out", out});
  EXPECT_EQ(run.exitCode, 2);
  EXPECT_NE(run.stderrText.find("unknown workload 'NOPE'"), std::string::npos)
      << run.stderrText;
  EXPECT_NE(run.stderrText.find("JACOBI"), std::string::npos)
      << run.stderrText;  // the known workloads
  EXPECT_TRUE(run.stdoutText.empty()) << run.stdoutText;
  EXPECT_FALSE(fs::exists(out));
}

}  // namespace
}  // namespace cypress
