// Argument validation of the shipped binaries: a --threads or --procs
// count below 1 is a usage error caught while parsing, so the command
// fails fast with a message naming the flag, before it traces,
// listens or writes anything.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#if !defined(CYPTRACE_BIN) || !defined(CYPTRACED_BIN)
#error "CYPTRACE_BIN and CYPTRACED_BIN must point at the tool binaries"
#endif

namespace cypress {
namespace {

namespace fs = std::filesystem;

struct ChildRun {
  int exitCode = -1;  // -1 on abnormal death
  std::string stderrText;
};

/// Fork `bin` with `args`, capture its stderr, reap it.
ChildRun runTool(const char* bin, const std::vector<std::string>& args) {
  int fds[2];
  EXPECT_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  if (pid == 0) {
    std::vector<const char*> argv = {bin};
    for (const std::string& a : args) argv.push_back(a.c_str());
    argv.push_back(nullptr);
    close(fds[0]);
    if (dup2(fds[1], STDERR_FILENO) < 0) _exit(126);
    execv(bin, const_cast<char* const*>(argv.data()));
    _exit(127);
  }
  close(fds[1]);
  ChildRun out;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof buf)) > 0)
    out.stderrText.append(buf, static_cast<size_t>(n));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  out.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

std::string tempPath(const std::string& name) {
  const std::string p =
      (fs::temp_directory_path() / (name + "." + std::to_string(getpid())))
          .string();
  fs::remove_all(p);
  return p;
}

TEST(CliArgs, CyptraceRunRejectsZeroThreadsBeforeTracing) {
  const std::string out = tempPath("cyp-args-threads.cyp");
  const ChildRun run = runTool(
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
        runTool(CYPTRACE_BIN, {"run", "JACOBI", "--procs", procs, "--out", out});
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
      runTool(CYPTRACED_BIN, {"serve", "--socket", socket, "--spool", spool,
                              "--threads", "0"});
  EXPECT_NE(run.exitCode, 0);
  EXPECT_NE(run.stderrText.find("--threads"), std::string::npos)
      << run.stderrText;
  EXPECT_FALSE(fs::exists(socket));
  EXPECT_FALSE(fs::exists(spool));
}

TEST(CliArgs, CyptracedSubmitRejectsZeroProcs) {
  const ChildRun run =
      runTool(CYPTRACED_BIN, {"submit", "--socket", tempPath("cyp-args.sock"),
                              "JACOBI", "--procs", "0"});
  EXPECT_NE(run.exitCode, 0);
  EXPECT_NE(run.stderrText.find("--procs"), std::string::npos)
      << run.stderrText;
}

}  // namespace
}  // namespace cypress
