// Peak memory of `cyptrace run`: the command keeps no raw event trace,
// and the simulated MPI engine retires finished requests, so the
// process's peak RSS follows the per-rank recorder state instead of
// the number of events traced. The bound is the memory the raw trace
// alone would need — events x sizeof(trace::Event) — which the peak
// must stay below.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "trace/event.hpp"

#ifndef CYPTRACE_BIN
#error "CYPTRACE_BIN must point at the cyptrace binary"
#endif

namespace cypress {
namespace {

namespace fs = std::filesystem;

struct ChildRun {
  int exitCode = -1;  // -1 on abnormal death
  std::string stdoutText;
  uint64_t maxRssKiB = 0;
};

/// Fork `cyptrace` with `args`, capture its stdout, reap it with wait4
/// so the peak RSS is the child's own.
ChildRun runCyptrace(const std::vector<std::string>& args) {
  int fds[2];
  EXPECT_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  if (pid == 0) {
    std::vector<const char*> argv = {CYPTRACE_BIN};
    for (const std::string& a : args) argv.push_back(a.c_str());
    argv.push_back(nullptr);
    close(fds[0]);
    if (dup2(fds[1], STDOUT_FILENO) < 0) _exit(126);
    execv(CYPTRACE_BIN, const_cast<char* const*>(argv.data()));
    _exit(127);
  }
  close(fds[1]);
  ChildRun out;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof buf)) > 0)
    out.stdoutText.append(buf, static_cast<size_t>(n));
  close(fds[0]);
  int status = 0;
  rusage ru{};
  wait4(pid, &status, 0, &ru);
  out.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  out.maxRssKiB = static_cast<uint64_t>(ru.ru_maxrss);  // KiB on Linux
  return out;
}

TEST(RunMemory, PeakRssStaysBelowTheRawTraceSize) {
  const std::string out =
      (fs::temp_directory_path() /
       ("cyp-run-rss." + std::to_string(getpid()) + ".cyp"))
          .string();
  const ChildRun run = runCyptrace(
      {"run", "JACOBI", "--procs", "4096", "--out", out});
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
