// Forking a shipped tool binary from a test: run it to completion with
// its stdout and stderr captured separately, and read its exit status
// and its own peak RSS (wait4).
#pragma once

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace cypress {

struct ChildRun {
  int exitCode = -1;  // -1 on abnormal death
  std::string stdoutText;
  std::string stderrText;
  uint64_t maxRssKiB = 0;
};

/// Whole contents of an unlinked temporary file, read from the start.
inline std::string readBack(std::FILE* f) {
  std::string text;
  std::rewind(f);
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

/// Fork `bin` with `args` and reap it. Each stream goes to its own
/// temporary file, so a child writing a lot to both cannot block.
inline ChildRun runChild(const char* bin,
                         const std::vector<std::string>& args) {
  std::FILE* out = std::tmpfile();
  std::FILE* err = std::tmpfile();
  EXPECT_TRUE(out != nullptr && err != nullptr);
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    std::vector<const char*> argv = {bin};
    for (const std::string& a : args) argv.push_back(a.c_str());
    argv.push_back(nullptr);
    if (dup2(fileno(out), STDOUT_FILENO) < 0 ||
        dup2(fileno(err), STDERR_FILENO) < 0)
      _exit(126);
    execv(bin, const_cast<char* const*>(argv.data()));
    _exit(127);
  }
  ChildRun run;
  int status = 0;
  rusage ru{};
  wait4(pid, &status, 0, &ru);
  run.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  run.maxRssKiB = static_cast<uint64_t>(ru.ru_maxrss);  // KiB on Linux
  run.stdoutText = readBack(out);
  run.stderrText = readBack(err);
  return run;
}

}  // namespace cypress
