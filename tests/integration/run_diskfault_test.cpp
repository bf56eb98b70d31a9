// Disk-fault sweeps over the `cyptrace run` and `cyptrace recover`
// artifact writes.
//
// The contract: every artifact of a run (merged .cyp, CYJ1 journal,
// rank-trace directory) and the raw trace `recover --out` salvages is
// written atomically, so a disk fault injected at ANY write/sync/rename
// ordinal must leave each final name either absent or byte-identical
// to the clean run's file — never torn — plus no leftover .tmp files,
// and the process must exit with the distinct disk-failure code 4.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "child_process.hpp"

#ifndef CYPTRACE_BIN
#error "CYPTRACE_BIN must point at the cyptrace binary"
#endif

namespace cypress {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / (name + "." + std::to_string(getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<uint8_t> fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

/// Run `cyptrace run JACOBI` writing all three artifact kinds into
/// `dir`; returns the child's exit code (-1 on abnormal death).
int runTrace(const std::string& dir, const std::string& ioFault) {
  const std::string out = dir + "/trace.cyp";
  const std::string journal = dir + "/run.cyj";
  const std::string ranks = dir + "/ranks";
  const pid_t pid = fork();
  if (pid == 0) {
    std::vector<const char*> argv = {
        CYPTRACE_BIN, "run",       "JACOBI",      "--procs",
        "4",          "--out",     out.c_str(),   "--journal",
        journal.c_str(), "--emit-ranks", ranks.c_str()};
    if (!ioFault.empty()) {
      argv.push_back("--io-fault");
      argv.push_back(ioFault.c_str());
    }
    argv.push_back(nullptr);
    if (freopen("/dev/null", "w", stdout) == nullptr) _exit(126);
    if (freopen("/dev/null", "w", stderr) == nullptr) _exit(126);
    execv(CYPTRACE_BIN, const_cast<char* const*>(argv.data()));
    _exit(127);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Every regular file under `dir`, relative to it.
std::vector<std::string> listFiles(const std::string& dir) {
  std::vector<std::string> out;
  if (!fs::exists(dir)) return out;
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file())
      out.push_back(fs::relative(e.path(), dir).string());
  return out;
}

TEST(RunDiskFaultSweep, EveryFaultOrdinalLeavesNoTornArtifact) {
  // Clean reference run: the run stage is deterministic, so every
  // faulted run must produce a prefix of exactly these files.
  const std::string refDir = freshDir("cyp-run-fault-ref");
  ASSERT_EQ(runTrace(refDir, ""), 0);
  const std::vector<std::string> refFiles = listFiles(refDir);
  ASSERT_FALSE(refFiles.empty());

  // (rename@N is excluded: TornRename models a lying filesystem that
  // reports success after dropping the file's tail — by design it DOES
  // leave a torn final-name file, caught only by format validation.)
  for (const char* kind : {"enospc", "eio", "short", "fsync"}) {
    // Sweep the ordinal until the plan stops firing (clean exit). The
    // run writes a bounded number of ops, so this terminates; the cap
    // is a watchdog against a runaway sweep.
    bool sawClean = false;
    for (int n = 1; n <= 200 && !sawClean; ++n) {
      const std::string spec = std::string(kind) + "@" + std::to_string(n);
      SCOPED_TRACE(spec);
      const std::string dir = freshDir("cyp-run-fault");
      const int exitCode = runTrace(dir, spec);

      if (exitCode == 0) {
        // Ordinal past the last matching op: the fault never fired and
        // the run must be complete and byte-identical to the reference.
        sawClean = true;
        for (const auto& f : listFiles(dir))
          EXPECT_EQ(fileBytes(dir + "/" + f), fileBytes(refDir + "/" + f))
              << f;
        EXPECT_EQ(listFiles(dir).size(), refFiles.size());
      } else {
        // The fault fired: distinct disk-failure exit code, and every
        // file that made it to a final name is byte-identical to the
        // reference — a fault can hide files, never corrupt them.
        EXPECT_EQ(exitCode, 4);
        for (const auto& f : listFiles(dir)) {
          EXPECT_TRUE(f.find(".tmp") == std::string::npos)
              << "leftover temp file " << f;
          EXPECT_EQ(fileBytes(dir + "/" + f), fileBytes(refDir + "/" + f))
              << f;
        }
      }
      fs::remove_all(dir);
    }
    EXPECT_TRUE(sawClean) << kind << ": no clean run within the sweep cap";
  }
  fs::remove_all(refDir);
}

TEST(RecoverDiskFaultSweep, EveryFaultOrdinalLeavesNothingOrTheExactFile) {
  // A sealed journal from a clean run, and the raw trace a fault-free
  // `recover --out` writes from it.
  const std::string dir = freshDir("cyp-recover-fault");
  const std::string journal = dir + "/run.cyj";
  ASSERT_EQ(runChild(CYPTRACE_BIN, {"run", "JACOBI", "--procs", "4", "--out",
                                    dir + "/trace.cyp", "--journal", journal})
                .exitCode,
            0);
  ASSERT_EQ(
      runChild(CYPTRACE_BIN, {"recover", journal, "--out", dir + "/ref.cytr"})
          .exitCode,
      0);
  const std::vector<uint8_t> ref = fileBytes(dir + "/ref.cytr");
  ASSERT_FALSE(ref.empty());

  // (rename@N is excluded for the same reason as in the run sweep.)
  const std::string out = dir + "/out.cytr";
  for (const char* kind : {"enospc", "eio", "short", "fsync"}) {
    bool sawFault = false, sawClean = false;
    for (int n = 1; n <= 50 && !sawClean; ++n) {
      const std::string spec = std::string(kind) + "@" + std::to_string(n);
      SCOPED_TRACE(spec);
      const ChildRun r = runChild(
          CYPTRACE_BIN, {"recover", journal, "--out", out, "--io-fault", spec});
      if (r.exitCode == 0) {
        sawClean = true;
        EXPECT_EQ(fileBytes(out), ref);
      } else {
        sawFault = true;
        EXPECT_EQ(r.exitCode, 4) << r.stderrText;
        EXPECT_FALSE(fs::exists(out)) << "torn file under the final name";
      }
      EXPECT_FALSE(fs::exists(out + ".tmp")) << "leftover temp file";
      fs::remove(out);
    }
    // The write has at least one op of every kind, so the plan must
    // fire before the sweep reaches a clean run.
    EXPECT_TRUE(sawFault) << kind << ": --io-fault never reached the write";
    EXPECT_TRUE(sawClean) << kind << ": no clean run within the sweep cap";
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cypress
