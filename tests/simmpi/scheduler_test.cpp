// The epoch scheduler's thread-count contract, seen from the observer
// side: every rank-private observer receives the same hook sequence —
// structure markers, call boundaries, MPI events and finalize, in the
// order a sequential run delivering events at commit produces — whether
// the local phases run on 1 or on 8 lanes, and a failure inside a local
// phase surfaces as the same error at every thread count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "driver/pipeline.hpp"
#include "support/error.hpp"
#include "trace/observer.hpp"
#include "vm/runner.hpp"
#include "workloads/workloads.hpp"

namespace cypress {
namespace {

/// Logs one rank's hooks as text lines, events with their timing.
class HookLog final : public trace::Observer {
 public:
  void onEvent(const trace::Event& e) override {
    log.push_back("event " + e.toString() + " compute=" +
                  std::to_string(e.computeNs) +
                  " duration=" + std::to_string(e.durationNs));
  }
  void onStructEnter(int structId, int pathIndex) override {
    log.push_back("enter " + std::to_string(structId) + "/" +
                  std::to_string(pathIndex));
  }
  void onStructExit(int structId) override {
    log.push_back("exit " + std::to_string(structId));
  }
  void onCallEnter(int callInstrId, const std::string& callee) override {
    log.push_back("call " + std::to_string(callInstrId) + " " + callee);
  }
  void onCallExit(const std::string& callee) override {
    log.push_back("return " + callee);
  }
  void onFinalize() override { log.push_back("finalize"); }

  std::vector<std::string> log;
};

/// Forwards either the MPI events and finalize (as the engine's
/// commit-thread observer) or everything else (as the VM's observer) to
/// one HookLog, so a sequential run logs each event at the moment it
/// commits — the delivery order the pending buffer must reproduce.
class Split final : public trace::Observer {
 public:
  Split(HookLog& log, bool events) : log_(log), events_(events) {}
  void onEvent(const trace::Event& e) override {
    if (events_) log_.onEvent(e);
  }
  void onStructEnter(int structId, int pathIndex) override {
    log_.onStructEnter(structId, pathIndex);
  }
  void onStructExit(int structId) override { log_.onStructExit(structId); }
  void onCallEnter(int callInstrId, const std::string& callee) override {
    log_.onCallEnter(callInstrId, callee);
  }
  void onCallExit(const std::string& callee) override {
    log_.onCallExit(callee);
  }
  void onFinalize() override {
    if (events_) log_.onFinalize();
  }

 private:
  HookLog& log_;
  bool events_;
};

/// Every rank's full hook sequence for one run of `source` on `threads`.
/// With `atCommit` (sequential runs only), events reach the log at
/// commit instead of through the rank's pending buffer.
std::vector<std::vector<std::string>> hookSequences(const std::string& source,
                                                    int procs, int threads,
                                                    bool atCommit = false) {
  const auto prog = driver::compileForTracing(source);
  simmpi::Engine::Config cfg;
  cfg.numRanks = procs;
  simmpi::Engine engine(cfg);
  std::vector<HookLog> logs(static_cast<size_t>(procs));
  std::vector<std::unique_ptr<Split>> splits;
  std::vector<trace::Observer*> obs;
  for (int r = 0; r < procs; ++r) {
    HookLog& l = logs[static_cast<size_t>(r)];
    if (!atCommit) {
      obs.push_back(&l);
      continue;
    }
    splits.push_back(std::make_unique<Split>(l, /*events=*/true));
    engine.setObserver(r, splits.back().get());
    splits.push_back(std::make_unique<Split>(l, /*events=*/false));
    obs.push_back(splits.back().get());
  }
  vm::RunOptions opts;
  opts.instructionLimitPerRank = 1ull << 30;
  opts.threads = threads;
  const vm::RunResult res = vm::run(*prog->module, engine, obs, opts);
  EXPECT_TRUE(res.clean());
  std::vector<std::vector<std::string>> out;
  uint64_t events = 0;
  for (int r = 0; r < procs; ++r) {
    HookLog& l = logs[static_cast<size_t>(r)];
    EXPECT_FALSE(l.log.empty()) << "rank " << r;
    EXPECT_EQ(l.log.back(), "finalize") << "rank " << r;
    for (const auto& line : l.log) events += line.starts_with("event ");
    out.push_back(std::move(l.log));
  }
  EXPECT_EQ(events, res.totalEvents);
  return out;
}

const char* const kWildcard = R"(
  func main() {
    if (rank == 0) {
      var total = (size - 1) * 4;
      for (var i = 0; i < total; i = i + 1) {
        mpi_recv(ANY_SOURCE, 64, 7);
      }
      for (var w = 1; w < size; w = w + 1) {
        mpi_send(w, 8, 9);
      }
    } else {
      for (var j = 0; j < 3; j = j + 1) {
        compute(1000 * rank + j * 37);
        mpi_send(0, 64, 7);
      }
      var r = mpi_isend(0, 64, 7);
      mpi_wait(r);
      mpi_recv(0, 8, 9);
    }
  })";

TEST(HookOrder, SameSequenceAtEveryThreadCount) {
  struct Case {
    std::string name;
    std::string source;
  };
  const int procs = 8;
  std::vector<Case> cases;
  for (const char* w : {"LU", "CG", "FT"})
    cases.push_back({w, workloads::get(w).source(procs, 1)});
  cases.push_back({"wildcard", kWildcard});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto ref = hookSequences(c.source, procs, 1, /*atCommit=*/true);
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      EXPECT_EQ(hookSequences(c.source, procs, threads), ref);
    }
  }
}

/// The error text of a run that must fail, on `threads` lanes.
std::string localPhaseError(const std::string& source, int threads) {
  const auto prog = driver::compileForTracing(source);
  simmpi::Engine::Config cfg;
  cfg.numRanks = 8;
  simmpi::Engine engine(cfg);
  std::vector<HookLog> logs(8);
  std::vector<trace::Observer*> obs;
  for (auto& l : logs) obs.push_back(&l);
  vm::RunOptions opts;
  opts.instructionLimitPerRank = 20000;
  opts.threads = threads;
  try {
    vm::run(*prog->module, engine, obs, opts);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected the run to fail";
  return {};
}

TEST(LaneErrors, LowestFailingRankWinsAtEveryThreadCount) {
  // Ranks 1 and 6 fail in the same local phase, after a barrier. They
  // sit in different lanes at 2, 4 and 8 threads, and rank 1's error
  // must be the one reported, as in a sequential scan.
  struct Case {
    std::string name;
    std::string source;
    std::string expect;
  };
  const std::vector<Case> cases = {
      {"instruction limit", R"(
        func main() {
          mpi_barrier();
          if (rank == 1 || rank == 6) {
            for (var i = 0; i < 1000000; i = i + 1) { compute(1); }
          }
          mpi_barrier();
        })",
       "rank 1 exceeded the instruction limit"},
      {"negative compute", R"(
        func main() {
          mpi_barrier();
          if (rank == 1 || rank == 6) { compute(0 - rank); }
          mpi_barrier();
        })",
       "rank 1: negative compute() cost"},
      {"mixed", R"(
        func main() {
          mpi_barrier();
          if (rank == 6) { compute(0 - 1); }
          if (rank == 1) {
            for (var i = 0; i < 1000000; i = i + 1) { compute(1); }
          }
          mpi_barrier();
        })",
       "rank 1 exceeded the instruction limit"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string ref = localPhaseError(c.source, 1);
    EXPECT_NE(ref.find(c.expect), std::string::npos) << ref;
    for (int threads : {2, 4, 8})
      EXPECT_EQ(localPhaseError(c.source, threads), ref)
          << "threads=" << threads;
  }
}

}  // namespace
}  // namespace cypress
