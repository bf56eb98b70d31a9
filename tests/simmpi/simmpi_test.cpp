// End-to-end tests of the simulated MPI engine + VM: program execution,
// message matching, collectives, non-blocking ops, wildcard receives,
// structure-marker delivery, deadlock detection, determinism.
#include <gtest/gtest.h>

#include "cst/builder.hpp"
#include "minic/compile.hpp"
#include "simmpi/engine.hpp"
#include "support/error.hpp"
#include "trace/observer.hpp"
#include "vm/runner.hpp"

namespace cypress {
namespace {

using minic::compileProgram;

/// Run a MiniC program on P ranks with raw tracing; returns the trace.
trace::RawTrace runRaw(const std::string& src, int ranks,
                       bool instrument = false, double jitter = 0.05) {
  auto m = compileProgram(src);
  if (instrument) cst::analyzeAndInstrument(*m);
  simmpi::Engine::Config cfg;
  cfg.numRanks = ranks;
  cfg.jitter = jitter;
  simmpi::Engine engine(cfg);
  trace::RawTrace out;
  out.ranks.resize(static_cast<size_t>(ranks));
  std::vector<std::unique_ptr<trace::RawRecorder>> recs;
  std::vector<trace::Observer*> obs;
  for (int r = 0; r < ranks; ++r) {
    out.ranks[static_cast<size_t>(r)].rank = r;
    recs.push_back(std::make_unique<trace::RawRecorder>(out.ranks[static_cast<size_t>(r)]));
    obs.push_back(recs.back().get());
  }
  vm::run(*m, engine, obs, {.instructionLimitPerRank = 1ull << 26});
  return out;
}

TEST(SimMpi, RingSendRecv) {
  // Every rank sends to its right neighbour and receives from the left.
  auto t = runRaw(R"(
    func main() {
      var right = (rank + 1) % size;
      var left = (rank + size - 1) % size;
      mpi_send(right, 1024, 7);
      mpi_recv(left, 1024, 7);
    })", 8);
  for (const auto& r : t.ranks) {
    ASSERT_EQ(r.events.size(), 2u);
    EXPECT_EQ(r.events[0].op, ir::MpiOp::Send);
    EXPECT_EQ(r.events[0].peer, (r.rank + 1) % 8);
    EXPECT_EQ(r.events[0].bytes, 1024);
    EXPECT_EQ(r.events[0].tag, 7);
    EXPECT_EQ(r.events[1].op, ir::MpiOp::Recv);
    EXPECT_EQ(r.events[1].peer, (r.rank + 8 - 1) % 8);
  }
}

TEST(SimMpi, JacobiPattern) {
  // The paper's Figure 3/4: boundary ranks do fewer operations.
  auto t = runRaw(R"(
    func main() {
      for (var k = 0; k < 5; k = k + 1) {
        if (rank < size - 1) { mpi_send(rank + 1, 512, 0); }
        if (rank > 0)        { mpi_recv(rank - 1, 512, 0); }
        if (rank > 0)        { mpi_send(rank - 1, 512, 0); }
        if (rank < size - 1) { mpi_recv(rank + 1, 512, 0); }
      }
    })", 6);
  EXPECT_EQ(t.ranks[0].events.size(), 10u);              // 2 ops x 5 iters
  EXPECT_EQ(t.ranks[5].events.size(), 10u);
  for (int r = 1; r <= 4; ++r)
    EXPECT_EQ(t.ranks[static_cast<size_t>(r)].events.size(), 20u);
}

TEST(SimMpi, CollectivesComplete) {
  auto t = runRaw(R"(
    func main() {
      mpi_barrier();
      mpi_bcast(0, 4096);
      mpi_reduce(0, 64);
      mpi_allreduce(8);
      mpi_allgather(128);
      mpi_alltoall(256);
    })", 5);
  for (const auto& r : t.ranks) {
    ASSERT_EQ(r.events.size(), 6u);
    EXPECT_EQ(r.events[1].op, ir::MpiOp::Bcast);
    EXPECT_EQ(r.events[1].peer, 0);
    EXPECT_EQ(r.events[1].bytes, 4096);
    EXPECT_EQ(r.events[5].op, ir::MpiOp::Alltoall);
    EXPECT_GT(r.events[0].durationNs, 0u);
  }
}

TEST(SimMpi, CollectiveMismatchDetected) {
  EXPECT_THROW(runRaw(R"(
    func main() {
      if (rank == 0) { mpi_bcast(0, 64); }
      else { mpi_reduce(0, 64); }
    })", 2),
               Error);
}

TEST(SimMpi, NonBlockingWithWait) {
  auto t = runRaw(R"(
    func main() {
      var right = (rank + 1) % size;
      var left = (rank + size - 1) % size;
      var rs = mpi_isend(right, 2048, 3);
      var rr = mpi_irecv(left, 2048, 3);
      mpi_wait(rs);
      mpi_wait(rr);
    })", 4);
  for (const auto& r : t.ranks) {
    ASSERT_EQ(r.events.size(), 4u);
    EXPECT_EQ(r.events[0].op, ir::MpiOp::Isend);
    EXPECT_EQ(r.events[1].op, ir::MpiOp::Irecv);
    EXPECT_EQ(r.events[2].op, ir::MpiOp::Wait);
    // The wait records the posting site (the paper's request->GID map).
    EXPECT_EQ(r.events[2].reqId, r.events[0].callSiteId);
    EXPECT_EQ(r.events[3].reqId, r.events[1].callSiteId);
  }
}

TEST(SimMpi, WaitallCompletesAllOutstanding) {
  auto t = runRaw(R"(
    func main() {
      var right = (rank + 1) % size;
      var left = (rank + size - 1) % size;
      var a = mpi_isend(right, 64, 0);
      var b = mpi_isend(right, 64, 1);
      var c = mpi_irecv(left, 64, 0);
      var d = mpi_irecv(left, 64, 1);
      mpi_waitall();
    })", 3);
  for (const auto& r : t.ranks) {
    ASSERT_EQ(r.events.size(), 5u);
    EXPECT_EQ(r.events[4].op, ir::MpiOp::Waitall);
  }
}

TEST(SimMpi, WildcardRecvRecordsMatchedSource) {
  auto t = runRaw(R"(
    func main() {
      if (rank != 0) {
        mpi_send(0, 8, 5);
      } else {
        for (var i = 1; i < size; i = i + 1) {
          mpi_recv(ANY_SOURCE, 8, 5);
        }
      }
    })", 4);
  const auto& r0 = t.ranks[0].events;
  ASSERT_EQ(r0.size(), 3u);
  std::set<int> sources;
  for (const auto& e : r0) {
    EXPECT_EQ(e.op, ir::MpiOp::Recv);
    EXPECT_EQ(e.peer, trace::kAnySource);
    EXPECT_GE(e.matchedSource, 1);
    sources.insert(e.matchedSource);
  }
  EXPECT_EQ(sources.size(), 3u);  // each sender matched exactly once
}

TEST(SimMpi, WildcardIrecvMatchedAtWait) {
  auto t = runRaw(R"(
    func main() {
      if (rank == 1) { mpi_send(0, 32, 9); }
      if (rank == 0) {
        var r = mpi_irecv(ANY_SOURCE, 32, 9);
        mpi_wait(r);
      }
    })", 2);
  const auto& r0 = t.ranks[0].events;
  ASSERT_EQ(r0.size(), 2u);
  EXPECT_EQ(r0[0].op, ir::MpiOp::Irecv);
  EXPECT_EQ(r0[1].op, ir::MpiOp::Wait);
  EXPECT_EQ(r0[1].matchedSource, 1);
}

TEST(SimMpi, WaitanyPicksACompleteRequest) {
  auto t = runRaw(R"(
    func main() {
      if (rank == 1) { mpi_send(0, 16, 0); mpi_send(0, 16, 1); }
      if (rank == 0) {
        var a = mpi_irecv(1, 16, 0);
        var b = mpi_irecv(1, 16, 1);
        mpi_waitany();
        mpi_waitany();
      }
    })", 2);
  const auto& r0 = t.ranks[0].events;
  ASSERT_EQ(r0.size(), 4u);
  EXPECT_EQ(r0[2].op, ir::MpiOp::Waitany);
  EXPECT_EQ(r0[3].op, ir::MpiOp::Waitany);
  EXPECT_NE(r0[2].reqId, -1);
  EXPECT_NE(r0[3].reqId, -1);
}

TEST(SimMpi, MessageOrderingPreservedPerPair) {
  // Two tagged messages from the same sender must match in order for
  // identical tags.
  auto t = runRaw(R"(
    func main() {
      if (rank == 0) {
        mpi_send(1, 100, 0);
        mpi_send(1, 200, 0);
      }
      if (rank == 1) {
        mpi_recv(0, 100, 0);
        mpi_recv(0, 200, 0);
      }
    })", 2);
  const auto& r1 = t.ranks[1].events;
  EXPECT_EQ(r1[0].bytes, 100);
  EXPECT_EQ(r1[1].bytes, 200);
}

TEST(SimMpi, DeadlockDetected) {
  EXPECT_THROW(runRaw(R"(
    func main() {
      mpi_recv((rank + 1) % size, 8, 0);  // everyone receives, nobody sends
    })", 3),
               Error);
}

TEST(SimMpi, DeterministicAcrossRuns) {
  const char* src = R"(
    func main() {
      compute(1000);
      var right = (rank + 1) % size;
      mpi_send(right, 256, 0);
      mpi_recv(ANY_SOURCE, 256, 0);
      mpi_allreduce(8);
    })";
  auto a = runRaw(src, 6);
  auto b = runRaw(src, 6);
  EXPECT_EQ(a.serialize(), b.serialize());
}

TEST(SimMpi, ClocksAdvanceAndCommTimeTracked) {
  auto m = compileProgram(R"(
    func main() {
      compute(100000);
      mpi_barrier();
    })");
  simmpi::Engine::Config cfg;
  cfg.numRanks = 2;
  simmpi::Engine engine(cfg);
  std::vector<trace::Observer*> obs = {nullptr, nullptr};
  auto res = vm::run(*m, engine, obs);
  EXPECT_GT(res.executionNs, 100000u * 2 / 3);
  EXPECT_GT(res.rankCommNs[0] + res.rankCommNs[1], 0u);
}

TEST(SimMpi, ComputeGapsRecordedOnNextEvent) {
  auto t = runRaw(R"(
    func main() {
      compute(50000);
      mpi_barrier();
      mpi_barrier();
    })", 2, false, 0.0);
  for (const auto& r : t.ranks) {
    ASSERT_EQ(r.events.size(), 2u);
    EXPECT_EQ(r.events[0].computeNs, 50000u);
    EXPECT_EQ(r.events[1].computeNs, 0u);
  }
}

TEST(SimMpi, StructureMarkersReachObserver) {
  // Count Enter/Exit hooks with an instrumented loop program.
  class CountingObserver final : public trace::Observer {
   public:
    int enters = 0, exits = 0, events = 0, calls = 0;
    void onEvent(const trace::Event&) override { ++events; }
    void onStructEnter(int, int) override { ++enters; }
    void onStructExit(int) override { ++exits; }
    void onCallEnter(int, const std::string&) override { ++calls; }
    void onCallExit(const std::string&) override {}
    void onFinalize() override {}
  };

  auto m = compileProgram(R"(
    func main() {
      for (var i = 0; i < 10; i = i + 1) { mpi_barrier(); }
    })");
  cst::analyzeAndInstrument(*m);
  simmpi::Engine::Config cfg;
  cfg.numRanks = 2;
  simmpi::Engine engine(cfg);
  CountingObserver a, b;
  std::vector<trace::Observer*> obs = {&a, &b};
  vm::run(*m, engine, obs);
  EXPECT_EQ(a.enters, 10);  // once per iteration
  EXPECT_EQ(a.exits, 1);    // once at loop exit
  EXPECT_EQ(a.events, 10);
  EXPECT_EQ(b.enters, 10);
}

TEST(SimMpi, ZeroIterationLoopFiresExitOnly) {
  class CountingObserver final : public trace::Observer {
   public:
    int enters = 0, exits = 0;
    void onEvent(const trace::Event&) override {}
    void onStructEnter(int, int) override { ++enters; }
    void onStructExit(int) override { ++exits; }
    void onCallEnter(int, const std::string&) override {}
    void onCallExit(const std::string&) override {}
    void onFinalize() override {}
  };
  auto m = compileProgram(R"(
    func main() {
      for (var i = 0; i < 0; i = i + 1) { mpi_barrier(); }
      mpi_barrier();
    })");
  cst::analyzeAndInstrument(*m);
  simmpi::Engine::Config cfg;
  cfg.numRanks = 1;
  simmpi::Engine engine(cfg);
  CountingObserver a;
  std::vector<trace::Observer*> obs = {&a};
  vm::run(*m, engine, obs);
  EXPECT_EQ(a.enters, 0);
  EXPECT_EQ(a.exits, 1);
}

TEST(SimMpi, FunctionCallHooksFire) {
  class CallObserver final : public trace::Observer {
   public:
    std::vector<std::string> log;
    void onEvent(const trace::Event& e) override {
      log.push_back(ir::mpiOpName(e.op));
    }
    void onStructEnter(int, int) override {}
    void onStructExit(int) override {}
    void onCallEnter(int, const std::string& callee) override {
      log.push_back("enter " + callee);
    }
    void onCallExit(const std::string& callee) override {
      log.push_back("exit " + callee);
    }
    void onFinalize() override { log.push_back("finalize"); }
  };
  auto m = compileProgram(R"(
    func halo() { mpi_barrier(); }
    func main() { halo(); }
  )");
  simmpi::Engine::Config cfg;
  cfg.numRanks = 1;
  simmpi::Engine engine(cfg);
  CallObserver a;
  std::vector<trace::Observer*> obs = {&a};
  vm::run(*m, engine, obs);
  EXPECT_EQ(a.log, (std::vector<std::string>{"enter halo", "MPI_Barrier",
                                             "exit halo", "finalize"}));
}

TEST(SimMpi, RecursiveProgramExecutes) {
  auto t = runRaw(R"(
    func down(n) {
      if (n > 0) {
        mpi_barrier();
        down(n - 1);
      }
    }
    func main() { down(3); }
  )", 2);
  EXPECT_EQ(t.ranks[0].events.size(), 3u);
}

TEST(SimMpi, RawTraceSerializationRoundTrip) {
  auto t = runRaw(R"(
    func main() {
      var right = (rank + 1) % size;
      var r = mpi_isend(right, 512, 2);
      mpi_recv((rank + size - 1) % size, 512, 2);
      mpi_wait(r);
      mpi_reduce(0, 64);
    })", 4);
  auto bytes = t.serialize();
  auto back = trace::RawTrace::deserialize(bytes);
  ASSERT_EQ(back.ranks.size(), t.ranks.size());
  for (size_t i = 0; i < t.ranks.size(); ++i)
    EXPECT_EQ(back.ranks[i].events, t.ranks[i].events);
}

}  // namespace
}  // namespace cypress
