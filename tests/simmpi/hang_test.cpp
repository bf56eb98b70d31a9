// Hang/deadlock detection: when no rank can make progress the run must
// terminate deterministically with a structured error whose diagnostics
// name every stuck rank, its pending operation, peer, tag and call
// index — or, in salvage mode, return normally with the same dump in
// RunResult so partial traces can still be recovered.
#include <gtest/gtest.h>

#include "minic/compile.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/fault.hpp"
#include "support/error.hpp"
#include "vm/runner.hpp"

namespace cypress {
namespace {

using minic::compileProgram;

vm::RunResult runPlan(const std::string& src, int ranks,
                      const simmpi::FaultPlan& plan,
                      vm::OnStall onStall = vm::OnStall::Throw) {
  auto m = compileProgram(src);
  simmpi::Engine::Config cfg;
  cfg.numRanks = ranks;
  cfg.faults = plan;
  simmpi::Engine engine(cfg);
  std::vector<trace::Observer*> obs(static_cast<size_t>(ranks), nullptr);
  vm::RunOptions opts;
  opts.onStall = onStall;
  return vm::run(*m, engine, obs, opts);
}

/// Run and capture the hang error message; fails the test if no Error.
std::string hangMessage(const std::string& src, int ranks,
                        const simmpi::FaultPlan& plan = {}) {
  try {
    runPlan(src, ranks, plan);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a hang, but the run completed";
  return {};
}

TEST(HangDetection, CrossedBlockingRecvsNameEveryStuckRank) {
  // Every rank receives from its neighbour and nobody ever sends: the
  // classic crossed-blocking deadlock. The diagnostics must identify
  // each rank, the pending MPI_Recv, and the awaited peer.
  const std::string msg = hangMessage(R"(
    func main() {
      mpi_recv((rank + 1) % size, 8, 5);
    })", 3);
  EXPECT_NE(msg.find("MPI hang detected"), std::string::npos) << msg;
  for (int r = 0; r < 3; ++r) {
    EXPECT_NE(msg.find("rank " + std::to_string(r) + ": blocked in MPI_Recv"),
              std::string::npos)
        << msg;
  }
  EXPECT_NE(msg.find("tag=5"), std::string::npos) << msg;
  EXPECT_NE(msg.find("no matching message from rank 1"), std::string::npos)
      << msg;
}

TEST(HangDetection, CollectiveWithDeadRankNamesTheDeadRank) {
  // Rank 1 is killed entering its first MPI call (the barrier), so the
  // collective can never complete. The survivors' diagnostics must say
  // they are blocked in MPI_Barrier waiting on the dead rank.
  simmpi::FaultPlan plan;
  plan.faults.push_back(simmpi::parseFaultSpec("kill:1@1"));
  const std::string msg = hangMessage(R"(
    func main() {
      mpi_barrier();
    })", 4, plan);
  EXPECT_NE(msg.find("MPI_Barrier"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 1: dead"), std::string::npos) << msg;
  EXPECT_NE(msg.find("killed by the fault plan"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 0: blocked"), std::string::npos) << msg;
  EXPECT_NE(msg.find("dead: 1"), std::string::npos) << msg;
}

TEST(HangDetection, TagMismatchNamesThePendingRecv) {
  // The sender uses tag 1 but the receiver waits on tag 2 forever. The
  // stuck rank's diagnostic must carry the op, the peer and the tag it
  // is actually waiting for.
  const std::string msg = hangMessage(R"(
    func main() {
      if (rank == 0) { mpi_send(1, 64, 1); }
      if (rank == 1) { mpi_recv(0, 64, 2); }
    })", 2);
  EXPECT_NE(msg.find("rank 1: blocked in MPI_Recv"), std::string::npos) << msg;
  EXPECT_NE(msg.find("tag=2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("no matching message from rank 0"), std::string::npos)
      << msg;
}

TEST(HangDetection, RecvFromDeadPeerIsDiagnosed) {
  // Rank 0 dies before sending; rank 1's diagnostic must say the peer
  // is dead, not merely that no message matched.
  simmpi::FaultPlan plan;
  plan.faults.push_back(simmpi::parseFaultSpec("kill:0@1"));
  const std::string msg = hangMessage(R"(
    func main() {
      if (rank == 0) { mpi_send(1, 64, 0); }
      if (rank == 1) { mpi_recv(0, 64, 0); }
    })", 2, plan);
  EXPECT_NE(msg.find("peer rank 0 is dead"), std::string::npos) << msg;
}

TEST(HangDetection, DroppedMessageHangsTheReceiverDeterministically) {
  // A dropped p2p message leaves the receiver blocked forever; the hang
  // detector must fire (not spin), and the dump names the fault plan.
  simmpi::FaultPlan plan;
  plan.faults.push_back(simmpi::parseFaultSpec("drop:0@1"));
  const std::string msg = hangMessage(R"(
    func main() {
      if (rank == 0) { mpi_send(1, 64, 0); }
      if (rank == 1) { mpi_recv(0, 64, 0); }
    })", 2, plan);
  EXPECT_NE(msg.find("rank 1: blocked in MPI_Recv"), std::string::npos) << msg;
  EXPECT_NE(msg.find("drop:0@1"), std::string::npos) << msg;
}

TEST(HangDetection, SalvageModeReturnsStalledRanksInsteadOfThrowing) {
  simmpi::FaultPlan plan;
  plan.faults.push_back(simmpi::parseFaultSpec("kill:1@1"));
  const auto res = runPlan(R"(
    func main() {
      mpi_barrier();
    })", 4, plan, vm::OnStall::Salvage);
  EXPECT_FALSE(res.clean());
  EXPECT_EQ(res.deadRanks, (std::vector<int>{1}));
  EXPECT_EQ(res.stalledRanks, (std::vector<int>{0, 2, 3}));
  EXPECT_NE(res.stallDiagnostics.find("MPI_Barrier"), std::string::npos)
      << res.stallDiagnostics;
  EXPECT_NE(res.stallDiagnostics.find("rank 1: dead"), std::string::npos)
      << res.stallDiagnostics;
}

TEST(HangDetection, PendingSubCommunicatorBarrierDumpIsPinned) {
  // Rank 1 is killed entering the barrier on its half's communicator
  // and rank 2 never calls it. The dump names, for each pending
  // collective, exactly the members that have not arrived: a member
  // that was killed entering the call has not. The text is pinned.
  simmpi::FaultPlan plan;
  plan.faults.push_back(simmpi::parseFaultSpec("kill:1@2"));
  const auto res = runPlan(R"(
    func main() {
      var half = mpi_comm_split(rank / 3, rank);
      if (rank != 2) { mpi_barrier_c(half); }
      mpi_barrier();
    })", 6, plan, vm::OnStall::Salvage);
  EXPECT_EQ(res.stallDiagnostics,
            "stalled ranks: [fault plan: kill:1@2]\n"
            "  rank 1: dead in MPI_Barrier at MPI call #2 — killed by the "
            "fault plan\n"
            "  rank 0: blocked in MPI_Barrier [peer=-2 tag=0 comm=1 seq=0] at "
            "MPI call #2 — waiting for ranks 1, 2 (dead: 1)\n"
            "  rank 2: blocked in MPI_Barrier [peer=-2 tag=0 comm=0 seq=1] at "
            "MPI call #2 — waiting for ranks 0, 1 (dead: 1)\n"
            "  rank 3: blocked in MPI_Barrier [peer=-2 tag=0 comm=0 seq=1] at "
            "MPI call #3 — waiting for ranks 0, 1 (dead: 1)\n"
            "  rank 4: blocked in MPI_Barrier [peer=-2 tag=0 comm=0 seq=1] at "
            "MPI call #3 — waiting for ranks 0, 1 (dead: 1)\n"
            "  rank 5: blocked in MPI_Barrier [peer=-2 tag=0 comm=0 seq=1] at "
            "MPI call #3 — waiting for ranks 0, 1 (dead: 1)\n");
}

TEST(HangDetection, CleanRunReportsClean) {
  const auto res = runPlan(R"(
    func main() {
      var right = (rank + 1) % size;
      mpi_send(right, 128, 0);
      mpi_recv((rank + size - 1) % size, 128, 0);
      mpi_barrier();
    })", 4, {}, vm::OnStall::Salvage);
  EXPECT_TRUE(res.clean());
  EXPECT_TRUE(res.stallDiagnostics.empty());
}

TEST(HangDetection, DelayedMessageStillCompletes) {
  // A delayed message must not hang the receiver — delivery is late,
  // not lost, so the run is clean.
  simmpi::FaultPlan plan;
  plan.faults.push_back(simmpi::parseFaultSpec("delay:0@1:5000000"));
  const auto res = runPlan(R"(
    func main() {
      if (rank == 0) { mpi_send(1, 64, 0); }
      if (rank == 1) { mpi_recv(0, 64, 0); }
    })", 2, plan, vm::OnStall::Salvage);
  EXPECT_TRUE(res.clean());
}

}  // namespace
}  // namespace cypress
