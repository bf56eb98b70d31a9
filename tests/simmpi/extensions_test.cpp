// Tests for the extended MPI surface: MPI_Waitsome partial completion
// (paper §IV-A), MPI_Comm_split + sub-communicator collectives, and the
// mpi_sendrecv sugar — each verified through the full pipeline
// (engine semantics, CYPRESS lossless round trip, SIM-MPI replay).
#include <gtest/gtest.h>

#include "cypress/decompress.hpp"
#include "driver/pipeline.hpp"
#include "replay/simulator.hpp"
#include "scalatrace/inter.hpp"

namespace cypress {
namespace {

std::vector<trace::Event> contentOnly(std::vector<trace::Event> ev) {
  for (auto& e : ev) {
    e.computeNs = 0;
    e.durationNs = 0;
  }
  return ev;
}

driver::RunOutput runIt(const std::string& src, int procs) {
  driver::Options opts;
  opts.procs = procs;
  return driver::runSource("ext", src, opts);
}

void expectCypressLossless(const driver::RunOutput& run) {
  core::MergedCtt merged = driver::mergeCypress(run);
  for (int r = 0; r < run.procs; ++r) {
    auto got = contentOnly(core::decompressRank(merged, r));
    auto want = contentOnly(run.raw.ranks[static_cast<size_t>(r)].events);
    ASSERT_EQ(got.size(), want.size()) << "rank " << r;
    for (size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << "rank " << r << " event " << i << "\n got "
                                 << got[i].toString() << "\nwant "
                                 << want[i].toString();
  }
}

TEST(Waitsome, CompletesAllReadyRequests) {
  auto run = runIt(R"(
    func main() {
      var a = mpi_isend((rank + 1) % size, 64, 0);
      var b = mpi_isend((rank + 1) % size, 64, 1);
      var c = mpi_irecv((rank + size - 1) % size, 64, 0);
      var d = mpi_irecv((rank + size - 1) % size, 64, 1);
      mpi_waitsome();
      mpi_waitall();
    })", 4);
  // Waitsome emits one event per completed request; at least the two
  // eager sends complete immediately.
  const auto& ev = run.raw.ranks[0].events;
  int some = 0, all = 0;
  for (const auto& e : ev) {
    if (e.op == ir::MpiOp::Waitsome) ++some;
    if (e.op == ir::MpiOp::Waitall) ++all;
  }
  EXPECT_GE(some, 2);
  EXPECT_EQ(all, 1);
  // Each Waitsome event carries the posting site of the request it
  // completed (the paper's GID recording for partial completion).
  for (const auto& e : ev) {
    if (e.op == ir::MpiOp::Waitsome) {
      EXPECT_GE(e.reqId, 0);
    }
  }
  expectCypressLossless(run);
}

TEST(Waitsome, VariableMultiplicityAcrossIterationsStaysLossless) {
  // The number of Waitsome completions per iteration can vary with
  // message timing; leaf multiplicity must replay exactly.
  auto run = runIt(R"(
    func main() {
      for (var i = 0; i < 6; i = i + 1) {
        var a = mpi_isend((rank + 1) % size, 32 + i, 0);
        var b = mpi_irecv((rank + size - 1) % size, 32 + i, 0);
        mpi_waitsome();
        mpi_waitall();
      }
    })", 3);
  expectCypressLossless(run);
}

TEST(Waitsome, ReplaySimulatesCompletions) {
  auto run = runIt(R"(
    func main() {
      var a = mpi_isend((rank + 1) % size, 2048, 0);
      var b = mpi_irecv((rank + size - 1) % size, 2048, 0);
      mpi_waitsome();
      mpi_waitall();
    })", 3);
  core::MergedCtt merged = driver::mergeCypress(run);
  trace::RawTrace dec = core::decompressAll(merged, run.procs);
  replay::Prediction p = replay::simulate(dec);
  EXPECT_EQ(p.totalEvents, run.raw.totalEvents());
}

TEST(CommSplit, RowCommunicatorsFormCorrectly) {
  auto run = runIt(R"(
    func main() {
      var rowsz = 4;
      var c = mpi_comm_split(rank / rowsz, rank % rowsz);
      mpi_allreduce_c(c, 128);
      mpi_barrier_c(c);
      mpi_barrier();
    })", 16);
  // Every rank got a valid handle; ranks in the same row share it.
  std::vector<int64_t> handle(16, -1);
  for (const auto& r : run.raw.ranks)
    for (const auto& e : r.events)
      if (e.op == ir::MpiOp::CommSplit) handle[static_cast<size_t>(r.rank)] = e.reqId;
  for (int r = 0; r < 16; ++r) {
    EXPECT_GT(handle[static_cast<size_t>(r)], 0) << "rank " << r;
    EXPECT_EQ(handle[static_cast<size_t>(r)], handle[static_cast<size_t>(r / 4 * 4)]);
  }
  // Different rows, different communicators.
  EXPECT_NE(handle[0], handle[4]);
  expectCypressLossless(run);
}

TEST(CommSplit, SubCommunicatorCollectivesOnlySyncMembers) {
  // Row 0 does many reductions; row 1 only one. Would deadlock if the
  // sub-collectives synchronized everyone.
  auto run = runIt(R"(
    func main() {
      var c = mpi_comm_split(rank / 2, rank);
      if (rank < 2) {
        for (var i = 0; i < 5; i = i + 1) { mpi_allreduce_c(c, 8); }
      } else {
        mpi_allreduce_c(c, 8);
      }
      mpi_barrier();
    })", 4);
  EXPECT_EQ(run.raw.ranks[0].events.size(), 7u);  // split + 5 + barrier
  EXPECT_EQ(run.raw.ranks[2].events.size(), 3u);
  expectCypressLossless(run);
}

TEST(CommSplit, NegativeColorGetsNoCommunicator) {
  auto run = runIt(R"(
    func main() {
      var color = 0 - 1;
      if (rank % 2 == 0) { color = 0; }
      var c = mpi_comm_split(color, rank);
      if (rank % 2 == 0) { mpi_barrier_c(c); }
      mpi_barrier();
    })", 6);
  for (const auto& r : run.raw.ranks) {
    for (const auto& e : r.events) {
      if (e.op == ir::MpiOp::CommSplit && r.rank % 2 == 1) {
        EXPECT_EQ(e.reqId, -1);
      }
    }
  }
  expectCypressLossless(run);
}

TEST(CommSplit, NestedSplitsWork) {
  auto run = runIt(R"(
    func main() {
      var half = mpi_comm_split(rank / 4, rank);     // two groups of 4
      var quarter = mpi_comm_split(rank / 2, rank);  // four groups of 2
      mpi_allreduce_c(half, 64);
      mpi_allreduce_c(quarter, 16);
      mpi_barrier();
    })", 8);
  expectCypressLossless(run);
}

TEST(CommSplit, HandlesArePinned) {
  // Two successive splits: halves keyed in reverse rank order, then a
  // split where ranks 1, 4 and 7 pass a negative color. Each distinct
  // non-negative color gets the next communicator id in color order,
  // whatever order the members arrive in; a negative color gets -1.
  auto run = runIt(R"(
    func main() {
      compute((size - rank) * 1000);
      var half = mpi_comm_split(rank / 4, size - rank);
      var color = 0 - 1;
      if (rank % 3 != 1) { color = 2 - rank % 3; }
      var third = mpi_comm_split(color, rank);
      mpi_allreduce_c(half, 8);
      if (rank % 3 != 1) { mpi_barrier_c(third); }
      mpi_barrier();
    })", 8);
  std::vector<std::vector<int64_t>> handles(8);
  for (const auto& r : run.raw.ranks)
    for (const auto& e : r.events)
      if (e.op == ir::MpiOp::CommSplit)
        handles[static_cast<size_t>(r.rank)].push_back(e.reqId);
  const std::vector<std::vector<int64_t>> want = {
      {1, 4}, {1, -1}, {1, 3}, {1, 4}, {2, -1}, {2, 3}, {2, 4}, {2, -1}};
  EXPECT_EQ(handles, want);
  expectCypressLossless(run);
}

TEST(CommSplit, ReplayRebuildsCommunicators) {
  auto run = runIt(R"(
    func main() {
      var c = mpi_comm_split(rank / 4, rank);
      compute(rank * 10000);
      mpi_allreduce_c(c, 256);
      mpi_barrier();
    })", 8);
  core::MergedCtt merged = driver::mergeCypress(run);
  trace::RawTrace dec = core::decompressAll(merged, run.procs);
  replay::Prediction p = replay::simulate(dec);
  EXPECT_EQ(p.totalEvents, run.raw.totalEvents());
  EXPECT_GT(p.predictedNs, 0u);
}

TEST(CommSplit, MismatchedMembershipDetected) {
  // Rank 1 calls a world barrier while rank 0 waits on the sub-comm
  // collective that rank 1 never joins -> deadlock detection fires.
  EXPECT_THROW(runIt(R"(
    func main() {
      var c = mpi_comm_split(rank / 2, rank);
      if (rank == 0) { mpi_allreduce_c(c, 8); }
      mpi_barrier();
    })", 4),
               Error);
}

TEST(Sendrecv, LowersToPairedSendRecv) {
  auto run = runIt(R"(
    func main() {
      for (var i = 0; i < 4; i = i + 1) {
        mpi_sendrecv((rank + 1) % size, 512, 3,
                     (rank + size - 1) % size, 512, 3);
      }
    })", 5);
  const auto& ev = run.raw.ranks[2].events;
  ASSERT_EQ(ev.size(), 8u);
  EXPECT_EQ(ev[0].op, ir::MpiOp::Send);
  EXPECT_EQ(ev[1].op, ir::MpiOp::Recv);
  EXPECT_NE(ev[0].callSiteId, ev[1].callSiteId);
  expectCypressLossless(run);
}

TEST(Extensions, ScalaTraceHandlesNewOpsLosslessly) {
  driver::Options opts;
  opts.procs = 4;
  auto run = driver::runSource("ext", R"(
    func main() {
      var c = mpi_comm_split(rank / 2, rank);
      for (var i = 0; i < 3; i = i + 1) {
        var a = mpi_isend((rank + 1) % size, 128, 0);
        var b = mpi_irecv((rank + size - 1) % size, 128, 0);
        mpi_waitsome();
        mpi_waitall();
        mpi_allreduce_c(c, 32);
      }
      mpi_barrier();
    })", opts);
  std::vector<const std::vector<scalatrace::Element>*> seqs;
  for (const auto& r : run.scala) seqs.push_back(&r->sequence());
  auto merged = scalatrace::mergeSequences(seqs, scalatrace::Flavor::V1);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(contentOnly(scalatrace::decompressRank(merged, r)),
              contentOnly(run.raw.ranks[static_cast<size_t>(r)].events));
  }
}

}  // namespace
}  // namespace cypress
