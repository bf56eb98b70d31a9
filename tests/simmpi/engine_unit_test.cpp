// Engine unit tests driving simmpi::Engine directly (no VM): message
// matching rules, request lifecycle errors, clock/timing invariants, and
// misuse detection.
#include <gtest/gtest.h>

#include "simmpi/engine.hpp"
#include "support/error.hpp"

namespace cypress::simmpi {
namespace {

OpDesc send(int dst, int64_t bytes, int tag, int site = 0) {
  OpDesc d;
  d.op = ir::MpiOp::Send;
  d.peer = dst;
  d.bytes = bytes;
  d.tag = tag;
  d.callSiteId = site;
  return d;
}

OpDesc recv(int src, int64_t bytes, int tag, int site = 1) {
  OpDesc d;
  d.op = ir::MpiOp::Recv;
  d.peer = src;
  d.bytes = bytes;
  d.tag = tag;
  d.callSiteId = site;
  return d;
}

Engine makeEngine(int ranks, double jitter = 0.0) {
  Engine::Config cfg;
  cfg.numRanks = ranks;
  cfg.jitter = jitter;
  return Engine(cfg);
}

TEST(EngineUnit, EagerSendCompletesImmediately) {
  Engine e = makeEngine(2);
  EXPECT_EQ(e.execute(0, send(1, 1024, 0)), OpStatus::Complete);
  EXPECT_GT(e.clockNs(0), 0u);
  EXPECT_EQ(e.clockNs(1), 0u);  // receiver untouched
}

TEST(EngineUnit, RecvBlocksUntilMessageArrives) {
  Engine e = makeEngine(2);
  EXPECT_EQ(e.execute(1, recv(0, 64, 7)), OpStatus::Blocked);
  EXPECT_EQ(e.poll(1), OpStatus::Blocked);
  EXPECT_EQ(e.execute(0, send(1, 64, 7)), OpStatus::Complete);
  EXPECT_EQ(e.poll(1), OpStatus::Complete);
}

TEST(EngineUnit, TagMismatchDoesNotMatch) {
  Engine e = makeEngine(2);
  EXPECT_EQ(e.execute(0, send(1, 64, 1)), OpStatus::Complete);
  EXPECT_EQ(e.execute(1, recv(0, 64, 2)), OpStatus::Blocked);
  EXPECT_EQ(e.poll(1), OpStatus::Blocked);
  // The right tag arrives later and matches.
  EXPECT_EQ(e.execute(0, send(1, 64, 2)), OpStatus::Complete);
  EXPECT_EQ(e.poll(1), OpStatus::Complete);
}

TEST(EngineUnit, NonOvertakingSameTag) {
  Engine e = makeEngine(2);
  e.execute(0, send(1, 111, 0));
  e.execute(0, send(1, 222, 0));
  trace::RankTrace rt;
  trace::RawRecorder rec(rt);
  e.setObserver(1, &rec);
  EXPECT_EQ(e.execute(1, recv(0, 111, 0)), OpStatus::Complete);
  EXPECT_EQ(e.execute(1, recv(0, 222, 0)), OpStatus::Complete);
  ASSERT_EQ(rt.events.size(), 2u);
  EXPECT_EQ(rt.events[0].bytes, 111);
  EXPECT_EQ(rt.events[1].bytes, 222);
}

TEST(EngineUnit, WildcardMatchesLowestSourceNotArrivalOrder) {
  // MPI_ANY_SOURCE matching must be a function of the set of buffered
  // messages, not of the delivery schedule that built it: the lowest
  // source rank wins even when a higher rank's message arrived first.
  Engine e = makeEngine(3);
  e.execute(2, send(0, 5, 9));
  e.execute(1, send(0, 5, 9));
  trace::RankTrace rt;
  trace::RawRecorder rec(rt);
  e.setObserver(0, &rec);
  EXPECT_EQ(e.execute(0, recv(trace::kAnySource, 5, 9)), OpStatus::Complete);
  ASSERT_EQ(rt.events.size(), 1u);
  EXPECT_EQ(rt.events[0].matchedSource, 1);  // lowest source, not first arrival
}

TEST(EngineUnit, WildcardIsFifoWithinOnePair) {
  // Two wildcard receives draining two buffered same-tag messages from
  // one sender must preserve that sender's FIFO order (non-overtaking).
  // The first posted receive has room only for the first (smaller)
  // message, so matching the later, larger one instead would raise the
  // MPI_ERR_TRUNCATE check.
  Engine e = makeEngine(2);
  e.execute(1, send(0, 111, 3));
  e.execute(1, send(0, 222, 3));
  trace::RankTrace rt;
  trace::RawRecorder rec(rt);
  e.setObserver(0, &rec);
  EXPECT_EQ(e.execute(0, recv(trace::kAnySource, 111, 3)), OpStatus::Complete);
  EXPECT_EQ(e.execute(0, recv(trace::kAnySource, 222, 3)), OpStatus::Complete);
  ASSERT_EQ(rt.events.size(), 2u);
  EXPECT_EQ(rt.events[0].matchedSource, 1);
  EXPECT_EQ(rt.events[1].matchedSource, 1);
}

TEST(EngineUnit, TruncationCheckedOnTheMatchedMessageOnly) {
  // A too-large message from a *different* pair must not trip the
  // truncation check while scanning for a specific-source match.
  Engine e = makeEngine(3);
  e.execute(2, send(0, 4096, 3));  // big message, wrong source
  e.execute(1, send(0, 64, 3));
  EXPECT_EQ(e.execute(0, recv(1, 64, 3)), OpStatus::Complete);
  // But actually matching an oversized message is MPI_ERR_TRUNCATE.
  EXPECT_THROW(e.execute(0, recv(2, 64, 3)), Error);
}

TEST(EngineUnit, WildcardMatchIndependentOfDeliverySchedule) {
  // A perturbed delivery schedule (senders issuing in different orders)
  // buffers the same message set, so the wildcard receiver must produce
  // an identical matched-source sequence either way.
  auto drain = [](const std::vector<int>& sendOrder) {
    Engine e = makeEngine(4);
    for (int s : sendOrder) e.execute(s, send(0, 8, 1));
    trace::RankTrace rt;
    trace::RawRecorder rec(rt);
    e.setObserver(0, &rec);
    for (size_t i = 0; i < sendOrder.size(); ++i)
      EXPECT_EQ(e.execute(0, recv(trace::kAnySource, 8, 1)),
                OpStatus::Complete);
    std::vector<int> matched;
    for (const auto& ev : rt.events) matched.push_back(ev.matchedSource);
    return matched;
  };
  const auto a = drain({3, 1, 2});
  const auto b = drain({2, 3, 1});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, (std::vector<int>{1, 2, 3}));
}

TEST(EngineUnit, IssuingWhilePendingIsAnError) {
  Engine e = makeEngine(2);
  EXPECT_EQ(e.execute(1, recv(0, 64, 0)), OpStatus::Blocked);
  EXPECT_THROW(e.execute(1, send(0, 8, 0)), Error);
}

TEST(EngineUnit, WaitOnConsumedRequestIsAnError) {
  Engine e = makeEngine(2);
  int64_t req = -1;
  OpDesc d;
  d.op = ir::MpiOp::Isend;
  d.peer = 1;
  d.bytes = 8;
  d.tag = 0;
  ASSERT_EQ(e.execute(0, d, &req), OpStatus::Complete);
  OpDesc w;
  w.op = ir::MpiOp::Wait;
  w.waitReqId = req;
  ASSERT_EQ(e.execute(0, w), OpStatus::Complete);
  EXPECT_THROW(e.execute(0, w), Error);  // already consumed
}

TEST(EngineUnit, RetiredRequestsKeepTheirHandles) {
  // Completed-and-waited requests are dropped from the rank's table as
  // new ones arrive; handles keep counting up, and a retired handle
  // still cannot be waited on twice.
  Engine e = makeEngine(2);
  OpDesc d;
  d.op = ir::MpiOp::Isend;
  d.peer = 1;
  d.bytes = 8;
  d.tag = 0;
  OpDesc w;
  w.op = ir::MpiOp::Wait;
  for (int64_t want = 0; want < 5; ++want) {
    int64_t req = -1;
    ASSERT_EQ(e.execute(0, d, &req), OpStatus::Complete);
    EXPECT_EQ(req, want);
    w.waitReqId = req;
    ASSERT_EQ(e.execute(0, w), OpStatus::Complete);
  }
  w.waitReqId = 0;
  EXPECT_THROW(e.execute(0, w), Error);  // retired, already consumed
  w.waitReqId = 5;
  EXPECT_THROW(e.execute(0, w), Error);  // never issued
}

TEST(EngineUnit, EventCountCountsEmittedEvents) {
  Engine e = makeEngine(2);
  EXPECT_EQ(e.execute(1, recv(0, 64, 0)), OpStatus::Blocked);
  EXPECT_EQ(e.eventCount(1), 0u);  // a blocked call has emitted nothing
  for (int k = 0; k < 3; ++k)
    EXPECT_EQ(e.execute(0, send(1, 64, 0)), OpStatus::Complete);
  EXPECT_EQ(e.poll(1), OpStatus::Complete);
  EXPECT_EQ(e.execute(1, recv(0, 64, 0)), OpStatus::Complete);
  EXPECT_EQ(e.eventCount(0), 3u);
  EXPECT_EQ(e.eventCount(1), 2u);
}

TEST(EngineUnit, FinalizeWithOutstandingRequestIsAnError) {
  Engine e = makeEngine(2);
  int64_t req = -1;
  OpDesc d;
  d.op = ir::MpiOp::Irecv;
  d.peer = 0;
  d.bytes = 8;
  d.tag = 0;
  ASSERT_EQ(e.execute(1, d, &req), OpStatus::Complete);
  EXPECT_THROW(e.finalizeRank(1), Error);
}

TEST(EngineUnit, PollWithoutPendingIsAnError) {
  Engine e = makeEngine(1);
  EXPECT_THROW(e.poll(0), Error);
}

TEST(EngineUnit, SendToInvalidRankIsAnError) {
  Engine e = makeEngine(2);
  EXPECT_THROW(e.execute(0, send(5, 8, 0)), Error);
  EXPECT_THROW(e.execute(0, send(-1, 8, 0)), Error);
}

TEST(EngineUnit, ComputeAdvancesClockAndAccumulates) {
  Engine e = makeEngine(1);
  e.addCompute(0, 1000);
  e.addCompute(0, 500);
  EXPECT_EQ(e.clockNs(0), 1500u);
  trace::RankTrace rt;
  trace::RawRecorder rec(rt);
  e.setObserver(0, &rec);
  OpDesc b;
  b.op = ir::MpiOp::Barrier;
  EXPECT_EQ(e.execute(0, b), OpStatus::Complete);  // single-rank barrier
  ASSERT_EQ(rt.events.size(), 1u);
  EXPECT_EQ(rt.events[0].computeNs, 1500u);
}

TEST(EngineUnit, TransferTimeScalesWithBytes) {
  Engine e = makeEngine(2);
  e.execute(0, send(1, 1, 0));
  const uint64_t small = e.clockNs(0);
  Engine e2 = makeEngine(2);
  e2.execute(0, send(1, 1 << 20, 0));
  EXPECT_GT(e2.clockNs(0), small * 10);
}

TEST(EngineUnit, JitterIsDeterministicPerSeed) {
  Engine a = makeEngine(2, 0.1);
  Engine b = makeEngine(2, 0.1);
  a.execute(0, send(1, 4096, 0));
  b.execute(0, send(1, 4096, 0));
  EXPECT_EQ(a.clockNs(0), b.clockNs(0));
}

TEST(EngineUnit, CollectiveDurationCoversWait) {
  Engine e = makeEngine(2);
  trace::RankTrace rt0;
  trace::RawRecorder rec0(rt0);
  e.setObserver(0, &rec0);
  e.addCompute(1, 1000000);  // rank 1 arrives late
  OpDesc b;
  b.op = ir::MpiOp::Barrier;
  ASSERT_EQ(e.execute(0, b), OpStatus::Blocked);
  ASSERT_EQ(e.execute(1, b), OpStatus::Complete);
  ASSERT_EQ(e.poll(0), OpStatus::Complete);
  ASSERT_EQ(rt0.events.size(), 1u);
  // Rank 0 waited for rank 1's compute inside the barrier.
  EXPECT_GT(rt0.events[0].durationNs, 1000000u);
  EXPECT_EQ(e.clockNs(0), e.clockNs(1));
}

TEST(EngineUnit, CommWorldMembers) {
  Engine e = makeEngine(4);
  EXPECT_EQ(e.commMembers(0).size(), 4u);
  EXPECT_THROW(e.commMembers(7), Error);
}

TEST(EngineUnit, CommSplitAssignsDisjointGroups) {
  Engine e = makeEngine(4);
  auto split = [&](int rank) {
    OpDesc d;
    d.op = ir::MpiOp::CommSplit;
    d.color = rank / 2;
    d.key = rank;
    return d;
  };
  EXPECT_EQ(e.execute(0, split(0)), OpStatus::Blocked);
  EXPECT_EQ(e.execute(1, split(1)), OpStatus::Blocked);
  EXPECT_EQ(e.execute(2, split(2)), OpStatus::Blocked);
  EXPECT_EQ(e.execute(3, split(3)), OpStatus::Complete);
  const int64_t c3 = e.takeOpResult(3);
  EXPECT_EQ(e.poll(0), OpStatus::Complete);
  const int64_t c0 = e.takeOpResult(0);
  e.poll(1);
  const int64_t c1 = e.takeOpResult(1);
  e.poll(2);
  const int64_t c2 = e.takeOpResult(2);
  EXPECT_EQ(c0, c1);
  EXPECT_EQ(c2, c3);
  EXPECT_NE(c0, c2);
  EXPECT_EQ(e.commMembers(static_cast<int>(c0)),
            (std::vector<int>{0, 1}));
  EXPECT_EQ(e.commMembers(static_cast<int>(c2)),
            (std::vector<int>{2, 3}));
}

}  // namespace
}  // namespace cypress::simmpi
