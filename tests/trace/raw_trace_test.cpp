// CYTR raw-trace deserialization bounds: the allocation budget scales
// with the input, so a legitimate trace of any size parses, while the
// hostile-count tests in verify_test.cpp keep tiny inputs from
// allocating gigabytes.
#include <gtest/gtest.h>

#include "trace/event.hpp"

namespace cypress::trace {
namespace {

TEST(RawTrace, RoundTripsMoreThan64MiBOfEvents) {
  // Enough events that their in-memory size alone exceeds the 64 MiB
  // default ByteReader budget (a real LU P=512 trace is this large).
  const size_t perRank = ((64u << 20) / sizeof(Event)) / 2 + 1000;
  RawTrace t;
  t.ranks.resize(2);
  for (int r = 0; r < 2; ++r) {
    t.ranks[static_cast<size_t>(r)].rank = r;
    auto& events = t.ranks[static_cast<size_t>(r)].events;
    events.reserve(perRank);
    for (size_t k = 0; k < perRank; ++k) {
      Event e;
      e.op = k % 2 == 0 ? ir::MpiOp::Send : ir::MpiOp::Recv;
      e.peer = 1 - r;
      e.bytes = static_cast<int64_t>(k % 4096);
      e.tag = static_cast<int32_t>(k % 7);
      e.callSiteId = static_cast<int32_t>(k % 3);
      events.push_back(e);
    }
  }
  ASSERT_GT(t.totalEvents() * sizeof(Event), size_t{64} << 20);
  const std::vector<uint8_t> bytes = t.serialize();
  const RawTrace back = RawTrace::deserialize(bytes);
  ASSERT_EQ(back.ranks.size(), 2u);
  for (size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(back.ranks[r].rank, t.ranks[r].rank);
    EXPECT_TRUE(back.ranks[r].events == t.ranks[r].events) << "rank " << r;
  }
}

}  // namespace
}  // namespace cypress::trace
