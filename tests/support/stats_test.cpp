#include "support/stats.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace cypress {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0u);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(42);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.sum(), 42u);
  EXPECT_EQ(s.mean(), 42u);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownMeanAndVariance) {
  RunningStats s;
  for (uint64_t v : {2, 4, 4, 4, 5, 5, 7, 9}) s.add(v);
  EXPECT_EQ(s.mean(), 5u);
  EXPECT_EQ(s.sum(), 40u);
  // Sample variance of the classic dataset: 32/7.
  EXPECT_EQ(s.variance(), 32.0 / 7.0);
  // The mean truncates: 10 / 3 events.
  RunningStats t;
  for (uint64_t v : {3, 3, 4}) t.add(v);
  EXPECT_EQ(t.mean(), 3u);
}

TEST(RunningStats, MergeMatchesSequential) {
  // Integer moments: any split and any merge order give the state that
  // adding every sample in sequence gives, exactly.
  Rng rng(7);
  RunningStats all, a, b, c;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.range(0, 100000);
    all.add(v);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(v);
  }
  RunningStats left = a, right = c;
  left.merge(b);
  left.merge(c);  // (a ⊕ b) ⊕ c
  right.merge(b);
  right.merge(a);  // (c ⊕ b) ⊕ a
  EXPECT_EQ(left, all);
  EXPECT_EQ(right, all);
  EXPECT_EQ(left.variance(), all.variance());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a, empty;
  a.add(1);
  a.add(3);
  RunningStats before = a;
  a.merge(empty);
  EXPECT_EQ(a, before);

  RunningStats c;
  c.merge(a);
  EXPECT_EQ(c, a);
  EXPECT_EQ(c.mean(), 2u);
}

TEST(RunningStats, SumOverflowIsAnError) {
  RunningStats s;
  s.add(UINT64_MAX);
  EXPECT_THROW(s.add(1), Error);
  RunningStats t;
  t.add(UINT64_MAX - 1);
  t.add(1);  // exactly 2^64 - 1: still fits
  EXPECT_EQ(t.sum(), UINT64_MAX);
}

TEST(RunningStats, SerializeRoundTrip) {
  // n = 0 writes n; n = 1 adds the sum; n >= 2 adds the sum of squares,
  // here up to a Σx² beyond 64 bits.
  for (int n : {0, 1, 2, 10}) {
    RunningStats s;
    for (int i = 1; i <= n; ++i)
      s.add(i == 10 ? UINT64_MAX / 4 : static_cast<uint64_t>(i) * 1500);
    ByteWriter w;
    s.serialize(w);
    ByteReader r(w.bytes());
    EXPECT_EQ(RunningStats::deserialize(r), s) << n;
    EXPECT_TRUE(r.atEnd());
  }
  ByteWriter w;
  RunningStats{}.serialize(w);
  EXPECT_EQ(w.bytes(), (std::vector<uint8_t>{0}));
}

TEST(LogHistogram, BucketBoundaries) {
  EXPECT_EQ(LogHistogram::bucketOf(0.0), 0);
  EXPECT_EQ(LogHistogram::bucketOf(1.0), 0);
  EXPECT_EQ(LogHistogram::bucketOf(1.9), 0);
  EXPECT_EQ(LogHistogram::bucketOf(2.0), 1);
  EXPECT_EQ(LogHistogram::bucketOf(3.9), 1);
  EXPECT_EQ(LogHistogram::bucketOf(4.0), 2);
  EXPECT_EQ(LogHistogram::bucketOf(1024.0), 10);
}

TEST(LogHistogram, CountsAndMerge) {
  LogHistogram a, b;
  a.add(1.0);
  a.add(5.0);
  b.add(5.5);
  b.add(1e6);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.bucket(0), 1u);
  EXPECT_EQ(a.bucket(2), 2u);
}

TEST(LogHistogram, ApproxMeanWithinBucketError) {
  LogHistogram h;
  for (int i = 0; i < 100; ++i) h.add(1000.0);
  // 1000 falls in bucket [512, 1024); midpoint representative is 768.
  EXPECT_NEAR(h.approxMean(), 768.0, 1e-9);
}

TEST(LogHistogram, SerializeRoundTripSparse) {
  LogHistogram h;
  h.add(3.0);
  h.add(1e9);
  h.add(1e9);
  ByteWriter w;
  h.serialize(w);
  ByteReader r(w.bytes());
  LogHistogram g = LogHistogram::deserialize(r);
  EXPECT_EQ(g.count(), 3u);
  for (int i = 0; i < LogHistogram::kBuckets; ++i) EXPECT_EQ(g.bucket(i), h.bucket(i));
}

TEST(LogHistogram, BucketsAllocatedOnFirstUse) {
  // Every CTT record carries a histogram that only TimeMode::Histogram
  // fills: an unused one holds no buckets, reads as all zeros and
  // serializes to the same two bytes as before.
  LogHistogram empty, other;
  empty.merge(other);
  EXPECT_EQ(empty.memoryBytes(), sizeof(LogHistogram));
  EXPECT_EQ(empty.bucket(LogHistogram::kBuckets - 1), 0u);
  ByteWriter w;
  empty.serialize(w);
  EXPECT_EQ(w.bytes(), (std::vector<uint8_t>{0, 0}));
  ByteReader r(w.bytes());
  EXPECT_EQ(LogHistogram::deserialize(r).memoryBytes(), sizeof(LogHistogram));

  other.add(3.0);
  empty.merge(other);
  EXPECT_GT(empty.memoryBytes(), sizeof(LogHistogram));
  EXPECT_EQ(empty.bucket(1), 1u);
}

}  // namespace
}  // namespace cypress
