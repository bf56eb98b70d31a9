#include "support/stats.hpp"

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace cypress {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStats, KnownMeanAndVariance) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of the classic dataset: 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(7);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    double v = static_cast<double>(rng.range(0, 100000)) / 7.0;
    all.add(v);
    (i % 3 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  RunningStats before = a;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), before.mean());

  RunningStats c;
  c.merge(a);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.mean(), 2.0);
}

TEST(RunningStats, SerializeRoundTrip) {
  RunningStats s;
  for (int i = 1; i <= 10; ++i) s.add(i * 1.5);
  ByteWriter w;
  s.serialize(w);
  ByteReader r(w.bytes());
  RunningStats t = RunningStats::deserialize(r);
  EXPECT_EQ(t.count(), s.count());
  EXPECT_DOUBLE_EQ(t.mean(), s.mean());
  EXPECT_DOUBLE_EQ(t.variance(), s.variance());
  EXPECT_DOUBLE_EQ(t.min(), s.min());
  EXPECT_DOUBLE_EQ(t.max(), s.max());
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
