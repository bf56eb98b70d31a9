// Time-statistics records used by CTT leaf vertices.
//
// The paper (§IV-A) supports two recordings for communication time:
//   1. mean + standard deviation of the repeated operations
//   2. a histogram of the time distribution
// Both are implemented here: RunningStats (exact integer moments) and
// LogHistogram (power-of-two buckets, suitable for latencies spanning
// decades).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/bytebuf.hpp"

namespace cypress {

/// Exact moments (n, Σx, Σx²) of integer times (ns). add() and merge()
/// are integer additions, so they commute and associate: every merge
/// order of the same samples yields the same state, and the same bytes.
class RunningStats {
 public:
  void add(uint64_t x) {
    addSum(1, x);
    sumSq_ += static_cast<unsigned __int128>(x) * x;
  }

  /// Pool another stats record into this one. Σx² cannot overflow once
  /// Σx fits: for non-negative samples Σx² ≤ (Σx)² < 2^128.
  void merge(const RunningStats& o) {
    addSum(o.n_, o.sum_);
    sumSq_ += o.sumSq_;
  }

  uint64_t count() const { return n_; }
  uint64_t sum() const { return sum_; }
  /// The mean, truncated to whole nanoseconds: the one time every
  /// expanded event of a record carries (decompression, queries, replay).
  uint64_t mean() const { return n_ ? sum_ / n_ : 0; }
  /// Sample variance (Σx² − (Σx)²/n) / (n − 1), the integer part exact.
  double variance() const {
    if (n_ < 2) return 0.0;
    const unsigned __int128 s2 = static_cast<unsigned __int128>(sum_) * sum_;
    return (static_cast<double>(sumSq_ - s2 / n_) -
            static_cast<double>(s2 % n_) / n_) / (n_ - 1);
  }
  double stddev() const { return std::sqrt(variance()); }

  bool operator==(const RunningStats&) const = default;

  /// uv n | uv Σx if n ≥ 1 | 128-bit varint Σx² if n ≥ 2 (for n = 1,
  /// Σx² = (Σx)²).
  void serialize(ByteWriter& w) const {
    w.uv(n_);
    if (n_ >= 1) w.uv(sum_);
    if (n_ >= 2) w.uv128(sumSq_);
  }

  static RunningStats deserialize(ByteReader& r) {
    RunningStats s;
    s.n_ = r.uv();
    if (s.n_ == 0) return s;
    s.sum_ = r.uv();
    const unsigned __int128 s2 = static_cast<unsigned __int128>(s.sum_) * s.sum_;
    if (s.n_ == 1) {
      s.sumSq_ = s2;
      return s;
    }
    s.sumSq_ = r.uv128();
    // Non-negative samples satisfy (Σx)²/n ≤ Σx² ≤ (Σx)²; below the
    // bound the variance would be negative. (s2 + n - 1 cannot wrap:
    // s2 ≤ (2^64 - 1)² and n < 2^64.)
    CYP_CHECK(s.sumSq_ >= (s2 + s.n_ - 1) / s.n_ && s.sumSq_ <= s2,
              "time statistics: sum of squares inconsistent with n = "
                  << s.n_ << " and sum = " << s.sum_
                  << " (negative or impossible variance)");
    return s;
  }

 private:
  void addSum(uint64_t n, uint64_t x) {
    CYP_CHECK(!__builtin_add_overflow(n_, n, &n_) &&
                  !__builtin_add_overflow(sum_, x, &sum_),
              "time statistics: count or sum overflows 64 bits");
  }

  uint64_t n_ = 0;
  uint64_t sum_ = 0;
  unsigned __int128 sumSq_ = 0;
};

/// Histogram over power-of-two buckets: bucket i counts values in
/// [2^i, 2^(i+1)) (values are expected in integral time units, e.g. ns).
/// Bucket 0 also absorbs values < 1.
class LogHistogram {
 public:
  static constexpr int kBuckets = 48;

  void add(double x) {
    ++n_;
    allocate();
    buckets_[static_cast<size_t>(bucketOf(x))]++;
  }

  void merge(const LogHistogram& o) {
    n_ += o.n_;
    if (o.buckets_.empty()) return;
    allocate();
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
  }

  uint64_t count() const { return n_; }
  /// In-memory footprint, for the memory-overhead experiments.
  size_t memoryBytes() const {
    return sizeof(*this) + buckets_.capacity() * sizeof(uint64_t);
  }
  uint64_t bucket(int i) const {
    return buckets_.empty() ? 0 : buckets_[static_cast<size_t>(i)];
  }

  /// Representative (geometric-ish midpoint) value of bucket i, used when
  /// reconstructing times during replay.
  static double bucketMid(int i) {
    return i == 0 ? 1.0 : std::ldexp(1.5, i);
  }

  /// Mean reconstructed from bucket midpoints.
  double approxMean() const {
    if (n_ == 0) return 0.0;
    double s = 0.0;
    for (int i = 0; i < kBuckets; ++i)
      s += static_cast<double>(bucket(i)) * bucketMid(i);
    return s / static_cast<double>(n_);
  }

  static int bucketOf(double x) {
    if (!(x >= 1.0)) return 0;
    int e = 0;
    std::frexp(x, &e);  // x = m * 2^e, m in [0.5,1)
    int b = e - 1;
    if (b < 0) b = 0;
    if (b >= kBuckets) b = kBuckets - 1;
    return b;
  }

  void serialize(ByteWriter& w) const {
    w.uv(n_);
    // Sparse encoding: (index, count) pairs.
    uint32_t nz = 0;
    for (auto c : buckets_)
      if (c) ++nz;
    w.uv(nz);
    for (int i = 0; i < kBuckets; ++i) {
      if (bucket(i)) {
        w.uv(static_cast<uint64_t>(i));
        w.uv(bucket(i));
      }
    }
  }

  static LogHistogram deserialize(ByteReader& r) {
    LogHistogram h;
    h.n_ = r.uv();
    const uint64_t nz = r.checkedCount(r.uv(), 2);
    CYP_CHECK(nz <= static_cast<uint64_t>(kBuckets),
              "histogram has " << nz << " sparse entries for " << kBuckets
                               << " buckets");
    if (nz != 0) h.allocate();
    for (uint64_t k = 0; k < nz; ++k) {
      uint64_t i = r.uv();
      CYP_CHECK(i < kBuckets, "bad histogram bucket index " << i);
      h.buckets_[i] = r.uv();
    }
    return h;
  }

 private:
  void allocate() {
    if (buckets_.empty()) buckets_.resize(kBuckets);
  }

  uint64_t n_ = 0;
  // All kBuckets counters, or empty until the first add / merge /
  // non-empty deserialize: only TimeMode::Histogram recordings fill a
  // histogram, and every CTT record carries one.
  std::vector<uint64_t> buckets_;
};

}  // namespace cypress
