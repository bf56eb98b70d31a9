// Time-statistics records used by CTT leaf vertices.
//
// The paper (§IV-A) supports two recordings for communication time:
//   1. mean + standard deviation of the repeated operations
//   2. a histogram of the time distribution
// Both are implemented here: RunningStats (Welford) and LogHistogram
// (power-of-two buckets, suitable for latencies spanning decades).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/bytebuf.hpp"

namespace cypress {

/// Numerically stable running mean / variance (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    if (x < min_ || n_ == 1) min_ = x;
    if (x > max_ || n_ == 1) max_ = x;
    sum_ += x;
  }

  /// Pool another stats record into this one (parallel-merge formula).
  void merge(const RunningStats& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double d = o.mean_ - mean_;
    const uint64_t n = n_ + o.n_;
    m2_ += o.m2_ + d * d * static_cast<double>(n_) * static_cast<double>(o.n_) /
                       static_cast<double>(n);
    mean_ += d * static_cast<double>(o.n_) / static_cast<double>(n);
    if (o.min_ < min_) min_ = o.min_;
    if (o.max_ > max_) max_ = o.max_;
    sum_ += o.sum_;
    n_ = n;
  }

  uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  void serialize(ByteWriter& w) const {
    w.uv(n_);
    if (n_ == 0) return;
    w.f64(mean_);
    w.f64(m2_);
    w.f64(min_);
    w.f64(max_);
    w.f64(sum_);
  }

  static RunningStats deserialize(ByteReader& r) {
    RunningStats s;
    s.n_ = r.uv();
    if (s.n_ == 0) return s;
    s.mean_ = r.f64();
    s.m2_ = r.f64();
    s.min_ = r.f64();
    s.max_ = r.f64();
    s.sum_ = r.f64();
    return s;
  }

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
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

  /// Lower edge of bucket i.
  static double bucketLow(int i) { return i == 0 ? 0.0 : std::ldexp(1.0, i); }

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
