// Lightweight CPU timers for the overhead experiments.
//
// The intra-process overhead figures (paper Fig. 16) charge each tool
// for the time spent inside its per-event record call; CostMeter
// accumulates those charges. Metering is opt-in: a ScopedCost over a
// null meter reads no clock, so hooks that are not being measured pay
// one branch instead of two steady_clock reads.
#pragma once

#include <chrono>
#include <cstdint>

namespace cypress {

/// Monotonic nanosecond clock.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Accumulates time across many short regions.
class CostMeter {
 public:
  void add(uint64_t ns) { total_ += ns; }
  uint64_t totalNs() const { return total_; }
  double totalSeconds() const { return static_cast<double>(total_) * 1e-9; }
  void reset() { total_ = 0; }

 private:
  uint64_t total_ = 0;
};

/// RAII region timer charging into a CostMeter; a no-op (no clock
/// reads) when the meter is null.
class ScopedCost {
 public:
  explicit ScopedCost(CostMeter* m) : meter_(m), start_(m ? nowNs() : 0) {}
  ~ScopedCost() {
    if (meter_) meter_->add(nowNs() - start_);
  }
  ScopedCost(const ScopedCost&) = delete;
  ScopedCost& operator=(const ScopedCost&) = delete;

 private:
  CostMeter* meter_;
  uint64_t start_;
};

/// One-shot stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(nowNs()) {}
  double seconds() const { return static_cast<double>(nowNs() - start_) * 1e-9; }
  uint64_t ns() const { return nowNs() - start_; }
  void restart() { start_ = nowNs(); }

 private:
  uint64_t start_;
};

}  // namespace cypress
