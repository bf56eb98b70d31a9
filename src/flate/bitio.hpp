// LSB-first bit stream reader/writer used by the flate codec.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/error.hpp"

namespace cypress::flate {

class BitWriter {
 public:
  /// Write the low `nbits` bits of `bits`, LSB first.
  void put(uint32_t bits, int nbits) {
    acc_ |= static_cast<uint64_t>(bits & ((1u << nbits) - 1u)) << fill_;
    fill_ += nbits;
    while (fill_ >= 8) {
      out_.push_back(static_cast<uint8_t>(acc_));
      acc_ >>= 8;
      fill_ -= 8;
    }
  }

  /// Pad to a byte boundary with zero bits.
  void align() {
    if (fill_ > 0) {
      out_.push_back(static_cast<uint8_t>(acc_));
      acc_ = 0;
      fill_ = 0;
    }
  }

  std::vector<uint8_t> take() {
    align();
    return std::move(out_);
  }

 private:
  std::vector<uint8_t> out_;
  uint64_t acc_ = 0;
  int fill_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::span<const uint8_t> data) : data_(data) {}

  /// Read `nbits` bits, LSB first.
  uint32_t get(int nbits) {
    while (fill_ < nbits) {
      CYP_CHECK(pos_ < data_.size(), "flate: bit stream underflow");
      acc_ |= static_cast<uint64_t>(data_[pos_++]) << fill_;
      fill_ += 8;
    }
    uint32_t v = static_cast<uint32_t>(acc_ & ((1ull << nbits) - 1ull));
    acc_ >>= nbits;
    fill_ -= nbits;
    return v;
  }

  /// Read a single bit.
  uint32_t bit() { return get(1); }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  uint64_t acc_ = 0;
  int fill_ = 0;
};

}  // namespace cypress::flate
