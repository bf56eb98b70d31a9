// Compact binary serialization: ByteWriter / ByteReader with LEB128
// varints and zigzag-encoded signed integers.
//
// All cypress on-disk formats (serialized CSTs, compressed trace trees,
// raw traces, baseline formats) are built on these primitives so that
// size accounting is consistent across tools.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"

namespace cypress {

/// Destination of a byte stream. The streaming pipeline (serialize →
/// shard → compress → write) is built by chaining sinks: a ByteWriter
/// flushes into a sink, the streaming compressor IS a sink and drains
/// into another, and the file layer's AtomicFileWriter terminates the
/// chain. append() must accept any span size, including empty.
class ByteSink {
 public:
  virtual ~ByteSink() = default;
  virtual void append(std::span<const uint8_t> bytes) = 0;
};

/// Sink that accumulates into a vector (the materializing terminator).
class VectorSink final : public ByteSink {
 public:
  void append(std::span<const uint8_t> bytes) override {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }
  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Sink that discards everything: pure size accounting. Producers
/// compute their serialized size by writing into a NullSink-backed
/// ByteWriter and reading its running count — no full-buffer
/// materialization just to call .size().
class NullSink final : public ByteSink {
 public:
  void append(std::span<const uint8_t>) override {}
};

/// Append-only little-endian binary writer.
///
/// Two modes share one encode path:
///   - buffered (default ctor): bytes accumulate in an internal vector,
///     retrieved with bytes()/take(). The historical behavior.
///   - sink-backed (ByteSink ctor): the internal buffer is a small
///     staging area flushed to the sink whenever it crosses
///     kFlushBytes; large raw() spans bypass it entirely. size() keeps
///     counting the full stream either way, so producers can report
///     exact sizes without a materialized buffer. Call flush() when the
///     stream is complete (the streaming compressor's finish() expects
///     every byte to have reached it).
class ByteWriter {
 public:
  /// Sink-backed staging threshold: large enough to amortize virtual
  /// append() calls, small enough to stay cache-resident.
  static constexpr size_t kFlushBytes = 64 * 1024;

  ByteWriter() = default;
  explicit ByteWriter(ByteSink& sink) : sink_(&sink) {}
  ~ByteWriter() {
    if (sink_ != nullptr && !buf_.empty()) {
      try {
        flush();
      } catch (...) {
        // A sink failure in a destructor (e.g. disk full during
        // unwinding) cannot be reported; the explicit flush() callers
        // use on the success path sees it.
      }
    }
  }

  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void u8(uint8_t v) {
    buf_.push_back(v);
    maybeFlush();
  }

  void u32fixed(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    maybeFlush();
  }

  /// Unsigned LEB128 varint.
  void uv(uint64_t v) { leb128(v); }
  void uv128(unsigned __int128 v) { leb128(v); }

  /// Zigzag-encoded signed varint.
  void sv(int64_t v) {
    uv((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
  }

  /// Length-prefixed string.
  void str(std::string_view s) {
    uv(s.size());
    raw(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.data()),
                                 s.size()));
  }

  /// Raw bytes without a length prefix. Sink-backed writers forward
  /// large spans straight to the sink (after flushing the staging
  /// buffer to keep byte order) instead of copying them twice.
  void raw(std::span<const uint8_t> bytes) {
    if (sink_ != nullptr && bytes.size() >= kFlushBytes) {
      flush();
      sink_->append(bytes);
      flushed_ += bytes.size();
      return;
    }
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
    maybeFlush();
  }

  /// Bytes written so far, across both modes: for a sink-backed writer
  /// this is the whole stream, not just the staged tail.
  size_t size() const { return flushed_ + buf_.size(); }

  /// Push every staged byte to the sink (no-op when buffered).
  void flush() {
    if (sink_ == nullptr || buf_.empty()) return;
    sink_->append(buf_);
    flushed_ += buf_.size();
    buf_.clear();
  }

  const std::vector<uint8_t>& bytes() const {
    CYP_CHECK(sink_ == nullptr,
              "ByteWriter: bytes() on a sink-backed writer (the stream "
              "already left the buffer)");
    return buf_;
  }
  std::vector<uint8_t> take() {
    CYP_CHECK(sink_ == nullptr,
              "ByteWriter: take() on a sink-backed writer (the stream "
              "already left the buffer)");
    return std::move(buf_);
  }

 private:
  template <typename U>
  void leb128(U v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
    maybeFlush();
  }

  void maybeFlush() {
    if (sink_ != nullptr && buf_.size() >= kFlushBytes) flush();
  }

  std::vector<uint8_t> buf_;
  ByteSink* sink_ = nullptr;
  size_t flushed_ = 0;
};

/// Sequential reader over a byte span; throws cypress::Error on underflow.
///
/// Deserializers of untrusted input must validate every length prefix
/// before allocating: `checkedCount()` rejects counts that imply more
/// serialized bytes than remain in the buffer, and `chargeAlloc()`
/// draws from a configurable allocation budget so that even a
/// pathological-but-consistent input cannot force multi-gigabyte
/// allocations before the first payload byte is read.
class ByteReader {
 public:
  /// Default cumulative cap on count-driven allocations (64 MiB).
  static constexpr size_t kDefaultAllocBudget = 64u << 20;

  explicit ByteReader(std::span<const uint8_t> data,
                      size_t allocBudget = kDefaultAllocBudget)
      : data_(data), allocBudget_(allocBudget) {}

  uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  uint32_t u32fixed() {
    need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }

  /// Unsigned LEB128 varint; an encoding with bits beyond the width of
  /// the result is rejected.
  uint64_t uv() { return leb128<uint64_t>(); }
  unsigned __int128 uv128() { return leb128<unsigned __int128>(); }

  int64_t sv() {
    uint64_t z = uv();
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  std::string str() {
    uint64_t n = uv();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::span<const uint8_t> raw(size_t n) {
    need(n);
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  bool atEnd() const { return pos_ == data_.size(); }
  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

  /// Validate an untrusted element count `n` whose elements each occupy
  /// at least `perItemFloor` serialized bytes. Rejects any count that
  /// implies more bytes than remain, so `n` is safe to use as an
  /// allocation size hint afterwards.
  uint64_t checkedCount(uint64_t n, size_t perItemFloor) const {
    CYP_CHECK(perItemFloor == 0 ||
                  n <= remaining() / static_cast<uint64_t>(perItemFloor),
              "count " << n << " x " << perItemFloor
                       << "B implies more than the " << remaining()
                       << " bytes remaining");
    return n;
  }

  /// Draw `bytes` of deserializer allocation from the budget; throws
  /// once the cumulative total exceeds it. Counts validated through
  /// checkedCount() are already input-bounded; this is the backstop for
  /// allocations whose size is a multiple of a count (vectors of large
  /// structs, expanded sequences).
  void chargeAlloc(size_t bytes) {
    CYP_CHECK(bytes <= allocBudget_,
              "allocation of " << bytes << " bytes exceeds the reader's "
                               << "remaining budget of " << allocBudget_);
    allocBudget_ -= bytes;
  }
  size_t allocBudget() const { return allocBudget_; }

  /// Read a format version (a varint) and reject all but `expected`.
  void expectVersion(uint64_t expected, std::string_view format) {
    const uint64_t v = uv();
    CYP_CHECK(v == expected, format << ": unsupported format version " << v
                                    << ", expected version " << expected);
  }

 private:
  template <typename U>
  U leb128() {
    U v = 0;
    for (int shift = 0;; shift += 7) {
      need(1);
      const uint8_t b = data_[pos_++];
      const U group = b & 0x7F;
      CYP_CHECK(shift < static_cast<int>(8 * sizeof(U)) &&
                    (group << shift) >> shift == group,
                "varint too long");
      v |= group << shift;
      if (!(b & 0x80)) return v;
    }
  }

  void need(uint64_t n) const {
    // pos_ <= data_.size() always holds, so the subtraction cannot wrap;
    // the naive `pos_ + n <= size` form overflows for huge varint n.
    CYP_CHECK(n <= data_.size() - pos_,
              "buffer underflow: need " << n << " at " << pos_ << "/" << data_.size());
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  size_t allocBudget_;
};

}  // namespace cypress
