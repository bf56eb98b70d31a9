// Streaming CYF1 compression: serialize → shard → compress → write
// with no full-buffer materialization.
//
// StreamingCompressor is a ByteSink a producer serializes straight
// into. Bytes are cut into kShardBytes shard buffers; each full shard
// is CRC'd on the producer thread (slice-by-8 — cheap next to LZ77)
// and handed to a bounded MPMC queue that pool workers drain, each
// compressing its shard with a fresh LZ77 window (the existing CYF1
// kind-2 framing). finish() then knows the total size and the
// crc32Combine fold of the per-shard CRCs, writes the container header,
// and drains compressed shards into the downstream sink in shard
// order — writing shard i while shards > i are still compressing. The
// three stages (serialize, compress, I/O) overlap; peak memory is the
// bounded queue, not the trace.
//
// The output is byte-for-byte identical to flate::compress() over the
// concatenated input at every thread count: shard boundaries depend
// only on input size, each shard's block is a pure function of its
// bytes, and the header fields are the same totals. Inputs that never
// exceed one shard take the legacy single-block layout, exactly like
// the one-shot codec.
//
// Deadlock safety: the producer never blocks on the full queue — it
// compresses one queued shard itself and retries (the thread pool's
// helping-wait discipline), so streaming works even when the producer
// is itself a pool task.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "flate/flate.hpp"
#include "support/bytebuf.hpp"

namespace cypress {
class ThreadPool;
}

namespace cypress::flate {

/// Pass-through sink folding a running CRC-32 and byte count over
/// everything appended (crc32Combine of per-append CRCs — identical to
/// one pass over the concatenation). `down` may be null for pure
/// accounting. Used where a stream's totals must be known without
/// rescanning it: the size and CRC that merge checkpoint records hold
/// for every spill and final artifact written through an atomic writer.
class Crc32Sink final : public ByteSink {
 public:
  explicit Crc32Sink(ByteSink* down = nullptr) : down_(down) {}

  void append(std::span<const uint8_t> bytes) override {
    crc_ = n_ == 0 ? crc32(bytes) : crc32Combine(crc_, crc32(bytes), bytes.size());
    n_ += bytes.size();
    if (down_ != nullptr) down_->append(bytes);
  }

  uint64_t bytes() const { return n_; }
  uint32_t crc() const { return crc_; }

 private:
  ByteSink* down_;
  uint64_t n_ = 0;
  uint32_t crc_ = 0;
};

/// The streaming CYF1 compressor described above.
class StreamingCompressor final : public ByteSink {
 public:
  struct Totals {
    uint64_t rawBytes = 0;        ///< input bytes consumed
    uint32_t crc = 0;             ///< crc32 of the whole input
    uint64_t compressedBytes = 0; ///< container bytes written to `out`
  };

  /// Compressed output goes to `out` (only during finish(), on the
  /// calling thread — `out` needs no thread safety). `threads <= 1`
  /// compresses shards inline at cut time; otherwise shards are
  /// compressed by `pool` (the shared pool when null) with at most
  /// ~2x`threads` shards in flight.
  explicit StreamingCompressor(ByteSink& out, Level level = Level::Default,
                               int threads = 1, ThreadPool* pool = nullptr);
  ~StreamingCompressor() override;

  StreamingCompressor(const StreamingCompressor&) = delete;
  StreamingCompressor& operator=(const StreamingCompressor&) = delete;

  /// Feed input bytes. Cuts full shards and dispatches them; never
  /// blocks indefinitely (helps compress when the queue is full).
  void append(std::span<const uint8_t> bytes) override;

  /// Flush: write the container header and drain every shard, in
  /// order, into the downstream sink. Must be called exactly once;
  /// append() is invalid afterwards. Rethrows any shard compression
  /// failure.
  Totals finish();

 private:
  struct Impl;
  struct Job;

  void dispatchPending();

  std::shared_ptr<Impl> impl_;
  std::vector<uint8_t> pending_;   // the shard currently being filled
  std::vector<uint32_t> shardCrcs_;
  std::vector<uint32_t> shardLens_;
  std::vector<std::shared_ptr<Job>> jobsDone_;  // dispatched, shard order
  ByteSink* out_;
  bool finished_ = false;
};

}  // namespace cypress::flate
