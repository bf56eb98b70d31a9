// The CYF1 encoder: serialize → shard → compress → write with no
// full-buffer materialization. flate::compress() is this encoder over
// a VectorSink, so there is exactly one CYF1 writer.
//
// StreamingCompressor is a ByteSink a producer serializes straight
// into. Bytes are cut into kShardBytes shards, which collect in an open
// window. The window goes to the shared pool as one task once it holds
// `threads`+1 shards, or as soon as a shard is cut while fewer than
// `threads` shards are in flight, so idle workers start on the first
// shards while the producer serializes the rest. The task's
// parallelFor() CRCs and compresses the window's shards, one lane each
// (a fresh LZ77 window per shard: the CYF1 kind-2 framing). Before a
// window would put more than 2x(`threads`+1) shards in flight, the
// producer waits for the oldest windows, running queued lanes
// meanwhile. So the pool's `threads` workers compress, and so does the
// producer whenever it waits. A window's raw shards are freed once its
// blocks exist, so peak memory is 3x(`threads`+1) raw shards plus the
// compressed blocks, not the trace. With `threads <= 1` a shard
// compresses as soon as it is cut, on the producer's thread.
//
// finish(last) compresses the open window and the rest of the input on
// the calling thread (one parallelFor beside the windows in flight:
// `threads`+1 lanes after append(), `threads` lanes for
// flate::compress), then writes the container header (total size and
// the crc32Combine fold of the per-shard CRCs) and the blocks in shard
// order. The bytes are a pure function of the input: shard boundaries
// depend only on its size, each block only on its shard, and `threads`
// only on how many blocks compress at once — never on how the input
// was sliced into append() calls. Inputs that never exceed one shard
// take the legacy single-block layout.
#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <span>
#include <vector>

#include "flate/flate.hpp"
#include "support/bytebuf.hpp"

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

/// The CYF1 encoder described above.
class StreamingCompressor final : public ByteSink {
 public:
  struct Totals {
    uint64_t rawBytes = 0;        ///< input bytes consumed
    uint32_t crc = 0;             ///< crc32 of the whole input
    uint64_t compressedBytes = 0; ///< container bytes written to `out`
  };

  /// Compressed output goes to `out` (only during finish(), on the
  /// calling thread — `out` needs no thread safety). `threads` sizes
  /// the windows and their lanes, as described above.
  explicit StreamingCompressor(ByteSink& out, Level level = Level::Default,
                               int threads = 1);
  /// Waits for the windows in flight, if the stream was abandoned.
  ~StreamingCompressor() override;

  StreamingCompressor(const StreamingCompressor&) = delete;
  StreamingCompressor& operator=(const StreamingCompressor&) = delete;

  /// Feed input bytes. Cuts full shards and sends windows to the pool
  /// as described above.
  void append(std::span<const uint8_t> bytes) override;

  /// Write the container into the downstream sink. `last`, if given,
  /// is the end of the input: finish(last) writes the same bytes as
  /// append(last) then finish(), but reads `last` in place instead of
  /// copying it. Must be called exactly once; append() is invalid
  /// afterwards. Rethrows any shard compression failure.
  Totals finish(std::span<const uint8_t> last = {});

 private:
  struct Window {
    std::vector<std::vector<uint8_t>> owned;       // shards copied in
    std::vector<std::span<const uint8_t>> shards;  // into owned or `last`
    std::vector<std::vector<uint8_t>> blocks;      // one per shard
    std::vector<uint32_t> crcs;                    // one per shard
  };
  struct Flight {
    Window w;
    std::future<void> done;  // ready once w's blocks exist
  };

  void compress(Window& w, int lanes) const;  // fills blocks and crcs
  void retire(Window& w);  // folds w into the totals and blocks_
  void land();             // waits for and retires the oldest flight
  void cut();              // a shard just joined open_

  ByteSink* out_;
  Level level_;
  int threads_;
  std::vector<uint8_t> pending_;              // the shard being filled
  Window open_;                               // cut, not yet sent
  std::deque<Flight> flights_;                // on the pool, oldest first
  size_t inFlight_ = 0;                       // shards in flights_
  std::vector<std::vector<uint8_t>> blocks_;  // compressed, shard order
  uint64_t rawBytes_ = 0;  // bytes of the retired shards
  uint32_t crc_ = 0;       // crc32 of the retired shards' bytes
  bool finished_ = false;
};

}  // namespace cypress::flate
