#include "flate/stream.hpp"

#include <algorithm>
#include <chrono>

#include "flate/block.hpp"
#include "flate/lz77.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace cypress::flate {

namespace {

void writeHeader(ByteWriter& w, uint64_t rawBytes, uint32_t crc) {
  w.raw(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(detail::kMagic), 4));
  w.uv(rawBytes);
  w.u32fixed(crc);
}

bool ready(const std::future<void>& done) {
  return done.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

// Wait for a window on the pool, running queued pool tasks (the lanes
// of this window or the next) meanwhile. Once the queue is empty the
// window's task has started, and its parallelFor finishes its own
// lanes, so blocking cannot deadlock.
void await(std::future<void>& done) {
  while (!ready(done) && ThreadPool::shared().tryRunOne()) {
  }
  done.get();  // rethrows a shard compression failure
}

}  // namespace

StreamingCompressor::StreamingCompressor(ByteSink& out, Level level,
                                         int threads)
    : out_(&out), level_(level), threads_(std::max(threads, 1)) {}

StreamingCompressor::~StreamingCompressor() {
  // Abandoned mid-stream: the windows in flight still read flights_.
  for (Flight& f : flights_) {
    if (!f.done.valid()) continue;  // its failure was already thrown
    try {
      await(f.done);
    } catch (...) {
    }
  }
}

void StreamingCompressor::compress(Window& w, int lanes) const {
  const MatchParams mp = MatchParams::forChain(static_cast<int>(level_));
  w.blocks.resize(w.shards.size());
  w.crcs.resize(w.shards.size());
  parallelFor(w.shards.size(), lanes, [&](size_t i) {
    w.blocks[i] = detail::compressBlock(w.shards[i], mp);
    w.crcs[i] = crc32(w.shards[i]);
  });
}

void StreamingCompressor::retire(Window& w) {
  for (size_t i = 0; i < w.shards.size(); ++i) {
    crc_ = crc32Combine(crc_, w.crcs[i], w.shards[i].size());
    rawBytes_ += w.shards[i].size();
    blocks_.push_back(std::move(w.blocks[i]));
  }
  w = {};
}

void StreamingCompressor::land() {
  await(flights_.front().done);
  inFlight_ -= flights_.front().w.shards.size();
  retire(flights_.front().w);
  flights_.pop_front();
}

void StreamingCompressor::cut() {
  if (threads_ <= 1) {
    compress(open_, 1);
    retire(open_);
    return;
  }
  while (!flights_.empty() && ready(flights_.front().done)) land();
  // The open window goes to the pool once it is full, or at once while
  // fewer than `threads` shards are in flight, so idle workers start on
  // the first shards as the producer serializes the rest.
  if (inFlight_ >= static_cast<size_t>(threads_) &&
      open_.shards.size() <= static_cast<size_t>(threads_))
    return;
  while (inFlight_ > static_cast<size_t>(threads_) + 1) land();
  // One lane per shard: the pool's `threads` workers take them, and
  // the producer runs what is left queued once it waits.
  inFlight_ += open_.shards.size();
  Flight& f = flights_.emplace_back();
  f.w = std::move(open_);
  open_ = {};
  f.done = ThreadPool::shared().submit([this, w = &f.w] {
    compress(*w, static_cast<int>(w->shards.size()));
  });
}

void StreamingCompressor::append(std::span<const uint8_t> bytes) {
  CYP_CHECK(!finished_, "StreamingCompressor: append after finish");
  while (!bytes.empty()) {
    // Cut a full shard only once the NEXT byte arrives: an input of
    // exactly kShardBytes must stay single-block.
    if (pending_.size() == kShardBytes) {
      open_.owned.push_back(std::move(pending_));
      pending_ = {};
      open_.shards.push_back(open_.owned.back());
      cut();
    }
    if (pending_.capacity() == 0) pending_.reserve(kShardBytes);
    const size_t n = std::min(kShardBytes - pending_.size(), bytes.size());
    pending_.insert(pending_.end(), bytes.begin(), bytes.begin() + n);
    bytes = bytes.subspan(n);
  }
}

StreamingCompressor::Totals StreamingCompressor::finish(
    std::span<const uint8_t> last) {
  CYP_CHECK(!finished_, "StreamingCompressor: finish called twice");
  // Bytes already copied in come first; once nothing is pending (which
  // also means nothing was cut), `last` is read where it lies.
  if (!pending_.empty()) {
    append(last);
    last = pending_;
  }
  finished_ = true;
  Totals t;

  if (blocks_.empty() && flights_.empty() && open_.shards.empty() &&
      last.size() <= kShardBytes) {
    // Never exceeded one shard: the legacy single-block container, in
    // one write.
    t.rawBytes = last.size();
    t.crc = crc32(last);
    ByteWriter header;
    writeHeader(header, t.rawBytes, t.crc);
    const std::vector<uint8_t> container =
        last.empty() ? header.take()
                     : detail::compressBlock(
                           last, MatchParams::forChain(static_cast<int>(level_)),
                           header.bytes());
    out_->append(container);
    t.compressedBytes = container.size();
    return t;
  }

  // Framed container: the rest of the input, read in place, joins the
  // open window whatever its length (no shard of it is copied), and the
  // tail (1..kShardBytes bytes) is the last shard. The open window
  // compresses here, beside the windows in flight; once all are done
  // the totals are known. A producer's last window, like the ones it
  // sent, has a lane more than `threads`: the pool's workers and this
  // thread. flate::compress keeps `threads` lanes.
  const bool streamed = !blocks_.empty() || !flights_.empty() ||
                        !open_.shards.empty();
  while (last.size() > kShardBytes) {
    open_.shards.push_back(last.first(kShardBytes));
    last = last.subspan(kShardBytes);
  }
  open_.shards.push_back(last);
  compress(open_, streamed && threads_ > 1 ? threads_ + 1 : threads_);
  while (!flights_.empty()) land();
  retire(open_);
  t.rawBytes = rawBytes_;
  t.crc = crc_;

  ByteWriter header;
  writeHeader(header, t.rawBytes, t.crc);
  header.u8(detail::kBlockFramed);
  header.uv(blocks_.size());
  out_->append(header.bytes());
  t.compressedBytes = header.size();
  for (std::vector<uint8_t>& block : blocks_) {
    ByteWriter prefix;
    prefix.uv(block.size());
    out_->append(prefix.bytes());
    out_->append(block);
    t.compressedBytes += prefix.size() + block.size();
    block = {};
  }
  return t;
}

}  // namespace cypress::flate
