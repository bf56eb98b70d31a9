#include "flate/stream.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "flate/flate.hpp"
#include "support/bytebuf.hpp"
#include "support/rng.hpp"

namespace cypress::flate {
namespace {

// Compressible-but-not-trivial data: repeated phrases with noise mixed
// in, so both huffman and stored shard kinds show up across sizes.
std::vector<uint8_t> testData(size_t n, uint64_t seed) {
  Rng rng(seed);
  const std::string phrase = "the quick brown fox jumps over the lazy dog ";
  std::vector<uint8_t> out;
  out.reserve(n);
  while (out.size() < n) {
    if (rng.below(4) == 0) {
      out.push_back(static_cast<uint8_t>(rng.below(256)));
    } else {
      const size_t take = std::min(phrase.size(), n - out.size());
      out.insert(out.end(), phrase.begin(), phrase.begin() + take);
    }
  }
  out.resize(n);
  return out;
}

std::vector<uint8_t> streamed(std::span<const uint8_t> data, int threads,
                              size_t chunk) {
  VectorSink sink;
  StreamingCompressor sc(sink, Level::Default, threads);
  for (size_t i = 0; i < data.size(); i += chunk)
    sc.append(data.subspan(i, std::min(chunk, data.size() - i)));
  const StreamingCompressor::Totals tot = sc.finish();
  EXPECT_EQ(tot.rawBytes, data.size());
  EXPECT_EQ(tot.crc, crc32(data));
  EXPECT_EQ(tot.compressedBytes, sink.bytes().size());
  return sink.take();
}

// compress() hands the encoder its whole input through finish(last),
// read in place; a streaming producer copies it in through append().
// Both must give the same bytes at every size class that exercises a
// different container layout, for every thread count, regardless of
// how the input is sliced into append() calls. (FormatPins pins the
// bytes themselves.)
TEST(StreamingCompressor, ByteIdenticalToCompressAcrossSizesAndThreads) {
  const size_t sizes[] = {0,
                          1,
                          1000,
                          kShardBytes - 1,
                          kShardBytes,
                          kShardBytes + 1,
                          3 * kShardBytes + 12345};
  for (size_t n : sizes) {
    const std::vector<uint8_t> data = testData(n, /*seed=*/n + 7);
    const std::vector<uint8_t> want = compress(data);
    for (int threads : {1, 2, 4, 8}) {
      for (size_t chunk : {size_t{1} << 12, size_t{64 * 1024 + 13},
                           kShardBytes, data.size() + 1}) {
        EXPECT_EQ(streamed(data, threads, chunk), want)
            << "n=" << n << " threads=" << threads << " chunk=" << chunk;
      }
    }
  }
}

TEST(StreamingCompressor, ByteLevelAppendsMatchOneShot) {
  const std::vector<uint8_t> data = testData(4096, 3);
  EXPECT_EQ(streamed(data, 1, 1), compress(data));
}

TEST(StreamingCompressor, RoundtripsThroughDecompress) {
  for (size_t n : {size_t{0}, size_t{5000}, 2 * kShardBytes + 99}) {
    const std::vector<uint8_t> data = testData(n, n);
    for (int threads : {1, 4}) {
      EXPECT_EQ(decompress(streamed(data, threads, 1 << 16)), data);
    }
  }
}

TEST(StreamingCompressor, IncompressibleDataStaysIdentical) {
  Rng rng(42);
  std::vector<uint8_t> noise(2 * kShardBytes + 17);
  for (auto& b : noise) b = static_cast<uint8_t>(rng.below(256));
  const std::vector<uint8_t> want = compress(noise);
  EXPECT_EQ(streamed(noise, 4, 1 << 15), want);
  EXPECT_EQ(decompress(want), noise);
}

TEST(StreamingCompressor, LevelsPropagate) {
  const std::vector<uint8_t> data = testData(kShardBytes + 5000, 11);
  for (Level level : {Level::Fast, Level::Best}) {
    VectorSink sink;
    StreamingCompressor sc(sink, level, /*threads=*/2);
    sc.append(data);
    sc.finish();
    EXPECT_EQ(sink.take(), compress(data, level));
  }
}

// finish(last) after some appends copies `last` in behind the pending
// bytes; with nothing appended it reads `last` where it lies. Either
// way the container is the one for the concatenated input.
TEST(StreamingCompressor, FinishWithTheLastBytesMatchesAppendThenFinish) {
  const std::vector<uint8_t> data = testData(2 * kShardBytes + 321, 17);
  const std::span<const uint8_t> in(data);
  for (size_t head : {size_t{0}, size_t{1000}, kShardBytes, kShardBytes + 1}) {
    for (int threads : {1, 4}) {
      VectorSink sink;
      StreamingCompressor sc(sink, Level::Default, threads);
      sc.append(in.first(head));
      const StreamingCompressor::Totals tot = sc.finish(in.subspan(head));
      EXPECT_EQ(tot.rawBytes, data.size());
      EXPECT_EQ(tot.crc, crc32(data));
      EXPECT_EQ(tot.compressedBytes, sink.bytes().size());
      EXPECT_EQ(sink.take(), streamed(data, threads, 1 << 16))
          << "head=" << head << " threads=" << threads;
    }
  }
}

TEST(StreamingCompressor, FinishTwiceIsRejected) {
  VectorSink sink;
  StreamingCompressor sc(sink);
  sc.finish();
  EXPECT_ANY_THROW(sc.finish());
}

TEST(StreamingCompressor, AbandonedWithoutFinishIsSafe) {
  VectorSink sink;
  for (int threads : {1, 2, 4}) {
    StreamingCompressor sc(sink, Level::Default, threads);
    sc.append(testData(12 * kShardBytes, 5));
    // Destroyed with cut shards uncompressed and, at 2 and 4 threads,
    // windows still compressing on the pool: must not crash, hang or
    // leak.
  }
  EXPECT_TRUE(sink.bytes().empty());
}

TEST(Crc32Sink, FoldsRunningCrcAndForwards) {
  const std::vector<uint8_t> data = testData(300000, 21);
  VectorSink down;
  Crc32Sink sink(&down);
  for (size_t i = 0; i < data.size(); i += 7777)
    sink.append(std::span<const uint8_t>(data).subspan(
        i, std::min<size_t>(7777, data.size() - i)));
  EXPECT_EQ(sink.crc(), crc32(data));
  EXPECT_EQ(sink.bytes(), data.size());
  EXPECT_EQ(down.take(), data);
}

TEST(Crc32Sink, EmptyStreamMatchesCrc32OfNothing)
{
  Crc32Sink sink;
  EXPECT_EQ(sink.crc(), crc32({}));
  EXPECT_EQ(sink.bytes(), 0u);
}

// ByteWriter in sink mode must deliver the same bytes as buffered mode
// for every primitive, with large raw() spans bypassing the staging
// buffer.
TEST(ByteWriterSink, SinkModeMatchesBufferedMode) {
  ByteWriter buffered;
  VectorSink sink;
  {
    ByteWriter w(sink);
    for (ByteWriter* t : {&buffered, &w}) {
      t->u8(7);
      t->u32fixed(0xdeadbeef);
      t->uv(300);
      t->sv(-12345);
      t->uv128(static_cast<unsigned __int128>(1) << 100);
      t->str("hello");
      const std::vector<uint8_t> big(ByteWriter::kFlushBytes * 2 + 3, 0xab);
      t->raw(big);
      EXPECT_EQ(t->size(), buffered.size());
    }
    w.flush();
    EXPECT_EQ(w.size(), buffered.size());
  }
  EXPECT_EQ(sink.take(), buffered.bytes());
}

}  // namespace
}  // namespace cypress::flate
