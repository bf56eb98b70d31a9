#include "flate/flate.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "flate/huffman.hpp"
#include "support/bytebuf.hpp"
#include "flate/lz77.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace cypress::flate {
namespace {

std::vector<uint8_t> bytesOf(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(Huffman, SingleSymbolGetsOneBitCode) {
  std::vector<uint64_t> freqs(10, 0);
  freqs[4] = 100;
  auto lens = buildCodeLengths(freqs);
  EXPECT_EQ(lens[4], 1);
  for (size_t i = 0; i < lens.size(); ++i) {
    if (i != 4) {
      EXPECT_EQ(lens[i], 0);
    }
  }
}

TEST(Huffman, KraftInequalityHolds) {
  Rng rng(99);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<uint64_t> freqs(286);
    for (auto& f : freqs) f = rng.below(1000);
    auto lens = buildCodeLengths(freqs);
    double kraft = 0;
    for (size_t i = 0; i < lens.size(); ++i) {
      if (lens[i]) {
        EXPECT_LE(lens[i], kMaxCodeBits);
        kraft += std::ldexp(1.0, -lens[i]);
      }
      if (freqs[i] > 0) {
        EXPECT_GT(lens[i], 0) << "symbol " << i << " uncoded";
      }
    }
    EXPECT_LE(kraft, 1.0 + 1e-9);
  }
}

TEST(Huffman, LengthLimitingKicksInOnSkewedFreqs) {
  // Fibonacci-like frequencies force deep unrestricted trees.
  std::vector<uint64_t> freqs(40);
  uint64_t a = 1, b = 1;
  for (auto& f : freqs) {
    f = a;
    uint64_t c = a + b;
    a = b;
    b = c;
  }
  auto lens = buildCodeLengths(freqs);
  for (uint8_t l : lens) EXPECT_LE(l, kMaxCodeBits);
  double kraft = 0;
  for (uint8_t l : lens)
    if (l) kraft += std::ldexp(1.0, -l);
  EXPECT_LE(kraft, 1.0 + 1e-9);
}

TEST(Huffman, EncodeDecodeRoundTrip) {
  std::vector<uint64_t> freqs = {5, 1, 0, 9, 2, 2, 0, 30};
  auto lens = buildCodeLengths(freqs);
  auto codes = canonicalCodes(lens);
  HuffmanDecoder dec(lens);

  std::vector<int> symbols = {0, 3, 7, 7, 4, 1, 5, 3, 0, 7};
  BitWriter bw;
  for (int s : symbols) bw.put(codes[static_cast<size_t>(s)], lens[static_cast<size_t>(s)]);
  auto bits = bw.take();
  BitReader br(bits);
  for (int s : symbols) EXPECT_EQ(dec.decode(br), s);
}

TEST(Lz77, FindsRepeats) {
  auto data = bytesOf("abcabcabcabcabcabc");
  auto tokens = tokenize(data);
  EXPECT_LT(tokens.size(), data.size());  // matched something
  EXPECT_EQ(detokenize(tokens), data);
}

TEST(Lz77, HandlesOverlappingMatches) {
  // "aaaa..." relies on overlapping copy semantics (dist < len).
  std::vector<uint8_t> data(500, 'a');
  auto tokens = tokenize(data);
  EXPECT_LE(tokens.size(), 4u);
  EXPECT_EQ(detokenize(tokens), data);
}

TEST(Lz77, RandomDataRoundTrips) {
  Rng rng(5);
  for (int iter = 0; iter < 10; ++iter) {
    std::vector<uint8_t> data(rng.below(5000));
    for (auto& b : data) b = static_cast<uint8_t>(rng.below(256));
    EXPECT_EQ(detokenize(tokenize(data)), data);
  }
}

TEST(Flate, EmptyInput) {
  std::vector<uint8_t> empty;
  auto c = compress(empty);
  EXPECT_EQ(decompress(c), empty);
}

TEST(Flate, SmallStrings) {
  for (const char* s : {"a", "ab", "hello world", "x"}) {
    auto data = bytesOf(s);
    EXPECT_EQ(decompress(compress(data)), data) << s;
  }
}

TEST(Flate, CompressesRepetitiveTraceLikeData) {
  // Synthetic "trace": repeated fixed-size records, as raw traces are.
  std::string record = "MPI_Send dst=12 bytes=4096 tag=7 comm=0\n";
  std::string trace;
  for (int i = 0; i < 2000; ++i) trace += record;
  auto data = bytesOf(trace);
  auto c = compress(data);
  EXPECT_LT(c.size(), data.size() / 50);  // massively compressible
  EXPECT_EQ(decompress(c), data);
}

TEST(Flate, IncompressibleDataFallsBackToStored) {
  Rng rng(11);
  std::vector<uint8_t> data(4096);
  for (auto& b : data) b = static_cast<uint8_t>(rng.below(256));
  auto c = compress(data);
  // Container framing is small even when nothing compresses.
  EXPECT_LE(c.size(), data.size() + 16);
  EXPECT_EQ(decompress(c), data);
}

TEST(Flate, PropertyRoundTripAcrossLevelsAndShapes) {
  Rng rng(123);
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Rng gen(seed);
    std::vector<uint8_t> data(gen.below(20000));
    const int mode = static_cast<int>(seed % 3);
    for (size_t i = 0; i < data.size(); ++i) {
      if (mode == 0) data[i] = static_cast<uint8_t>(gen.below(256));
      else if (mode == 1) data[i] = static_cast<uint8_t>(i % 17);
      else data[i] = static_cast<uint8_t>(gen.below(4) * 63);
    }
    for (Level lvl : {Level::Fast, Level::Default, Level::Best}) {
      auto c = compress(data, lvl);
      EXPECT_EQ(decompress(c), data) << "seed " << seed;
    }
  }
  (void)rng;
}

// --- parallel / multi-block container ---------------------------------

namespace {

/// The determinism corpora of the multi-block tests: empty, one byte,
/// incompressible random, highly repetitive, and structured text —
/// small (single-block) and large (framed multi-block) variants.
std::vector<std::vector<uint8_t>> determinismCorpora() {
  std::vector<std::vector<uint8_t>> corpora;
  corpora.push_back({});
  corpora.push_back({0x42});
  Rng rng(2024);
  std::vector<uint8_t> random(3 * kShardBytes + 12345);
  for (auto& b : random) b = static_cast<uint8_t>(rng.below(256));
  corpora.push_back(std::move(random));
  corpora.push_back(std::vector<uint8_t>(2 * kShardBytes + 7, 'a'));
  std::string text;
  while (text.size() < 2 * kShardBytes)
    text += "MPI_Send dst=12 bytes=4096 tag=7 comm=0\n";
  corpora.push_back(bytesOf(text));
  corpora.push_back(bytesOf("short single-block payload"));
  return corpora;
}

}  // namespace

TEST(FlateParallel, ByteIdenticalAcrossThreadCounts) {
  for (const auto& data : determinismCorpora()) {
    for (Level lvl : {Level::Fast, Level::Default, Level::Best}) {
      const auto reference = compress(data, lvl, 1);
      EXPECT_EQ(decompress(reference), data);
      for (int threads : {2, 4, 8}) {
        EXPECT_EQ(compress(data, lvl, threads), reference)
            << "size " << data.size() << " threads " << threads;
      }
    }
  }
}

TEST(FlateParallel, MultiBlockRoundTripsAtShardBoundaries) {
  // Exactly the shard size stays single-block; one byte more frames.
  for (size_t size : {kShardBytes - 1, kShardBytes, kShardBytes + 1,
                      2 * kShardBytes, 2 * kShardBytes + 1}) {
    Rng rng(size);
    std::vector<uint8_t> data(size);
    for (size_t i = 0; i < size; ++i)
      data[i] = static_cast<uint8_t>(rng.below(7) == 0 ? rng.below(256)
                                                       : i % 31);
    const auto c = compress(data, Level::Default, 4);
    EXPECT_EQ(decompress(c), data) << size;
  }
}

TEST(FlateParallel, CorruptFramedContainerThrowsOrFailsClean) {
  std::vector<uint8_t> data(2 * kShardBytes + 99);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i % 251);
  const auto c = compress(data, Level::Default, 4);
  Rng rng(77);
  for (int iter = 0; iter < 200; ++iter) {
    auto bad = c;
    bad[rng.below(bad.size())] ^= static_cast<uint8_t>(1 + rng.below(255));
    try {
      const auto out = decompress(bad);
      // Extremely unlikely, but a mutation the CRC cannot see would
      // have to reproduce the input exactly.
      EXPECT_EQ(out, data);
    } catch (const Error&) {
      // Expected: corrupt containers must fail, not crash.
    }
  }
}

TEST(Lz77, LazyAndGreedyBothRoundTrip) {
  Rng rng(31337);
  for (uint64_t seed = 0; seed < 16; ++seed) {
    Rng gen(seed);
    std::vector<uint8_t> data(gen.below(30000));
    const int mode = static_cast<int>(seed % 4);
    for (size_t i = 0; i < data.size(); ++i) {
      if (mode == 0) data[i] = static_cast<uint8_t>(gen.below(256));
      else if (mode == 1) data[i] = static_cast<uint8_t>(i % 13);
      else if (mode == 2) data[i] = static_cast<uint8_t>(gen.below(3));
      else data[i] = static_cast<uint8_t>((i / 100) % 7);
    }
    for (bool lazy : {false, true}) {
      MatchParams p;
      p.lazy = lazy;
      EXPECT_EQ(detokenize(tokenize(data, p)), data)
          << "seed " << seed << " lazy " << lazy;
    }
  }
  (void)rng;
}

TEST(Lz77, LazyMatchingDoesNotHurtTokenEfficiency) {
  // The classic zlib heuristic: deferring one position for a strictly
  // longer match should never produce a materially worse token stream.
  std::string s;
  for (int i = 0; i < 800; ++i)
    s += "prefix " + std::to_string(i % 23) + " suffix-suffix;";
  auto data = bytesOf(s);
  MatchParams greedy;
  greedy.lazy = false;
  MatchParams lazy;
  lazy.lazy = true;
  const auto tg = tokenize(data, greedy);
  const auto tl = tokenize(data, lazy);
  EXPECT_EQ(detokenize(tg), data);
  EXPECT_EQ(detokenize(tl), data);
  EXPECT_LE(tl.size(), tg.size() + tg.size() / 20);
}

TEST(Lz77, SkipAheadStillRoundTripsRandomThenRepetitive) {
  // An incompressible prefix long enough to push the skip-ahead stride
  // to its cap, followed by compressible data: matches must still be
  // found after the stretch and the stream must reconstruct exactly.
  Rng rng(9);
  std::vector<uint8_t> data(200000);
  for (size_t i = 0; i < 150000; ++i) data[i] = static_cast<uint8_t>(rng.below(256));
  for (size_t i = 150000; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i % 5);
  auto tokens = tokenize(data);
  EXPECT_EQ(detokenize(tokens), data);
  // The repetitive tail must actually compress (matches found again).
  EXPECT_LT(tokens.size(), 150000 + 5000u);
}

TEST(Flate, CorruptMagicThrows) {
  auto c = compress(bytesOf("payload"));
  c[0] ^= 0xFF;
  EXPECT_THROW(decompress(c), Error);
}

TEST(Flate, BytesAfterTheLastBlockAreRejected) {
  // A container ends at its last block, whatever its layout: empty,
  // single stored block, single Huffman block, or framed shards.
  Rng rng(5);
  std::vector<uint8_t> noise(64);
  for (auto& b : noise) b = static_cast<uint8_t>(rng.below(256));
  std::vector<uint8_t> framed(kShardBytes + 1000);
  for (size_t i = 0; i < framed.size(); ++i)
    framed[i] = static_cast<uint8_t>(i % 29);
  const std::vector<std::vector<uint8_t>> inputs = {
      {}, noise, bytesOf(std::string(300, 'q')), framed};
  for (const auto& data : inputs) {
    const auto c = compress(data);
    ASSERT_EQ(decompress(c), data);
    for (size_t extra : {1, 7}) {
      auto bad = c;
      bad.insert(bad.end(), extra, 0);
      EXPECT_THROW(decompress(bad), Error)
          << data.size() << "-byte input + " << extra << " bytes";
    }
  }
}

TEST(Flate, SingleBlockLargerThanAShardIsRejected) {
  // compress() frames every input above kShardBytes, so a single-block
  // container declaring more is corrupt even when its block and CRC
  // agree with each other.
  const std::vector<uint8_t> data(kShardBytes + 1, 0x5A);
  ByteWriter w;
  w.raw(bytesOf("CYF1"));
  w.uv(data.size());
  w.u32fixed(crc32(data));
  w.u8(0);  // stored block
  w.raw(data);
  EXPECT_THROW(decompress(w.bytes()), Error);
}

TEST(Flate, CorruptPayloadFailsCrc) {
  std::string s(300, 'q');
  auto c = compress(bytesOf(s));
  c[c.size() - 1] ^= 0x01;
  EXPECT_THROW(decompress(c), Error);
}

TEST(Flate, Crc32KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  auto data = bytesOf("123456789");
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

// Reference bytewise CRC-32, the historical implementation: the
// slice-by-8 path must agree with it on every input, including lengths
// that exercise the unaligned head/tail handling.
uint32_t crc32Bytewise(std::span<const uint8_t> data) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = 0xFFFFFFFFu;
  for (uint8_t b : data) c = table[(c ^ b) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(Flate, Crc32SliceBy8MatchesBytewise) {
  Rng rng(0xC4C32);
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                     size_t{15}, size_t{16}, size_t{255}, size_t{1024},
                     size_t{100003}}) {
    std::vector<uint8_t> data(len);
    for (auto& b : data) b = static_cast<uint8_t>(rng.below(256));
    EXPECT_EQ(crc32(data), crc32Bytewise(data)) << "len=" << len;
    // Unaligned start: the slice loop must not assume 8-byte alignment.
    if (len > 3) {
      std::span<const uint8_t> tail(data.data() + 3, len - 3);
      EXPECT_EQ(crc32(tail), crc32Bytewise(tail)) << "len=" << len;
    }
  }
}

TEST(Flate, Crc32CombineEqualsWholeBufferCrc) {
  Rng rng(0xC0B13E);
  for (int iter = 0; iter < 40; ++iter) {
    const size_t len = 1 + rng.below(5000);
    std::vector<uint8_t> data(len);
    for (auto& b : data) b = static_cast<uint8_t>(rng.below(256));
    const size_t cut = rng.below(len + 1);
    std::span<const uint8_t> a(data.data(), cut);
    std::span<const uint8_t> b(data.data() + cut, len - cut);
    EXPECT_EQ(crc32Combine(crc32(a), crc32(b), b.size()), crc32(data))
        << "len=" << len << " cut=" << cut;
  }
}

TEST(Flate, Crc32CombineEmptyAndAssociativity) {
  auto a = bytesOf("per-shard");
  auto b = bytesOf(" crc");
  auto c = bytesOf(" merge");
  EXPECT_EQ(crc32Combine(crc32(a), crc32(std::vector<uint8_t>{}), 0), crc32(a));
  // Folding left-to-right over three pieces equals the whole-buffer CRC.
  uint32_t folded = crc32Combine(crc32(a), crc32(b), b.size());
  folded = crc32Combine(folded, crc32(c), c.size());
  auto whole = bytesOf("per-shard crc merge");
  EXPECT_EQ(folded, crc32(whole));
}

TEST(FlateParallel, FramedHeaderCrcUnchangedByShardedComputation) {
  // The framed container computes its header CRC as a combine of
  // per-shard CRCs; the container bytes must be identical to what a
  // whole-input CRC produced (pinned by decompress, which re-CRCs the
  // output, and by a direct header check).
  Rng rng(77);
  std::vector<uint8_t> data(3 * kShardBytes + 12345);
  for (size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<uint8_t>((i / 7) % 251 ^ rng.below(4));
  auto c = compress(data, Level::Fast, 2);
  ByteReader r(c);
  (void)r.raw(4);  // magic
  EXPECT_EQ(r.uv(), data.size());
  EXPECT_EQ(r.u32fixed(), crc32Bytewise(data));
  EXPECT_EQ(decompress(c, 2), data);
}

TEST(Flate, StringHelpersRoundTrip) {
  std::string s = "communication structure tree\n";
  for (int i = 0; i < 6; ++i) s += s;
  auto c = compressString(s);
  EXPECT_EQ(decompressToString(c), s);
}

TEST(Flate, BestLevelNotWorseThanFastOnRedundantData) {
  std::string s;
  for (int i = 0; i < 500; ++i)
    s += "loop iteration " + std::to_string(i % 10) + ";";
  auto data = bytesOf(s);
  auto fast = compress(data, Level::Fast);
  auto best = compress(data, Level::Best);
  EXPECT_LE(best.size(), fast.size() + 8);
}

}  // namespace
}  // namespace cypress::flate
