#include "flate/flate.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "flate/bitio.hpp"
#include "flate/block.hpp"
#include "flate/huffman.hpp"
#include "flate/lz77.hpp"
#include "flate/stream.hpp"
#include "support/bytebuf.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace cypress::flate {

using detail::kBlockFramed;
using detail::kBlockHuffman;
using detail::kBlockStored;
using detail::kMagic;

namespace {

constexpr int kNumLitLen = 286;  // 0..255 literals, 256 EOB, 257..285 lengths
constexpr int kNumDist = 30;
constexpr int kEob = 256;

// DEFLATE length codes: symbol 257+i encodes lengths [base[i],
// base[i]+2^extra[i]-1].
constexpr uint16_t kLenBase[29] = {3,  4,  5,  6,  7,  8,  9,  10, 11,  13,
                                   15, 17, 19, 23, 27, 31, 35, 43, 51,  59,
                                   67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr uint8_t kLenExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
                                   2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};
constexpr uint16_t kDistBase[30] = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,    25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,   769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr uint8_t kDistExtra[30] = {0, 0, 0,  0,  1,  1,  2,  2,  3,  3,
                                    4, 4, 5,  5,  6,  6,  7,  7,  8,  8,
                                    9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

int lengthSymbol(int len) {
  for (int i = 28; i >= 0; --i)
    if (len >= kLenBase[i]) return i;
  CYP_FAIL("flate: match length below minimum: " << len);
}

int distSymbol(int dist) {
  for (int i = 29; i >= 0; --i)
    if (dist >= kDistBase[i]) return i;
  CYP_FAIL("flate: distance below minimum: " << dist);
}

constexpr uint32_t kCrcPoly = 0xEDB88320u;

// Slice-by-8 CRC tables: table[0] is the classic bytewise table and
// table[k][b] is the CRC of byte b followed by k zero bytes, so eight
// table lookups advance the CRC by eight input bytes at once.
std::array<std::array<uint32_t, 256>, 8> makeCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? kCrcPoly ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (int k = 1; k < 8; ++k)
    for (uint32_t i = 0; i < 256; ++i)
      t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
  return t;
}

const std::array<std::array<uint32_t, 256>, 8>& crcTables() {
  static const auto tables = makeCrcTables();
  return tables;
}

// GF(2) helpers for crc32Combine: a CRC over n zero bytes is a linear
// map on the 32-bit state, represented as a column matrix.
uint32_t gf2MatrixTimes(const uint32_t* mat, uint32_t vec) {
  uint32_t sum = 0;
  while (vec) {
    if (vec & 1) sum ^= *mat;
    vec >>= 1;
    ++mat;
  }
  return sum;
}

void gf2MatrixSquare(uint32_t* square, const uint32_t* mat) {
  for (int n = 0; n < 32; ++n) square[n] = gf2MatrixTimes(mat, mat[n]);
}

// Pack code-length tables as 4-bit nibbles (lengths are <= 15).
void writeLengths(ByteWriter& w, std::span<const uint8_t> lengths) {
  for (size_t i = 0; i < lengths.size(); i += 2) {
    uint8_t lo = lengths[i];
    uint8_t hi = (i + 1 < lengths.size()) ? lengths[i + 1] : 0;
    w.u8(static_cast<uint8_t>(lo | (hi << 4)));
  }
}

std::vector<uint8_t> readLengths(ByteReader& r, size_t n) {
  std::vector<uint8_t> lengths(n);
  for (size_t i = 0; i < n; i += 2) {
    uint8_t b = r.u8();
    lengths[i] = b & 0x0F;
    if (i + 1 < n) lengths[i + 1] = b >> 4;
  }
  return lengths;
}

}  // namespace

// Definition of the block compressor declared in flate/block.hpp (the
// doc comment lives there); the Huffman/bit-io helpers it needs stay
// file-local above.
std::vector<uint8_t> detail::compressBlock(std::span<const uint8_t> data,
                                           const MatchParams& mp,
                                           std::span<const uint8_t> prefix) {
  const auto tokens = tokenize(data, mp);

  // Symbol frequencies.
  std::vector<uint64_t> litFreq(kNumLitLen, 0), distFreq(kNumDist, 0);
  for (const Token& t : tokens) {
    if (t.length == 0) {
      litFreq[t.literal]++;
    } else {
      litFreq[static_cast<size_t>(257 + lengthSymbol(t.length))]++;
      distFreq[static_cast<size_t>(distSymbol(t.distance))]++;
    }
  }
  litFreq[kEob]++;

  const auto litLens = buildCodeLengths(litFreq);
  const auto distLens = buildCodeLengths(distFreq);
  const auto litCodes = canonicalCodes(litLens);
  const auto distCodes = canonicalCodes(distLens);

  ByteWriter block;
  block.raw(prefix);
  block.u8(kBlockHuffman);
  writeLengths(block, litLens);
  writeLengths(block, distLens);
  BitWriter bw;
  for (const Token& t : tokens) {
    if (t.length == 0) {
      bw.put(litCodes[t.literal], litLens[t.literal]);
    } else {
      const int ls = lengthSymbol(t.length);
      const size_t lsym = static_cast<size_t>(257 + ls);
      bw.put(litCodes[lsym], litLens[lsym]);
      if (kLenExtra[ls]) bw.put(static_cast<uint32_t>(t.length - kLenBase[ls]), kLenExtra[ls]);
      const int ds = distSymbol(t.distance);
      bw.put(distCodes[static_cast<size_t>(ds)], distLens[static_cast<size_t>(ds)]);
      if (kDistExtra[ds])
        bw.put(static_cast<uint32_t>(t.distance - kDistBase[ds]), kDistExtra[ds]);
    }
  }
  bw.put(litCodes[kEob], litLens[kEob]);
  auto bits = bw.take();
  block.uv(bits.size());
  block.raw(bits);

  if (block.size() - prefix.size() >= data.size() + 1) {
    // Incompressible: stored block.
    ByteWriter stored;
    stored.raw(prefix);
    stored.u8(kBlockStored);
    stored.raw(data);
    return stored.take();
  }
  return block.take();
}

namespace {

// Plausibility bounds used to vet every shard header before the
// decoder preallocates the whole output. A Huffman block payload
// is at least the kind byte, the two nibble-packed code-length tables
// (ceil(286/2) + ceil(30/2) bytes) and the bit-count varint; and each
// payload byte holds at most 8 literal codes (8 bytes out) or 4 minimal
// length+distance pairs (4 * 258 = 1032 bytes out), so a shard claiming
// more than 1032x expansion is corrupt.
constexpr size_t kMinHuffmanPayload = 1 + 143 + 15 + 1;
constexpr uint64_t kMaxExpansion = 1032;

/// Decode one block (kind already consumed) into the caller's
/// `expect`-byte slice `dst`, which it must fill exactly. Back-references
/// never reach past the slice's start: every block resets the LZ77
/// window, so the shards of a framed container decode concurrently into
/// disjoint slices.
void decompressBlockToSlice(uint8_t kind, ByteReader& r, uint8_t* dst,
                            uint64_t expect) {
  if (kind == kBlockStored) {
    // Stored block: the payload IS the original, so a size prefix that
    // disagrees with the bytes actually present is corrupt.
    CYP_CHECK(expect == r.remaining(),
              "flate: stored block has " << r.remaining()
                                         << " bytes but header claims "
                                         << expect);
    auto raw = r.raw(expect);
    std::memcpy(dst, raw.data(), raw.size());
    return;
  }
  CYP_CHECK(kind == kBlockHuffman, "flate: unknown block kind " << int(kind));
  const auto litLens = readLengths(r, kNumLitLen);
  const auto distLens = readLengths(r, kNumDist);
  HuffmanDecoder litDec(litLens), distDec(distLens);
  const uint64_t nbits = r.uv();
  BitReader br(r.raw(nbits));
  uint64_t n = 0;
  while (true) {
    const int sym = litDec.decode(br);
    if (sym == kEob) break;
    if (sym < 256) {
      CYP_CHECK(n < expect, "flate: output exceeds declared size " << expect);
      dst[n++] = static_cast<uint8_t>(sym);
      continue;
    }
    const int ls = sym - 257;
    CYP_CHECK(ls >= 0 && ls < 29, "flate: bad length symbol " << sym);
    uint32_t len = kLenBase[ls];
    if (kLenExtra[ls]) len += br.get(kLenExtra[ls]);
    const int ds = distDec.decode(br);
    CYP_CHECK(ds >= 0 && ds < 30, "flate: bad distance symbol " << ds);
    uint32_t dist = kDistBase[ds];
    if (kDistExtra[ds]) dist += br.get(kDistExtra[ds]);
    CYP_CHECK(dist <= n, "flate: back-reference before start");
    CYP_CHECK(len <= expect - n,
              "flate: output exceeds declared size " << expect);
    // Byte-by-byte on purpose: the source may overlap the destination
    // (dist < len repeats the pattern).
    const size_t from = static_cast<size_t>(n - dist);
    for (uint32_t i = 0; i < len; ++i) dst[n++] = dst[from + i];
  }
  CYP_CHECK(n == expect, "flate: block decoded to "
                             << n << " bytes, expected " << expect);
}

}  // namespace

uint32_t crc32(std::span<const uint8_t> data) {
  const auto& t = crcTables();
  uint32_t c = 0xFFFFFFFFu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    // Fold two little-endian 32-bit words through the eight tables.
    const uint32_t lo = c ^ (static_cast<uint32_t>(p[0]) |
                             static_cast<uint32_t>(p[1]) << 8 |
                             static_cast<uint32_t>(p[2]) << 16 |
                             static_cast<uint32_t>(p[3]) << 24);
    const uint32_t hi = static_cast<uint32_t>(p[4]) |
                        static_cast<uint32_t>(p[5]) << 8 |
                        static_cast<uint32_t>(p[6]) << 16 |
                        static_cast<uint32_t>(p[7]) << 24;
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n; --n, ++p) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

uint32_t crc32Combine(uint32_t crc1, uint32_t crc2, uint64_t len2) {
  if (len2 == 0) return crc1;
  // odd holds the operator "advance the CRC register past one zero
  // byte"; repeated squaring yields the operator for 2^k zero bytes, and
  // applying the operators selected by len2's bits shifts crc1 past all
  // of B's length. XORing crc2 then splices B's contribution in.
  uint32_t even[32];
  uint32_t odd[32];
  odd[0] = kCrcPoly;
  uint32_t row = 1;
  for (int n = 1; n < 32; ++n) {
    odd[n] = row;
    row <<= 1;
  }
  gf2MatrixSquare(even, odd);  // 2 zero bytes
  gf2MatrixSquare(odd, even);  // 4 zero bytes
  do {
    gf2MatrixSquare(even, odd);
    if (len2 & 1) crc1 = gf2MatrixTimes(even, crc1);
    len2 >>= 1;
    if (len2 == 0) break;
    gf2MatrixSquare(odd, even);
    if (len2 & 1) crc1 = gf2MatrixTimes(odd, crc1);
    len2 >>= 1;
  } while (len2 != 0);
  return crc1 ^ crc2;
}

std::vector<uint8_t> compress(std::span<const uint8_t> data, Level level,
                              int threads) {
  VectorSink sink;
  StreamingCompressor(sink, level, threads).finish(data);
  return sink.take();
}

std::vector<uint8_t> decompress(std::span<const uint8_t> data, int threads) {
  ByteReader r(data);
  auto magic = r.raw(4);
  CYP_CHECK(std::memcmp(magic.data(), kMagic, 4) == 0, "flate: bad magic");
  const uint64_t originalSize = r.uv();
  const uint32_t crc = r.u32fixed();

  // A single-block container is a one-shard frame whose payload runs to
  // the end of the input. A framed container lists its shards
  // length-prefixed. Either way every shard header is vetted against the
  // plausibility bounds above before the declared size is trusted enough
  // to allocate, so a corrupt header cannot turn a tiny input into a
  // huge up-front allocation; the shards then inflate into disjoint
  // fixed slices of the output, as independent decode tasks.
  struct Shard {
    std::span<const uint8_t> payload;
    uint64_t expect = 0;
  };
  std::vector<Shard> shards;
  if (originalSize > 0) {
    const size_t blockStart = data.size() - r.remaining();
    if (r.u8() == kBlockFramed) {
      const uint64_t nShards = r.checkedCount(r.uv(), 1);
      CYP_CHECK(nShards == (originalSize + kShardBytes - 1) / kShardBytes,
                "flate: framed container has " << nShards
                                               << " shards for declared size "
                                               << originalSize);
      shards.resize(nShards);
      for (uint64_t i = 0; i < nShards; ++i) {
        shards[i].payload = r.raw(r.checkedCount(r.uv(), 1));
        shards[i].expect =
            std::min<uint64_t>(kShardBytes, originalSize - i * kShardBytes);
      }
    } else {
      CYP_CHECK(originalSize <= kShardBytes,
                "flate: single-block container declares " << originalSize
                                                          << " bytes");
      shards.push_back({data.subspan(blockStart), originalSize});
      r.raw(r.remaining());
    }
  }
  CYP_CHECK(r.atEnd(), "flate: trailing bytes after the last block");
  for (size_t i = 0; i < shards.size(); ++i) {
    const auto payload = shards[i].payload;
    const uint64_t expect = shards[i].expect;
    CYP_CHECK(!payload.empty(), "flate: empty shard " << i);
    if (payload[0] == kBlockStored) {
      CYP_CHECK(payload.size() - 1 == expect,
                "flate: stored block has " << payload.size() - 1
                                           << " bytes but header claims "
                                           << expect);
    } else {
      CYP_CHECK(payload[0] == kBlockHuffman,
                "flate: unknown block kind " << int(payload[0]));
      CYP_CHECK(payload.size() >= kMinHuffmanPayload,
                "flate: huffman shard " << i << " truncated ("
                                        << payload.size() << " bytes)");
      CYP_CHECK(expect <= kMaxExpansion * payload.size(),
                "flate: shard " << i << " claims implausible expansion");
    }
  }
  std::vector<uint8_t> out(originalSize);
  parallelFor(shards.size(), threads, [&](size_t i) {
    ByteReader shard(shards[i].payload);
    const uint8_t shardKind = shard.u8();
    decompressBlockToSlice(shardKind, shard, out.data() + i * kShardBytes,
                           shards[i].expect);
    CYP_CHECK(shard.atEnd(), "flate: trailing bytes in shard " << i);
  });
  CYP_CHECK(crc32(out) == crc, "flate: CRC mismatch");
  return out;
}

std::vector<uint8_t> compressString(const std::string& s, Level level,
                                    int threads) {
  return compress(std::span<const uint8_t>(
                      reinterpret_cast<const uint8_t*>(s.data()), s.size()),
                  level, threads);
}

std::string decompressToString(std::span<const uint8_t> data) {
  auto bytes = decompress(data);
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace cypress::flate
