// flate: a self-contained DEFLATE-style general-purpose codec.
//
// This is the repository's stand-in for Gzip/zlib (the baseline codec in
// the paper's Figure 15/19 and the optional "+Gzip" post-pass on CYPRESS
// and ScalaTrace-2 outputs). The container is:
//
//   magic "CYF1" | uvarint originalSize | crc32 | blocks...
//
// Inputs up to kShardBytes use the original single-block layout: u8 kind
// (0 stored / 1 huffman), then the payload. Huffman blocks carry two
// canonical code-length tables (literal/length and distance alphabets,
// DEFLATE's tables) followed by the LSB-first bit stream of LZ77 tokens
// terminated by an end-of-block symbol.
//
// Larger inputs use a framed multi-block container (kind 2): the input
// is cut into fixed kShardBytes shards, each compressed independently
// with a fresh LZ77 window and stored length-prefixed. Shards are
// independent tasks, so compression parallelizes across them — and
// because the shard boundaries depend only on the input size, the
// output is byte-identical for every thread count.
//
// A container ends at its last block: decompress() rejects any byte
// after it, as after the CRC of an empty input.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace cypress::flate {

/// Compression effort: bounds the LZ77 hash-chain walk.
enum class Level { Fast = 16, Default = 128, Best = 1024 };

/// Shard size of the framed multi-block container; inputs at or below
/// this size keep the legacy single-block layout.
constexpr size_t kShardBytes = 256 * 1024;

/// Compress `data`; never fails (incompressible data falls back to a
/// stored block with a few bytes of framing overhead). `threads` caps
/// how many shards compress concurrently (on the shared pipeline pool)
/// and never changes the output bytes.
std::vector<uint8_t> compress(std::span<const uint8_t> data,
                              Level level = Level::Default, int threads = 1);

/// Decompress a buffer produced by compress(); throws cypress::Error on
/// corrupt input (bad magic, bad codes, CRC mismatch). Framed containers
/// decode their shards concurrently (`threads` lanes): the shard headers
/// are walked and sanity-checked first, then each shard inflates into
/// its own fixed slice of the output, so the result is byte-identical to
/// a sequential decode.
std::vector<uint8_t> decompress(std::span<const uint8_t> data,
                                int threads = 1);

/// Convenience: size in bytes after compression.
size_t compressedSize(std::span<const uint8_t> data,
                      Level level = Level::Default, int threads = 1);

/// String overloads (used by text-file artifacts such as serialized CSTs).
std::vector<uint8_t> compressString(const std::string& s,
                                    Level level = Level::Default,
                                    int threads = 1);
std::string decompressToString(std::span<const uint8_t> data);

/// CRC-32 (IEEE 802.3 polynomial), used for container integrity.
/// Implemented with the slice-by-8 table method (8 bytes per step), so
/// large buffers cost ~1/6 of a bytewise pass; the value is identical
/// to the classic bytewise CRC for every input.
uint32_t crc32(std::span<const uint8_t> data);

/// Combine two CRCs: given crc1 = crc32(A) and crc2 = crc32(B), returns
/// crc32(A || B) where `len2` is B's length in bytes — without touching
/// either buffer (GF(2) matrix composition, the zlib crc32_combine
/// construction). This is what lets per-shard CRCs be computed inside
/// independent pool tasks and merged afterwards.
uint32_t crc32Combine(uint32_t crc1, uint32_t crc2, uint64_t len2);

}  // namespace cypress::flate
