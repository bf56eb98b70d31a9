// Internal CYF1 container pieces shared between the decoder and block
// coder (flate.cpp) and the encoder (stream.cpp).
//
// Not part of the public flate API: the container layout these
// constants describe is documented in flate.hpp and docs/FORMATS.md,
// and only the two codec translation units should ever spell it out.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "flate/lz77.hpp"

namespace cypress::flate::detail {

inline constexpr char kMagic[4] = {'C', 'Y', 'F', '1'};

inline constexpr uint8_t kBlockStored = 0;
inline constexpr uint8_t kBlockHuffman = 1;
inline constexpr uint8_t kBlockFramed = 2;

/// Compress one window-independent block: `u8 kind | payload`, stored
/// when Huffman coding does not win. This is exactly the legacy
/// single-block body, reused per shard by the framed container. Pure
/// function of (data, mp). The result starts with `prefix` (the
/// single-block container header), so a whole small container is
/// built in one buffer.
std::vector<uint8_t> compressBlock(std::span<const uint8_t> data,
                                   const MatchParams& mp,
                                   std::span<const uint8_t> prefix = {});

}  // namespace cypress::flate::detail
