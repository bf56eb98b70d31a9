#include "support/bytebuf.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace cypress {
namespace {

TEST(ByteBuf, RoundTripsFixedWidthInts) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32fixed(0xDEADBEEF);
  auto bytes = w.take();
  EXPECT_EQ(bytes.size(), 1u + 4u);

  ByteReader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32fixed(), 0xDEADBEEFu);
  EXPECT_TRUE(r.atEnd());
}

TEST(ByteBuf, VarintSmallValuesUseOneByte) {
  ByteWriter w;
  w.uv(0);
  w.uv(127);
  EXPECT_EQ(w.size(), 2u);
}

TEST(ByteBuf, VarintRoundTripsBoundaries) {
  const uint64_t cases[] = {0,   1,    127,  128,   16383, 16384,
                            1u << 21, 1ull << 35, 1ull << 56,
                            std::numeric_limits<uint64_t>::max()};
  ByteWriter w;
  for (uint64_t v : cases) w.uv(v);
  ByteReader r(w.bytes());
  for (uint64_t v : cases) EXPECT_EQ(r.uv(), v);
  EXPECT_TRUE(r.atEnd());
}

TEST(ByteBuf, SignedVarintRoundTripsNegatives) {
  const int64_t cases[] = {0, -1, 1, -64, 64, -65, 1000000, -1000000,
                           std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max()};
  ByteWriter w;
  for (int64_t v : cases) w.sv(v);
  ByteReader r(w.bytes());
  for (int64_t v : cases) EXPECT_EQ(r.sv(), v);
}

TEST(ByteBuf, ZigzagKeepsSmallMagnitudesSmall) {
  ByteWriter w;
  w.sv(-1);
  w.sv(1);
  EXPECT_EQ(w.size(), 2u);
}

TEST(ByteBuf, RoundTrips128BitVarints) {
  const unsigned __int128 top = ~static_cast<unsigned __int128>(0);
  const unsigned __int128 cases[] = {0, 127, 128, UINT64_MAX,
                                     static_cast<unsigned __int128>(UINT64_MAX) + 1,
                                     top >> 1, top};
  ByteWriter w;
  for (unsigned __int128 v : cases) w.uv128(v);
  ByteReader r(w.bytes());
  for (unsigned __int128 v : cases) EXPECT_TRUE(r.uv128() == v);
  EXPECT_TRUE(r.atEnd());

  // 2^128 - 1 takes 19 bytes, the last holding bits 126..127 only.
  ByteWriter one;
  one.uv128(top);
  ASSERT_EQ(one.bytes().size(), 19u);
  EXPECT_EQ(one.bytes().back(), 0x03);
  std::vector<uint8_t> wide = one.bytes();
  wide.back() = 0x07;  // bit 128
  ByteReader rw(wide);
  EXPECT_THROW(rw.uv128(), Error);
  std::vector<uint8_t> longer = one.bytes();
  longer.back() |= 0x80;  // a 20th byte
  longer.push_back(0x00);
  ByteReader rl(longer);
  EXPECT_THROW(rl.uv128(), Error);
}

TEST(ByteBuf, RoundTripsStrings) {
  ByteWriter w;
  w.str("");
  w.str("hello");
  w.str(std::string(1000, 'x'));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), std::string(1000, 'x'));
}

TEST(ByteBuf, UnderflowThrows) {
  ByteWriter w;
  w.u8(1);
  ByteReader r(w.bytes());
  r.u8();
  EXPECT_THROW(r.u8(), Error);
}

TEST(ByteBuf, TruncatedVarintThrows) {
  std::vector<uint8_t> bad = {0x80, 0x80};  // continuation bits, no end
  ByteReader r(bad);
  EXPECT_THROW(r.uv(), Error);
}

TEST(ByteBuf, RawSpanRoundTrip) {
  ByteWriter w;
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  w.raw(payload);
  ByteReader r(w.bytes());
  auto got = r.raw(5);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), payload.begin()));
  EXPECT_THROW(r.raw(1), Error);
}

}  // namespace
}  // namespace cypress
