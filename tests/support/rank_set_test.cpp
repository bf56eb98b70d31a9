#include "support/rank_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

namespace cypress {
namespace {

TEST(RankSet, SingleRank) {
  RankSet s(5);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(4));
}

TEST(RankSet, InsertKeepsSortedUnique) {
  RankSet s;
  s.insert(3);
  s.insert(1);
  s.insert(3);
  s.insert(2);
  EXPECT_EQ(s.ranks(), (std::vector<int32_t>{1, 2, 3}));
}

TEST(RankSet, UniteIsSetUnion) {
  RankSet a = RankSet::range(0, 4);
  RankSet b = RankSet::range(3, 7);
  a.unite(b);
  EXPECT_EQ(a.size(), 8u);
  for (int r = 0; r <= 7; ++r) EXPECT_TRUE(a.contains(r));
}

TEST(RankSet, UniteMatchesSetUnionOnEveryLayout) {
  auto set = [](std::vector<int32_t> ranks) {
    RankSet s;
    for (int32_t r : ranks) s.insert(r);
    return s;
  };
  const std::vector<std::pair<std::vector<int32_t>, std::vector<int32_t>>>
      cases = {
          {{0, 1, 2}, {5, 9}},           // wholly above: appends
          {{0, 1, 2, 3, 4}, {4, 5, 6, 7}},  // touching at one rank
          {{0, 2, 4, 6}, {1, 3, 5}},     // interleaved
          {{5, 9}, {0, 1, 2}},           // wholly below
          {{3, 8}, {}},                  // empty other side
          {{}, {3, 8}},                  // empty this side
          {{}, {}},
          {{7}, {7}},
      };
  for (const auto& [a, b] : cases) {
    std::vector<int32_t> expected;
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(expected));
    RankSet s = set(a);
    s.unite(set(b));
    EXPECT_EQ(s.ranks(), expected) << a.size() << " + " << b.size();
  }
}

TEST(RankSet, RankOrderFoldAppendsOneRankAtATime) {
  RankSet s;
  for (int32_t r = 0; r < 1000; r += 3) s.unite(RankSet(r));
  ASSERT_EQ(s.size(), 334u);
  for (size_t i = 0; i < s.size(); ++i)
    EXPECT_EQ(s.ranks()[i], static_cast<int32_t>(3 * i));
  // The slack of an appending unite is not counted.
  EXPECT_EQ(s.memoryBytes(), sizeof(RankSet) + 334 * sizeof(int32_t));
}

TEST(RankSet, ContiguousRangeSerializesCompactly) {
  RankSet s = RankSet::range(1, 510);  // the paper's "ranks 1..size-2"
  ByteWriter w;
  s.serialize(w);
  EXPECT_LT(w.size(), 12u);
  ByteReader r(w.bytes());
  RankSet back = RankSet::deserialize(r);
  EXPECT_EQ(back, s);
}

TEST(RankSet, StridedSetSerializesCompactly) {
  RankSet s;
  for (int r = 0; r < 512; r += 2) s.insert(r);  // even ranks
  ByteWriter w;
  s.serialize(w);
  EXPECT_LT(w.size(), 12u);
  ByteReader r(w.bytes());
  EXPECT_EQ(RankSet::deserialize(r), s);
}

TEST(RankSet, IrregularRoundTrip) {
  RankSet s;
  for (int r : {0, 3, 4, 5, 17, 100, 101, 400}) s.insert(r);
  ByteWriter w;
  s.serialize(w);
  ByteReader r(w.bytes());
  EXPECT_EQ(RankSet::deserialize(r), s);
}

TEST(RankSet, EmptyRoundTrip) {
  RankSet s;
  ByteWriter w;
  s.serialize(w);
  ByteReader r(w.bytes());
  EXPECT_TRUE(RankSet::deserialize(r).empty());
}

}  // namespace
}  // namespace cypress
