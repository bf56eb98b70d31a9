// The heat-map renderer: byte pins for its bucketing and glyphs, and
// the dense renderMatrix as a thin wrapper over the sparse renderer.
#include "trace/matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/error.hpp"

namespace cypress::trace {
namespace {

/// Five ranks in a ring with volumes spanning eight decades, plus one
/// self-send: every glyph level the log scale reaches.
std::vector<VolumeCell> ringCells() {
  const uint64_t v[5] = {1, 10, 1000, 100000, 100000000};
  std::vector<VolumeCell> cells;
  for (int32_t i = 0; i < 5; ++i) cells.push_back({i, (i + 1) % 5, v[i]});
  cells.push_back({2, 2, 3});
  return cells;
}

/// 40 ranks, rank i sending i*i+1 bytes to 7i mod 40: more ranks than
/// heat-map cells, so ranks share buckets.
std::vector<VolumeCell> wideCells() {
  std::vector<VolumeCell> cells;
  for (int32_t i = 0; i < 40; ++i)
    cells.push_back({i, (i * 7) % 40, static_cast<uint64_t>(i) * i + 1});
  return cells;
}

std::vector<std::vector<uint64_t>> dense(const std::vector<VolumeCell>& cells,
                                         size_t n) {
  std::vector<std::vector<uint64_t>> m(n, std::vector<uint64_t>(n, 0));
  for (const VolumeCell& c : cells)
    m[static_cast<size_t>(c.src)][static_cast<size_t>(c.dst)] += c.bytes;
  return m;
}

TEST(HeatMap, PinnedBytes) {
  EXPECT_EQ(renderHeatMap(ringCells(), 5),
            "receiver ->\n"
            " .   \n"
            "  :  \n"
            "  .= \n"
            "    *\n"
            "@    \n");
  EXPECT_EQ(renderHeatMap(wideCells(), 40, 8),
            "receiver ->\n"
            ".:: -=  \n"
            "=+ ++  =\n"
            "* **  **\n"
            " ##  *##\n"
            "##  ### \n"
            "%  %%% %\n"
            "  %%% %%\n"
            " %%% %@ \n");
}

TEST(HeatMap, BucketStrideLeavesTrailingRowsBlank) {
  // 40 ranks over at most 32 cells: stride 2, so 20 rows carry data
  // and the other 12 of the 32 print blank.
  const std::string art = renderHeatMap(wideCells(), 40);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 33);
  const std::string blank(32, ' ');
  EXPECT_NE(art.find(blank + "\n" + blank + "\n"), std::string::npos);
  EXPECT_EQ(art.substr(art.size() - 33), blank + "\n");
}

TEST(HeatMap, CellOrderAndZeroCellsDoNotMatter) {
  std::vector<VolumeCell> cells = wideCells();
  const std::string want = renderHeatMap(cells, 40);
  std::reverse(cells.begin(), cells.end());
  cells.push_back({3, 39, 0});
  EXPECT_EQ(renderHeatMap(cells, 40), want);
}

TEST(HeatMap, DenseWrapperRendersTheSameCells) {
  EXPECT_EQ(renderMatrix(dense(ringCells(), 5)), renderHeatMap(ringCells(), 5));
  EXPECT_EQ(renderMatrix(dense(wideCells(), 40), 8),
            renderHeatMap(wideCells(), 40, 8));
}

TEST(HeatMap, EmptyAndOutOfRange) {
  EXPECT_EQ(renderHeatMap({}, 0), "");
  EXPECT_EQ(renderHeatMap({}, 2), "receiver ->\n  \n  \n");
  EXPECT_THROW(renderHeatMap({{0, 2, 1}}, 2), Error);
  EXPECT_THROW(renderHeatMap({{-1, 0, 1}}, 2), Error);
  EXPECT_THROW(renderHeatMap({{0, 0, 1}}, 0), Error);
}

}  // namespace
}  // namespace cypress::trace
