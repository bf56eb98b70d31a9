#include "trace/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/error.hpp"

namespace cypress::trace {

std::vector<std::vector<uint64_t>> commMatrix(const RawTrace& t) {
  const size_t n = t.ranks.size();
  std::vector<std::vector<uint64_t>> m(n, std::vector<uint64_t>(n, 0));
  for (const RankTrace& r : t.ranks) {
    for (const Event& e : r.events) {
      if (e.op == ir::MpiOp::Send || e.op == ir::MpiOp::Isend) {
        CYP_CHECK(e.peer >= 0 && static_cast<size_t>(e.peer) < n,
                  "comm matrix: bad destination " << e.peer);
        m[static_cast<size_t>(r.rank)][static_cast<size_t>(e.peer)] +=
            static_cast<uint64_t>(e.bytes);
      }
    }
  }
  return m;
}

std::string renderHeatMap(const std::vector<VolumeCell>& cells,
                          int64_t numRanks, int maxCells) {
  CYP_CHECK(maxCells > 0, "heat map: " << maxCells << " cells per side");
  const int64_t n = std::max<int64_t>(numRanks, 0);
  for (const VolumeCell& c : cells) {
    CYP_CHECK(c.src >= 0 && c.src < n, "comm matrix: bad source " << c.src);
    CYP_CHECK(c.dst >= 0 && c.dst < n, "comm matrix: bad destination " << c.dst);
  }
  if (n == 0) return "";
  const size_t side = static_cast<size_t>(std::min<int64_t>(n, maxCells));
  const size_t stride = (static_cast<size_t>(n) + side - 1) / side;

  // Aggregate into buckets.
  std::vector<uint64_t> agg(side * side, 0);
  for (const VolumeCell& c : cells)
    agg[static_cast<size_t>(c.src) / stride * side +
        static_cast<size_t>(c.dst) / stride] += c.bytes;
  const uint64_t maxV = *std::max_element(agg.begin(), agg.end());

  static const char glyphs[] = " .:-=+*#%@";
  std::ostringstream os;
  os << "receiver ->\n";
  for (size_t i = 0; i < side; ++i) {
    for (size_t j = 0; j < side; ++j) {
      const uint64_t v = agg[i * side + j];
      int g = 0;
      if (v > 0 && maxV > 0) {
        const double frac =
            std::log1p(static_cast<double>(v)) / std::log1p(static_cast<double>(maxV));
        g = 1 + static_cast<int>(frac * 8.0);
        g = std::min(g, 9);
      }
      os << glyphs[g];
    }
    os << "\n";
  }
  return os.str();
}

std::string renderMatrix(const std::vector<std::vector<uint64_t>>& m, int maxCells) {
  std::vector<VolumeCell> cells;
  for (size_t i = 0; i < m.size(); ++i)
    for (size_t j = 0; j < m[i].size(); ++j)
      if (m[i][j] != 0)
        cells.push_back(VolumeCell{static_cast<int32_t>(i),
                                   static_cast<int32_t>(j), m[i][j]});
  return renderHeatMap(cells, static_cast<int64_t>(m.size()), maxCells);
}

}  // namespace cypress::trace
