// Communication-volume matrices (paper Figures 17 and 20): bytes sent
// between every (sender, receiver) pair.
//
// renderHeatMap is the one heat-map renderer. It takes sparse cells, so
// `cyptrace stats` and the analysis examples feed it the compressed-
// domain query::commMatrix answer and never build a P x P matrix. The
// dense commMatrix and renderMatrix below expand a raw trace first; they
// stay as the decompress-then-scan oracle the tests and the benchmark's
// traced breakdown compare against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/event.hpp"

namespace cypress::trace {

/// Point-to-point bytes sent from `src` to `dst` (one sparse cell).
struct VolumeCell {
  int32_t src = 0;
  int32_t dst = 0;
  uint64_t bytes = 0;
};

/// Render a coarse ASCII heat map (log-scaled glyphs) of the
/// numRanks x numRanks volume matrix whose nonzero cells are `cells`,
/// summed into at most `maxCells` rows/columns of equal-width rank
/// buckets. Cost is O(cells + maxCells^2), independent of numRanks.
/// Throws cypress::Error for a cell outside [0, numRanks).
std::string renderHeatMap(const std::vector<VolumeCell>& cells,
                          int64_t numRanks, int maxCells = 32);

/// matrix[src][dst] = point-to-point bytes sent from src to dst.
std::vector<std::vector<uint64_t>> commMatrix(const RawTrace& t);

/// renderHeatMap over the nonzero cells of a dense matrix.
std::string renderMatrix(const std::vector<std::vector<uint64_t>>& m,
                         int maxCells = 32);

}  // namespace cypress::trace
