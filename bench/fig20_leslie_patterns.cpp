// Figure 20: LESlie3d communication patterns extracted from CYPRESS
// traces at 32 and 64 processes. The matrices are computed in the
// compressed domain, demonstrating the paper's analysis use case, then
// checked against the raw trace.
#include <cstdio>

#include "bench_util.hpp"
#include "driver/pipeline.hpp"
#include "query/engine.hpp"

using namespace cypress;

namespace {

void show(int procs) {
  driver::Options opts;
  opts.procs = procs;
  opts.withScala = false;
  opts.withScala2 = false;
  driver::RunOutput run = driver::runWorkload("LESLIE3D", opts);

  const auto cells = query::commMatrix(driver::mergeCypress(run));
  const bool identical = query::renderMatrix(cells) ==
                         query::renderMatrix(query::commMatrixFromRaw(run.raw));

  std::printf("\nLESlie3d, %d processes (matrix from the compressed CYPRESS trace;"
              " matches raw trace: %s)\n",
              procs, identical ? "yes" : "NO!");
  // Neighbour list of rank 0 (the paper calls out 0 -> {1, 2, 8} at 32).
  std::printf("rank 0 communicates with:");
  for (const query::MatrixCell& c : cells)
    if (c.src == 0 && c.bytes > 0) std::printf(" %d", c.dst);
  std::printf("\n%s", query::heatMap(cells, procs, procs > 32 ? 64 : 32).c_str());
}

}  // namespace

int main() {
  bench::header("Figure 20 — LESlie3d communication patterns (32/64 procs)",
                "Fig. 20(a)-(b), SC'14 CYPRESS paper");
  show(32);
  show(64);
  return 0;
}
