// Figure 17: communication-volume matrices of MG and SP at 64 processes
// (the gray-scale heat maps of the paper, rendered in ASCII), read from
// the compressed CYPRESS trace.
#include <cstdio>

#include "bench_util.hpp"
#include "driver/pipeline.hpp"
#include "query/engine.hpp"

using namespace cypress;

namespace {

void show(const std::string& name) {
  driver::Options opts;
  opts.procs = 64;
  opts.withRaw = false;
  opts.withScala = false;
  opts.withScala2 = false;
  driver::RunOutput run = driver::runWorkload(name, opts);
  const auto cells = query::commMatrix(driver::mergeCypress(run));

  uint64_t total = 0, maxCell = 0;
  size_t pairs = 0;
  for (const query::MatrixCell& c : cells) {
    const auto v = static_cast<uint64_t>(c.bytes);
    total += v;
    maxCell = std::max(maxCell, v);
    if (v) ++pairs;
  }
  std::printf("\n%s, 64 processes: %zu communicating pairs, total %s, max pair %s\n",
              name.c_str(), pairs, humanBytes(total).c_str(),
              humanBytes(maxCell).c_str());
  std::printf("%s", query::heatMap(cells, 64, 64).c_str());
}

}  // namespace

int main() {
  bench::header("Figure 17 — communication patterns of MG and SP (64 procs)",
                "Fig. 17(a)-(b), SC'14 CYPRESS paper");
  show("MG");
  show("SP");
  return 0;
}
