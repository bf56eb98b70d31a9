// Communication-pattern analysis from a *compressed* trace (the paper's
// §VII-D1 use case): read the rank-to-rank volume matrix, each rank's
// peers and the message-size classes straight off a CYPRESS trace with
// the compressed-domain query engine; no event is ever expanded.
//
// Usage: ./build/examples/analyze_patterns [WORKLOAD] [PROCS]
//   default: MG 64 (the paper's irregular example)
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include "driver/pipeline.hpp"
#include "query/engine.hpp"
#include "support/strings.hpp"

using namespace cypress;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "MG";
  const int procs = argc > 2 ? std::atoi(argv[2]) : 64;

  driver::Options opts;
  opts.procs = procs;
  opts.withRaw = false;  // everything below uses only the compressed trace
  opts.withScala = false;
  opts.withScala2 = false;
  driver::RunOutput run = driver::runWorkload(name, opts);

  core::MergedCtt merged = driver::mergeCypress(run);
  const auto traceBytes = merged.serialize().size();

  std::printf("%s on %d ranks — analysis from a %s compressed trace\n\n",
              name.c_str(), procs, humanBytes(traceBytes).c_str());

  const auto cells = query::commMatrix(merged);
  std::printf("communication volume heat map:\n%s\n",
              query::heatMap(cells, procs).c_str());

  // Peer fan-out distribution: peers receiving a nonzero volume.
  std::vector<size_t> peersOf(static_cast<size_t>(procs), 0);
  for (const query::MatrixCell& c : cells)
    if (c.bytes != 0) ++peersOf[static_cast<size_t>(c.src)];
  std::map<size_t, int> fanout;
  for (size_t p : peersOf) fanout[p]++;
  std::printf("peer fan-out histogram (peers -> #ranks):");
  for (const auto& [peers, count] : fanout) std::printf(" %zu->%d", peers, count);
  std::printf("\n");

  // Message-size classes (the paper reports exactly two for LESlie3d).
  std::set<int64_t> sizes;
  uint64_t msgs = 0;
  for (const query::RankHistogram& row : query::histogram(merged)) {
    msgs += row.msgs;
    for (const query::HistBucket& b : row.buckets) sizes.insert(b.bytes);
  }
  std::printf("%llu point-to-point messages in %zu distinct size classes\n",
              static_cast<unsigned long long>(msgs), sizes.size());
  if (sizes.size() <= 8) {
    std::printf("sizes:");
    for (int64_t s : sizes) std::printf(" %s", humanBytes(static_cast<uint64_t>(s)).c_str());
    std::printf("\n");
  }
  return 0;
}
