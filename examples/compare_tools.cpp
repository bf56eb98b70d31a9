// Compare every tracing tool on one NPB workload: trace sizes after
// inter-process merging, intra-process hook cost, and merge cost — a
// single-row version of the paper's Figures 15/16/18.
//
// Usage: ./build/examples/compare_tools [WORKLOAD] [PROCS]
//   WORKLOAD in {BT CG DT EP FT LU MG SP JACOBI LESLIE3D}, default LU
//   PROCS default 64 (must satisfy the workload's grid constraints)
#include <cstdio>
#include <cstdlib>

#include "driver/pipeline.hpp"
#include "support/strings.hpp"
#include "workloads/workloads.hpp"

using namespace cypress;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "LU";
  const int procs = argc > 2 ? std::atoi(argv[2]) : 64;

  driver::Options opts;
  opts.procs = procs;
  opts.meterHooks = true;  // the "intra cost" column
  driver::RunOutput run = driver::runWorkload(name, opts);
  driver::SizeReport rep = driver::computeSizes(run);

  std::printf("%s on %d simulated ranks — %zu events total\n\n", name.c_str(),
              procs, run.raw.totalEvents());
  std::printf("%-22s %12s %14s %12s\n", "tool", "trace size", "intra cost",
              "merge cost");
  auto line = [](const char* tool, size_t bytes, double intra, double inter) {
    std::printf("%-22s %12s %11.3f ms %9.3f ms\n", tool,
                humanBytes(bytes).c_str(), intra * 1e3, inter * 1e3);
  };
  line("raw (uncompressed)", rep.rawBytes, 0.0, 0.0);
  line("Gzip (flate)", rep.gzipBytes, 0.0, 0.0);
  line("ScalaTrace", rep.scalaBytes, run.scalaIntraSeconds(),
       rep.scalaInterSeconds);
  line("ScalaTrace-2", rep.scala2Bytes, run.scala2IntraSeconds(),
       rep.scala2InterSeconds);
  line("ScalaTrace-2 + Gzip", rep.scala2GzipBytes, run.scala2IntraSeconds(),
       rep.scala2InterSeconds);
  line("CYPRESS", rep.cypressBytes, run.cypressIntraSeconds(),
       rep.cypressInterSeconds);
  line("CYPRESS + Gzip", rep.cypressGzipBytes, run.cypressIntraSeconds(),
       rep.cypressInterSeconds);

  std::printf("\ncompression vs raw: CYPRESS %.0fx, ScalaTrace %.0fx, Gzip %.0fx\n",
              static_cast<double>(rep.rawBytes) / rep.cypressBytes,
              static_cast<double>(rep.rawBytes) / rep.scalaBytes,
              static_cast<double>(rep.rawBytes) / rep.gzipBytes);
  return 0;
}
