// Trace-driven performance prediction (the paper's Figure 14 workflow):
// trace LESlie3d once with CYPRESS, then replay the compressed trace
// in SIM-MPI under different network models — including a network the
// application never ran on (what-if analysis).
//
// Usage: ./build/examples/predict_performance [PROCS]   (default 64)
#include <cstdio>
#include <cstdlib>

#include "driver/pipeline.hpp"
#include "replay/simulator.hpp"

using namespace cypress;

int main(int argc, char** argv) {
  const int procs = argc > 1 ? std::atoi(argv[1]) : 64;

  driver::Options opts;
  opts.procs = procs;
  opts.withRaw = false;
  opts.withScala = false;
  opts.withScala2 = false;
  opts.engine.jitter = 0.05;
  driver::RunOutput run = driver::runWorkload("LESLIE3D", opts);

  core::MergedCtt merged = driver::mergeCypress(run);

  const double measuredMs = static_cast<double>(run.runStats.executionNs) / 1e6;
  std::printf("LESlie3d, %d ranks — measured on the traced cluster: %.2f ms\n\n",
              procs, measuredMs);

  struct What {
    const char* name;
    simmpi::LogGP net;
  };
  for (const What& w : {What{"QDR InfiniBand (traced fabric)",
                             simmpi::LogGP::infiniband()},
                        What{"commodity ethernet (what-if)",
                             simmpi::LogGP::ethernet()}}) {
    replay::Prediction p = replay::simulate(merged, w.net);
    std::printf("%-34s predicted %8.2f ms  (comm share %5.2f%%)\n", w.name,
                static_cast<double>(p.predictedNs) / 1e6, p.commPercent());
  }

  replay::Prediction p = replay::simulate(merged);
  const double err =
      std::abs(static_cast<double>(p.predictedNs) / 1e6 - measuredMs) /
      measuredMs * 100.0;
  std::printf("\nprediction error on the traced fabric: %.2f%%\n", err);
  return 0;
}
