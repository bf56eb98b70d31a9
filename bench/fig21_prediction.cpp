// Figure 21: LESlie3d execution-time prediction — measured time on the
// simulated cluster vs SIM-MPI replay of the compressed CYPRESS trace,
// plus the communication-time share.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "driver/pipeline.hpp"
#include "replay/simulator.hpp"

using namespace cypress;

int main() {
  bench::header(
      "Figure 21 — LESlie3d measured vs predicted execution time (SIM-MPI)",
      "Fig. 21, SC'14 CYPRESS paper");
  bench::row({"procs", "measured(ms)", "predicted(ms)", "error", "comm%",
              "timed(ms)"});

  double errSum = 0.0;
  int count = 0;
  for (int procs : {32, 64, 128, 256, 512}) {
    driver::Options opts;
    opts.procs = procs;
    opts.withRaw = false;
    opts.withScala = false;
    opts.withScala2 = false;
    opts.engine.jitter = 0.05;
    driver::RunOutput run = driver::runWorkload("LESLIE3D", opts);

    core::MergedCtt merged = driver::mergeCypress(run);
    replay::Prediction p = replay::simulate(merged);
    replay::Prediction timed = replay::simulateRecordedTimes(merged);

    const double measuredMs = static_cast<double>(run.runStats.executionNs) / 1e6;
    const double predictedMs = static_cast<double>(p.predictedNs) / 1e6;
    const double err = std::abs(predictedMs - measuredMs) / measuredMs * 100.0;
    errSum += err;
    ++count;
    char a[32], b[32], c[32];
    std::snprintf(a, sizeof a, "%.2f", measuredMs);
    std::snprintf(b, sizeof b, "%.2f", predictedMs);
    std::snprintf(c, sizeof c, "%.2f", static_cast<double>(timed.predictedNs) / 1e6);
    bench::row({std::to_string(procs), a, b, bench::pct(err),
                bench::pct(p.commPercent()), c});
    std::fflush(stdout);
  }
  std::printf("\naverage prediction error: %.2f%% (paper reports 5.9%%)\n",
              errSum / count);
  return 0;
}
