// Figure 16: intra-process compression overhead — per-tool hook CPU time
// relative to the simulated application time, and per-process
// compressor memory.
#include <cstdio>

#include "bench_util.hpp"
#include "driver/pipeline.hpp"
#include "workloads/workloads.hpp"

using namespace cypress;

int main() {
  bench::header(
      "Figure 16 — intra-process compression overhead (time %, memory KB/proc)",
      "Fig. 16(a)-(f), SC'14 CYPRESS paper");
  bench::row({"program", "procs", "t%Scala", "t%Scala2", "t%Cypress",
              "memScala", "memScala2", "memCypress"});

  for (const std::string& name :
       std::vector<std::string>{"BT", "CG", "FT", "LU", "MG", "SP"}) {
    const auto& w = workloads::get(name);
    for (int procs : w.paperProcCounts) {
      driver::Options opts;
      opts.procs = procs;
      opts.withRaw = false;
      opts.meterHooks = true;
      driver::RunOutput run = driver::runWorkload(name, opts);
      // Overhead relative to the application's execution time on the
      // modeled cluster: total rank-seconds of simulated time versus the
      // measured CPU seconds spent inside each tool's hooks.
      double rankSeconds = 0.0;
      for (uint64_t c : run.runStats.rankClockNs)
        rankSeconds += static_cast<double>(c) * 1e-9;
      auto timePct = [&](double s) {
        return rankSeconds > 0 ? 100.0 * s / rankSeconds : 0.0;
      };
      bench::row({name, std::to_string(procs),
                  bench::pct(timePct(run.scalaIntraSeconds())),
                  bench::pct(timePct(run.scala2IntraSeconds())),
                  bench::pct(timePct(run.cypressIntraSeconds())),
                  bench::kb(run.scalaMemoryPerRank()),
                  bench::kb(run.scala2MemoryPerRank()),
                  bench::kb(run.cypressMemoryPerRank())});
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf(
      "Time%% = per-rank compression-hook CPU time relative to the simulated\n"
      "application time (total rank-seconds on the modeled cluster).\n"
      "Memory = average per-process compressor footprint.\n");
  return 0;
}
