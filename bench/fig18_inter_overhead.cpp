// Figure 18: inter-process trace compression (merge) time in seconds —
// the master-slave alignment of the dynamic tools versus CYPRESS's
// template-guided rank-order merge.
#include <cstdio>

#include "bench_util.hpp"
#include "driver/pipeline.hpp"
#include "scalatrace/inter.hpp"
#include "workloads/workloads.hpp"

using namespace cypress;

int main() {
  bench::header("Figure 18 — inter-process compression time (seconds)",
                "Fig. 18, SC'14 CYPRESS paper");
  bench::row({"program", "procs", "ScalaTrace", "ScalaTrace2", "Cypress"});

  for (const std::string& name : std::vector<std::string>{"BT", "CG", "LU", "MG", "SP"}) {
    const auto& w = workloads::get(name);
    for (int procs : w.paperProcCounts) {
      driver::Options opts;
      opts.procs = procs;
      opts.withRaw = false;
      driver::RunOutput run = driver::runWorkload(name, opts);
      driver::SizeReport rep = driver::computeSizes(run);
      bench::row({name, std::to_string(procs), bench::secs(rep.scalaInterSeconds),
                  bench::secs(rep.scala2InterSeconds),
                  bench::secs(rep.cypressInterSeconds)});
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
