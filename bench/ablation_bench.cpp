// Ablations for the design choices called out in DESIGN.md:
//   1. Sliding-window width for leaf-record matching (window=1 is the
//      paper's literal "compare with the last one"; wider windows catch
//      loop-carried parameter cycles such as CG's butterfly peers).
//   2. Time recording mode: mean/stddev vs histogram (size cost of the
//      richer representation).
//   3. flate effort levels on the raw trace (the Gzip baseline's knob).
#include <cstdio>

#include "bench_util.hpp"
#include "cypress/merge.hpp"
#include "driver/pipeline.hpp"
#include "flate/flate.hpp"
#include "minic/compile.hpp"
#include "simmpi/engine.hpp"
#include "vm/runner.hpp"
#include "workloads/workloads.hpp"

using namespace cypress;

namespace {

size_t cypressSizeWith(const std::string& name, int procs, int window,
                       core::TimeMode mode) {
  const auto& w = workloads::get(name);
  auto m = minic::compileProgram(w.source(procs, 1));
  cst::StaticResult sr = cst::analyzeAndInstrument(*m);
  simmpi::Engine::Config cfg;
  cfg.numRanks = procs;
  simmpi::Engine engine(cfg);
  std::vector<std::unique_ptr<core::CttRecorder>> recs;
  std::vector<trace::Observer*> obs;
  for (int r = 0; r < procs; ++r) {
    recs.push_back(std::make_unique<core::CttRecorder>(
        sr.cst, r, core::CttRecorder::Options(mode, window)));
    obs.push_back(recs.back().get());
  }
  vm::run(*m, engine, obs, {.instructionLimitPerRank = 1ull << 32});
  std::vector<const core::Ctt*> ctts;
  for (const auto& r : recs) ctts.push_back(&r->ctt());
  return core::mergeAll(ctts).serialize().size();
}

}  // namespace

int main() {
  bench::header("Ablation 1 — leaf-record sliding window width (trace KB)",
                "DESIGN.md §4.3; paper §IV-A's window remark");
  bench::row({"program", "procs", "window=1", "window=8", "window=64"});
  for (const std::string& name : std::vector<std::string>{"CG", "MG", "SP"}) {
    const int procs = 64;
    bench::row({name, std::to_string(procs),
                bench::kb(cypressSizeWith(name, procs, 1,
                                          core::TimeMode::MeanStddev)),
                bench::kb(cypressSizeWith(name, procs, 8,
                                          core::TimeMode::MeanStddev)),
                bench::kb(cypressSizeWith(name, procs, 64,
                                          core::TimeMode::MeanStddev))});
    std::fflush(stdout);
  }

  bench::header("Ablation 2 — time recording mode (trace KB)",
                "paper §IV-A: mean/stddev vs histogram");
  bench::row({"program", "mean/stddev", "histogram"});
  for (const std::string& name : std::vector<std::string>{"BT", "LU", "LESLIE3D"}) {
    const int procs = 64;
    bench::row({name,
                bench::kb(cypressSizeWith(name, procs, 64,
                                          core::TimeMode::MeanStddev)),
                bench::kb(cypressSizeWith(name, procs, 64,
                                          core::TimeMode::Histogram))});
    std::fflush(stdout);
  }

  bench::header("Ablation 3 — flate effort on the raw LU trace (KB)",
                "Gzip baseline effort/ratio trade-off");
  {
    driver::Options opts;
    opts.procs = 64;
    opts.withScala = false;
    opts.withScala2 = false;
    opts.withCypress = false;
    driver::RunOutput run = driver::runWorkload("LU", opts);
    auto raw = run.raw.serialize();
    bench::row({"raw", "fast", "default", "best"});
    bench::row({bench::kb(raw.size()),
                bench::kb(flate::compress(raw, flate::Level::Fast).size()),
                bench::kb(flate::compress(raw, flate::Level::Default).size()),
                bench::kb(flate::compress(raw, flate::Level::Best).size())});
  }
  return 0;
}
