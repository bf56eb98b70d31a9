// The traced run: one in-process pass over the same command sequence the
// timed loop runs through the shipped binaries. Each step calls the
// layers' public functions in the order `cyptrace` does and records a
// span around every call, so per-layer self times and counts come from
// the benchmark's own files.
//
// Steps file: one tab-separated command per line,
//   run     PROGRAM PROCS THREADS OUT     (cyptrace run)
//   merge   RANKDIR OUT BUDGET_BYTES      (cyptrace merge)
//   stats   TRACE SAVE                    (cyptrace stats)
//   replay  TRACE SAVE                    (cyptrace replay)
//   query   TRACE SPEC SAVE               (cyptrace query)
// SAVE receives the step's printed answer so the caller can compare it
// with the CLI's output; OUT receives the trace artifact.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench.hpp"
#include "cst/builder.hpp"
#include "cypress/ctt.hpp"
#include "cypress/decompress.hpp"
#include "cypress/merge.hpp"
#include "cypress/merge_stream.hpp"
#include "driver/pipeline.hpp"
#include "minic/compile.hpp"
#include "query/engine.hpp"
#include "query/query.hpp"
#include "replay/simulator.hpp"
#include "simmpi/engine.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "trace/matrix.hpp"
#include "trace/stats.hpp"
#include "vm/runner.hpp"
#include "workloads/workloads.hpp"

namespace cypbench {

using namespace cypress;

namespace {

struct Totals {
  SampledObserver::Tally hookEvents, hookStructs, raw;
  uint64_t events = 0;
  uint64_t instructions = 0;
  uint64_t rawBytes = 0;
  uint64_t cttBytes = 0;
  uint64_t cttItems = 0;
  uint64_t ranksTraced = 0;
  uint64_t mergeRanks = 0;
  uint64_t cstVertices = 0;
  uint64_t loadCalls = 0;
  double streamIoSeconds = 0.0;
  uint64_t batches = 0, rounds = 0, steps = 0;
  double replayEvents = 0.0;
};

core::MergedCtt loadTrace(Tracer& tr, const std::string& span,
                          const std::string& path, cst::Tree& tree) {
  Tracer::Scope s(tr, span);
  const std::string text = readFile(path);
  const std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(text.data()), text.size());
  return core::MergedCtt::deserializeWithTree(bytes, tree);
}

/// cyptrace run: compile + static phase, the traced run with raw and
/// CYPRESS observers, the inter-process merge, the atomic write.
void stepRun(Tracer& tr, Totals& tot, MeteredIo& io, uint32_t every,
             const std::vector<std::string>& f) {
  CYP_CHECK(f.size() == 5, "run step needs PROGRAM PROCS THREADS OUT");
  const std::string& program = f[1];
  const int procs = std::stoi(f[2]);
  const int threads = std::stoi(f[3]);
  Tracer::Scope top(tr, "cyptrace.run");

  const workloads::Workload& w = workloads::get(program);
  CYP_CHECK(w.supportsProcs(procs), program << " does not support " << procs);
  const std::string source = w.source(procs, 1);

  // driver::compileForTracing: a plain compile (the Table I baseline),
  // then the compile the CYPRESS static phase instruments.
  std::unique_ptr<ir::Module> module;
  {
    Tracer::Scope s(tr, "minic.compile");
    auto plain = minic::compileProgram(source);
    (void)plain;
    module = minic::compileProgram(source);
  }
  std::optional<cst::StaticResult> sr;
  {
    Tracer::Scope s(tr, "cst.analyze");
    sr.emplace(cst::analyzeAndInstrument(*module));
  }
  const cst::Tree& tree = sr->cst;
  tot.cstVertices += static_cast<uint64_t>(tree.numNodes());

  // driver::runSource with Options{withRaw, withCypress} as cyptrace run
  // sets them: tee order raw, then CYPRESS.
  simmpi::Engine::Config cfg;
  cfg.numRanks = procs;
  simmpi::Engine engine(cfg);
  trace::RawTrace raw;
  raw.ranks.resize(static_cast<size_t>(procs));
  std::vector<std::unique_ptr<trace::RawRecorder>> raws;
  std::vector<std::unique_ptr<core::CttRecorder>> recs;
  std::vector<std::unique_ptr<SampledObserver>> sampled;
  std::vector<std::unique_ptr<trace::TeeObserver>> tees;
  std::vector<trace::Observer*> obs;
  for (int r = 0; r < procs; ++r) {
    raw.ranks[static_cast<size_t>(r)].rank = r;
    raws.push_back(std::make_unique<trace::RawRecorder>(
        raw.ranks[static_cast<size_t>(r)]));
    recs.push_back(std::make_unique<core::CttRecorder>(
        tree, r, core::CttRecorder::Options(core::TimeMode::MeanStddev)));
    auto tee = std::make_unique<trace::TeeObserver>();
    const uint32_t seed = 0x9E3779B9u * static_cast<uint32_t>(r + 1);
    sampled.push_back(
        std::make_unique<SampledObserver>(*raws.back(), every, seed));
    tee->add(sampled.back().get());
    sampled.push_back(
        std::make_unique<SampledObserver>(*recs.back(), every, ~seed));
    tee->add(sampled.back().get());
    tees.push_back(std::move(tee));
    obs.push_back(tees.back().get());
  }
  vm::RunOptions ro;
  ro.instructionLimitPerRank = 1ull << 34;
  ro.threads = threads;
  vm::RunResult result;
  {
    Tracer::Scope s(tr, "vm.run");
    result = vm::run(*module, engine, obs, ro);
  }
  CYP_CHECK(result.clean(), program << ": traced run did not finish cleanly");
  for (size_t i = 0; i < sampled.size(); i += 2) {
    tot.raw.add(sampled[i]->events());
    tot.raw.add(sampled[i]->structs());
    tot.hookEvents.add(sampled[i + 1]->events());
    tot.hookStructs.add(sampled[i + 1]->structs());
  }
  tot.events += raw.totalEvents();
  tot.instructions += result.totalInstructions;
  for (const auto& rt : raw.ranks)
    tot.rawBytes += rt.events.capacity() * sizeof(trace::Event);
  for (const auto& rec : recs) {
    tot.cttBytes += rec->memoryBytes();
    tot.cttItems += rec->ctt().compressedItems();
  }
  tot.ranksTraced += static_cast<uint64_t>(procs);

  // driver::mergeCypress: every rank finalized (checked above).
  std::optional<core::MergedCtt> merged;
  {
    Tracer::Scope s(tr, "cypress.merge");
    std::vector<const core::Ctt*> ctts;
    std::vector<int> ranks;
    for (const auto& rec : recs) {
      ctts.push_back(&rec->ctt());
      ranks.push_back(rec->rank());
    }
    merged.emplace(core::mergeAll(std::move(ctts), nullptr, threads, &ranks));
  }
  tot.mergeRanks += static_cast<uint64_t>(procs);

  {
    Tracer::Scope s(tr, "cyptrace.write");
    io::AtomicFileWriter writer(io, f[4]);
    ByteWriter bw(writer);
    merged->serializeTo(bw);
    bw.flush();
    writer.commit();
  }
  std::printf("traced %s on %d ranks: %zu events\n", program.c_str(), procs,
              raw.totalEvents());
}

/// cyptrace merge: open the rank directory, stream-merge it under the
/// budget, pulling each rank through driver::RankTraceDir::load.
void stepMerge(Tracer& tr, Totals& tot, MeteredIo& io,
               const std::vector<std::string>& f) {
  CYP_CHECK(f.size() == 4, "merge step needs RANKDIR OUT BUDGET_BYTES");
  Tracer::Scope top(tr, "cyptrace.merge");
  std::optional<driver::RankTraceDir> ranks;
  {
    Tracer::Scope s(tr, "driver.open");
    ranks.emplace(driver::openRankTraceDir(f[1], &io));
  }
  core::StreamingMergeOptions mo;
  mo.budgetBytes = std::stoull(f[3]);
  mo.workDir = f[1] + "/merge.work";
  mo.io = &io;
  mo.outPath = f[2];
  const core::CttSource source = [&](int r) {
    Tracer::Scope s(tr, "driver.load");
    ++tot.loadCalls;
    return ranks->load(r);
  };
  const double io0 = io.writeSeconds();
  std::optional<core::StreamingMergeResult> res;
  {
    Tracer::Scope s(tr, "cypress.stream");
    res.emplace(
        core::streamingMerge(ranks->numRanks, source, *ranks->cst, mo));
  }
  tot.streamIoSeconds += io.writeSeconds() - io0;
  tot.batches += res->batches;
  tot.rounds += res->reductionRounds;
  tot.steps += res->stepsExecuted;
  std::printf("merged %d ranks\n", ranks->numRanks);
}

/// cyptrace stats: expand every rank, then the dense statistics and
/// the P x P volume matrix.
void stepStats(Tracer& tr, const std::vector<std::string>& f) {
  CYP_CHECK(f.size() == 3, "stats step needs TRACE SAVE");
  Tracer::Scope top(tr, "cyptrace.stats");
  cst::Tree tree;
  const core::MergedCtt merged = loadTrace(tr, "cypress.load", f[1], tree);
  RankSet all;
  for (int g = 0; g < tree.numNodes(); ++g)
    for (const auto& e : merged.leafEntries(g)) all.unite(e.ranks);
  const int numRanks = all.empty() ? 0 : all.ranks().back() + 1;
  std::optional<trace::RawTrace> t;
  {
    Tracer::Scope s(tr, "cypress.decompress_all");
    t.emplace(core::decompressAll(merged, numRanks));
  }
  std::optional<trace::TraceStats> st;
  {
    Tracer::Scope s(tr, "trace.stats");
    st.emplace(trace::computeStats(*t));
  }
  std::string heat;
  {
    Tracer::Scope s(tr, "trace.matrix");
    heat = trace::renderMatrix(trace::commMatrix(*t), 32);
  }
  writeFile(f[2], st->toString() + "\ncommunication volume heat map:\n" + heat);
}

/// cyptrace replay: SIM-MPI over CompressedCursors.
void stepReplay(Tracer& tr, Totals& tot, const std::vector<std::string>& f) {
  CYP_CHECK(f.size() == 3, "replay step needs TRACE SAVE");
  Tracer::Scope top(tr, "cyptrace.replay");
  cst::Tree tree;
  const core::MergedCtt merged = loadTrace(tr, "cypress.load", f[1], tree);
  (void)query::coveredRanks(merged);
  replay::Prediction p;
  {
    Tracer::Scope s(tr, "replay.simulate");
    p = replay::simulate(merged, simmpi::LogGP::infiniband());
  }
  tot.replayEvents += static_cast<double>(p.totalEvents);
  char line[160];
  std::snprintf(line, sizeof line,
                "predicted execution time: %.3f ms, communication share "
                "%.2f%%\n",
                static_cast<double>(p.predictedNs) / 1e6, p.commPercent());
  writeFile(f[2], line);
}

const char* queryKindName(query::QuerySpec::Kind k) {
  switch (k) {
    case query::QuerySpec::Kind::Summary: return "summary";
    case query::QuerySpec::Kind::Histogram: return "hist";
    case query::QuerySpec::Kind::Matrix: return "matrix";
    case query::QuerySpec::Kind::Collectives: return "colls";
    case query::QuerySpec::Kind::CallSites: return "callsites";
  }
  return "unknown";
}

/// cyptrace query: load, then one compressed-domain evaluation.
void stepQuery(Tracer& tr, const std::vector<std::string>& f) {
  CYP_CHECK(f.size() == 4, "query step needs TRACE SPEC SAVE");
  Tracer::Scope top(tr, "cyptrace.query");
  cst::Tree tree;
  const core::MergedCtt merged = loadTrace(tr, "query.load", f[1], tree);
  const query::QuerySpec spec = query::QuerySpec::parse(f[2]);
  std::string json;
  {
    Tracer::Scope s(tr, std::string("query.") + queryKindName(spec.kind));
    json = query::runQuery(merged, spec, 1);
  }
  writeFile(f[3], json + "\n");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int cmdTraced(const Args& a) {
  constexpr uint32_t every = 64;  // hook calls per timed sample
  ThreadPool::configureShared(
      static_cast<unsigned>(std::max(1LL, a.num("threads", 1))));
  MeteredIo io(io::realIo());
  Tracer tr;
  Totals tot;

  const std::string steps = readFile(a.get("steps"));
  size_t pos = 0;
  while (pos < steps.size()) {
    size_t nl = steps.find('\n', pos);
    if (nl == std::string::npos) nl = steps.size();
    const std::string line = steps.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    const std::vector<std::string> f = splitTabs(line);
    if (f[0] == "run") stepRun(tr, tot, io, every, f);
    else if (f[0] == "merge") stepMerge(tr, tot, io, f);
    else if (f[0] == "stats") stepStats(tr, f);
    else if (f[0] == "replay") stepReplay(tr, tot, f);
    else if (f[0] == "query") stepQuery(tr, f);
    else CYP_FAIL("unknown step " << f[0]);
  }
  writeFile(a.get("spans"), tr.toChromeJson());

  const double clockNs = clockOverheadNs();
  const double hookSelf = tot.hookEvents.estimatedSeconds(clockNs) +
                          tot.hookStructs.estimatedSeconds(clockNs);
  const double hookCalls =
      static_cast<double>(tot.hookEvents.calls + tot.hookStructs.calls);
  const double rawSelf = tot.raw.estimatedSeconds(clockNs);
  const double vmRun = tr.total("vm.run");
  const double events = static_cast<double>(tot.events);
  const double ranks = static_cast<double>(tot.ranksTraced);
  const double simulate = tr.total("replay.simulate");
  const double driverLoad = tr.total("driver.load");

  std::map<std::string, double> m;
  m["minic.compile_s"] = tr.total("minic.compile");
  m["cst.analyze_s"] = tr.total("cst.analyze");
  m["cst.vertices"] = static_cast<double>(tot.cstVertices);
  m["vm.run_s"] = vmRun;
  m["vm.self_s"] = vmRun - hookSelf - rawSelf;
  m["vm.instructions"] = static_cast<double>(tot.instructions);
  m["simmpi.events"] = events;
  m["cypress.hook.event_calls"] = static_cast<double>(tot.hookEvents.calls);
  m["cypress.hook.struct_calls"] = static_cast<double>(tot.hookStructs.calls);
  m["cypress.hook.self_s"] = hookSelf;
  m["cypress.hook.ns_per_call"] = hookCalls > 0 ? hookSelf / hookCalls * 1e9 : 0;
  m["cypress.hook.sample_every"] = every;
  m["bench.clock_ns"] = clockNs;
  m["cypress.ctt_bytes_per_rank"] =
      ranks > 0 ? static_cast<double>(tot.cttBytes) / ranks : 0;
  m["cypress.items_per_event"] =
      events > 0 ? static_cast<double>(tot.cttItems) / events : 0;
  m["trace.raw.self_s"] = rawSelf;
  m["trace.raw.bytes"] = static_cast<double>(tot.rawBytes);
  m["cypress.merge_s"] = tr.total("cypress.merge");
  m["cypress.merge.ranks"] = static_cast<double>(tot.mergeRanks);
  m["io.write_s"] = io.writeSeconds();
  m["io.bytes_written"] = static_cast<double>(io.bytesWritten());
  m["driver.load_s"] = driverLoad;
  m["driver.load_calls"] = static_cast<double>(tot.loadCalls);
  // Self time of the streaming merge: its span minus the rank loads
  // (child spans) and the time spent inside the I/O backend.
  m["cypress.stream.self_s"] =
      tr.self("cypress.stream") - tot.streamIoSeconds;
  m["cypress.stream.batches"] = static_cast<double>(tot.batches);
  m["cypress.stream.rounds"] = static_cast<double>(tot.rounds);
  m["cypress.stream.steps"] = static_cast<double>(tot.steps);
  m["cypress.stream.spill_bytes"] = static_cast<double>(io.spillBytes());
  m["cypress.decompress_all_s"] = tr.total("cypress.decompress_all");
  m["trace.stats_s"] = tr.total("trace.stats");
  m["trace.matrix_s"] = tr.total("trace.matrix");
  m["query.load_ms"] = median(tr.durations("query.load")) * 1e3;
  for (const char* k : {"summary", "hist", "matrix", "colls", "callsites"})
    m[std::string("query.") + k + "_ms"] =
        median(tr.durations(std::string("query.") + k)) * 1e3;
  m["replay.simulate_s"] = simulate;
  m["replay.events_per_s"] = simulate > 0 ? tot.replayEvents / simulate : 0;
  m["bench.span_total_s"] = tr.topLevelTotal();
  std::printf("%s\n", jsonNumbers(m).c_str());
  return 0;
}

}  // namespace cypbench
