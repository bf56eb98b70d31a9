// The check pass, run outside timing: the paper's invariants on one
// traced program.
//
//   - driver::verifyRun: the merged trace is byte-stable and
//     decompress(compress(t)) == t for every rank
//   - every compressed-domain query equals its *FromRaw twin
//   - core::streamingMerge under a small budget (forcing spills and
//     reduction rounds) decompresses to the raw events of every rank
//   - optionally, a trace file the CLI wrote does too
//
// Failed CYPRESS checks fail the pass. Findings that do not gate are
// returned as notes: a failed non-CYPRESS check of verifyRun, and a
// streaming or CLI merge that diffTraces finds not identical to the
// in-RAM mergeAll. Prints one JSON object {"ok", "checks", "failed",
// "notes"} and exits 1 on any failed check.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench.hpp"
#include "cypress/decompress.hpp"
#include "cypress/diff.hpp"
#include "cypress/merge_stream.hpp"
#include "driver/pipeline.hpp"
#include "query/engine.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace cypbench {

using namespace cypress;

int cmdCheck(const Args& a) {
  const int threads = static_cast<int>(a.num("threads", 1));
  ThreadPool::configureShared(static_cast<unsigned>(std::max(1, threads)));

  driver::Options o;
  o.procs = static_cast<int>(a.num("procs", 16));
  o.threads = threads;
  o.withScala = false;
  o.withScala2 = false;
  const driver::RunOutput run = driver::runWorkload(a.get("program"), o);

  std::vector<std::string> failed;
  std::vector<std::string> notes;
  int checks = 0;
  const auto expect = [&](const std::string& name, bool ok) {
    ++checks;
    if (!ok) failed.push_back(name);
  };
  // The CYPRESS checks of verifyRun gate; the others (the raw trace's
  // own byte stability) are reported as notes.
  for (const verify::CheckResult& c : driver::verifyRun(run, threads).checks) {
    const std::string name = "verifyRun: " + c.name;
    if (c.name.rfind("cypress:", 0) == 0) expect(name, c.passed);
    else if (!c.passed) notes.push_back(name);
    if (!c.passed) std::fprintf(stderr, "%s: %s\n", name.c_str(), c.detail.c_str());
  }

  const core::MergedCtt merged = driver::mergeCypress(run, nullptr, threads);
  const RankSet lost = merged.lostRanks();
  expect("summary == summaryFromRaw",
         query::renderSummary(query::summary(merged, threads), lost) ==
             query::renderSummary(query::summaryFromRaw(run.raw), lost));
  expect("histogram == histogramFromRaw",
         query::renderHistogram(query::histogram(merged, threads)) ==
             query::renderHistogram(query::histogramFromRaw(run.raw)));
  expect("commMatrix == commMatrixFromRaw",
         query::renderMatrix(query::commMatrix(merged, threads)) ==
             query::renderMatrix(query::commMatrixFromRaw(run.raw)));
  expect("collectives == collectivesFromRaw",
         query::renderCollectives(query::collectives(merged)) ==
             query::renderCollectives(query::collectivesFromRaw(run.raw)));

  // The streaming merge reads the rank directory `cyptrace merge` reads
  // when one is given, otherwise round-trips each recorder's CTT
  // through its serialized per-rank form in memory.
  std::optional<driver::RankTraceDir> dir;
  if (!a.get("rank-dir").empty()) dir.emplace(driver::openRankTraceDir(a.get("rank-dir")));
  const core::CttSource source = [&](int r) -> std::optional<core::Ctt> {
    if (dir) return dir->load(r);
    return core::Ctt::deserialize(
        run.cypress[static_cast<size_t>(r)]->ctt().serialize(), *run.cst);
  };
  core::StreamingMergeOptions mo;
  mo.budgetBytes = 1 << 20;
  mo.workDir = a.get("work-dir") + "/check.work";
  const core::StreamingMergeResult sm = core::streamingMerge(
      o.procs, source, dir ? *dir->cst : *run.cst, mo);
  // Another merge order may group payload variants differently; what
  // must hold is that every rank still decompresses to its raw events.
  // Structural identity with mergeAll (diffTraces) is reported.
  const auto compareToMergeAll = [&](const std::string& what,
                                     const core::MergedCtt& other) {
    bool same = true;
    for (const trace::RankTrace& rt : run.raw.ranks) {
      const std::vector<trace::Event> got = core::decompressRank(other, rt.rank);
      same = same && got.size() == rt.events.size() &&
             std::equal(got.begin(), got.end(), rt.events.begin(),
                        [](const trace::Event& x, const trace::Event& y) {
                          return x.sameComm(y);
                        });
    }
    expect(what + ": decompression matches raw", same);
    const core::TraceDiff d = core::diffTraces(other, merged);
    if (!d.identical()) {
      notes.push_back(what + ": diffTraces vs mergeAll reports " +
                      std::to_string(d.entries.size()) + " difference(s)");
      std::fprintf(stderr, "%s vs mergeAll:\n%s", what.c_str(),
                   d.toString().c_str());
    }
  };
  compareToMergeAll("streamingMerge", sm.merged);

  if (!a.get("cli-trace").empty()) {
    const std::string text = readFile(a.get("cli-trace"));
    cst::Tree tree;
    const core::MergedCtt cli = core::MergedCtt::deserializeWithTree(
        std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(text.data()),
                                 text.size()),
        tree);
    compareToMergeAll("CLI trace", cli);
  }

  const auto list = [](const std::vector<std::string>& v) {
    std::string out;
    for (const std::string& s : v) out += (out.empty() ? "\"" : ", \"") + s + "\"";
    return "[" + out + "]";
  };
  std::printf("{\"ok\": %s, \"checks\": %d, \"failed\": %s, \"notes\": %s}\n",
              failed.empty() ? "true" : "false", checks, list(failed).c_str(),
              list(notes).c_str());
  return failed.empty() ? 0 : 1;
}

}  // namespace cypbench
