// Corruption robustness of the query entry points: a trace file mutated
// at arbitrary bytes, driven through deserialize, every query kind and
// the `cyptrace stats` computation, must either answer or raise
// cypress::Error — never crash, hang, or throw anything else. This is
// the same contract (and the same fuzzer) the deserializers are held
// to; queries extend it through the range arithmetic and the cursor
// walk.
#include <gtest/gtest.h>

#include "cypress/decompress.hpp"
#include "cypress/merge.hpp"
#include "driver/pipeline.hpp"
#include "query/engine.hpp"
#include "query/query.hpp"
#include "verify/fuzz.hpp"

namespace cypress::query {
namespace {

std::vector<uint8_t> goodTraceBytes() {
  driver::Options opts;
  opts.procs = 6;
  opts.withScala = false;
  opts.withScala2 = false;
  driver::RunOutput run = driver::runWorkload("JACOBI", opts);
  return driver::mergeCypress(run).serialize();
}

/// What `cyptrace stats` computes: the totals and the sparse heat map.
std::string statsText(const core::MergedCtt& m) {
  return traceStats(m).toString() + heatMap(commMatrix(m), rankSpan(m));
}

TEST(QueryFuzz, MutatedTracesNeverEscapeTheErrorContract) {
  const auto good = goodTraceBytes();
  verify::FuzzOptions fo;
  fo.seed = 0xC4B8E55;
  fo.mutations = 150;
  const auto decode = [](std::span<const uint8_t> bytes) {
    cst::Tree tree;
    core::MergedCtt m = core::MergedCtt::deserializeWithTree(bytes, tree);
    // A mutant that still deserializes must still answer (or reject)
    // every query kind cleanly.
    runQuery(m, "summary");
    runQuery(m, "matrix");
    runQuery(m, "colls");
    runQuery(m, "callsites src=0 dst=1 iter=0");
    statsText(m);
  };
  const verify::FuzzReport rep = verify::corruptionFuzz(good, decode, fo);
  EXPECT_TRUE(rep.ok()) << rep.toString();
}

TEST(QueryFuzz, TruncatedTracesNeverEscapeTheErrorContract) {
  const auto good = goodTraceBytes();
  const auto decode = [](std::span<const uint8_t> bytes) {
    cst::Tree tree;
    core::MergedCtt m = core::MergedCtt::deserializeWithTree(bytes, tree);
    runQuery(m, "summary");
    statsText(m);
    // The cursor walk must hold the same line event-by-event.
    core::CompressedCursor cur(m, 0);
    while (!cur.done()) cur.next();
  };
  const verify::FuzzReport rep =
      verify::truncationSweep(good, decode, /*stride=*/7);
  EXPECT_TRUE(rep.ok()) << rep.toString();
}

}  // namespace
}  // namespace cypress::query
