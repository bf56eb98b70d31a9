// Compressed-domain query engine: oracle equivalence against
// decompress-then-scan, across workloads and faulted (partial) traces.
//
// The contract under test: every answer the engine computes from the
// CTT+RSD form is byte-identical (canonical JSON) to the same analysis
// run over the fully decompressed event streams — so compressed-domain
// analysis is a pure optimization, never an approximation. The same
// holds for the `cyptrace stats` text: traceStats plus the sparse heat
// map against trace::computeStats plus the dense P x P heat map.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "cypress/decompress.hpp"
#include "driver/pipeline.hpp"
#include "query/engine.hpp"
#include "query/query.hpp"
#include "simmpi/fault.hpp"
#include "support/error.hpp"
#include "support/io.hpp"
#include "trace/matrix.hpp"
#include "trace/stats.hpp"
#include "workloads/workloads.hpp"

namespace cypress::query {
namespace {

/// MergedCtt references the CST by pointer, so the tree must outlive
/// it — the holder carries the RunOutput's shared CST along.
struct Compressed {
  std::shared_ptr<const cst::Tree> tree;
  core::MergedCtt m;
};

Compressed mergedFor(const std::string& workload, int procs, int scale = 1) {
  driver::Options opts;
  opts.procs = procs;
  opts.scale = scale;
  opts.withScala = false;
  opts.withScala2 = false;
  driver::RunOutput run = driver::runWorkload(workload, opts);
  return Compressed{run.cst, driver::mergeCypress(run)};
}

/// Survivor-only expansion: one RankTrace per covered rank, in rank
/// order — decompressAll would throw on traces with lost ranks.
trace::RawTrace expandCovered(const core::MergedCtt& m) {
  trace::RawTrace t;
  const RankSet covered = coveredRanks(m);
  for (int32_t r : covered.ranks()) {
    trace::RankTrace rt;
    rt.rank = r;
    rt.events = core::decompressRank(m, r);
    t.ranks.push_back(std::move(rt));
  }
  return t;
}

/// The `cyptrace stats` text, compressed domain vs decompress-then-
/// scan: computeStats over the survivors' events and the dense heat map
/// over every rank below the span, lost ranks left empty. Without lost
/// ranks both expansions are exactly decompressAll.
void expectStatsOracle(const core::MergedCtt& m, const std::string& ctx) {
  const int64_t span = rankSpan(m);
  trace::RawTrace all;
  trace::RawTrace survivors;
  if (m.lostRanks().empty()) {
    all = core::decompressAll(m, static_cast<int>(span));
    survivors = all;
  } else {
    for (int32_t r = 0; r < span; ++r) {
      trace::RankTrace rt{r, {}};
      if (!m.lostRanks().contains(r)) {
        rt.events = core::decompressRank(m, r);
        survivors.ranks.push_back(rt);
      }
      all.ranks.push_back(std::move(rt));
    }
  }
  const trace::TraceStats got = traceStats(m);
  const trace::TraceStats want = trace::computeStats(survivors);
  // Field equality too: toString() shows times only as percentages.
  EXPECT_TRUE(got == want) << ctx << "\n" << got.toString();
  EXPECT_EQ(got.toString() + heatMap(commMatrix(m), span),
            want.toString() + trace::renderMatrix(trace::commMatrix(all)))
      << ctx;
}

/// Every query kind and the stats text, engine vs oracle, as rendered
/// byte equality.
void expectOracleEquivalence(const core::MergedCtt& m,
                             const std::string& ctx) {
  const trace::RawTrace raw = expandCovered(m);
  EXPECT_EQ(renderSummary(summary(m), m.lostRanks()),
            renderSummary(summaryFromRaw(raw), m.lostRanks()))
      << ctx;
  EXPECT_EQ(renderHistogram(histogram(m)),
            renderHistogram(histogramFromRaw(raw)))
      << ctx;
  EXPECT_EQ(renderMatrix(commMatrix(m)), renderMatrix(commMatrixFromRaw(raw)))
      << ctx;
  EXPECT_EQ(renderCollectives(collectives(m)),
            renderCollectives(collectivesFromRaw(raw)))
      << ctx;
  expectStatsOracle(m, ctx);
}

TEST(QueryEngine, OracleEquivalenceAcrossWorkloads) {
  for (const char* w : {"CG", "LU", "FT", "JACOBI", "EP"}) {
    SCOPED_TRACE(w);
    const Compressed c = mergedFor(w, 16);
    expectOracleEquivalence(c.m, w);
  }
}

TEST(QueryEngine, OracleEquivalenceAtOddRankCounts) {
  // Rank-conditional subtrees (first/last rank asymmetries) exercise
  // the per-rank entry selection.
  const Compressed a = mergedFor("JACOBI", 5);
  expectOracleEquivalence(a.m, "JACOBI@5");
  const Compressed b = mergedFor("CG", 8, 2);
  expectOracleEquivalence(b.m, "CG@8x2");
}

TEST(QueryEngine, OracleEquivalenceOnFaultedTrace) {
  // A salvaged run merges only the survivors' CTTs and annotates the
  // dead set as lost. An injected kill in JACOBI cascades into every
  // rank stalling (all lost, empty coverage), so the partial merge is
  // built here the way driver::mergeCypress builds it: survivors only,
  // the dead rank excluded and marked.
  driver::Options opts;
  opts.procs = 8;
  opts.withScala = false;
  opts.withScala2 = false;
  driver::RunOutput run = driver::runWorkload("JACOBI", opts);
  std::vector<const core::Ctt*> ctts;
  std::vector<int> ranks;
  for (const auto& r : run.cypress) {
    if (r->rank() == 3) continue;
    ctts.push_back(&r->ctt());
    ranks.push_back(r->rank());
  }
  core::MergedCtt m = core::mergeAll(ctts, nullptr, 1, &ranks);
  RankSet lost;
  lost.insert(3);
  m.markLost(lost);
  ASSERT_FALSE(m.lostRanks().empty());

  // The engine answers for exactly the surviving coverage, and the
  // lost set is carried in the summary rendering.
  const RankSet covered = coveredRanks(m);
  for (int32_t r : m.lostRanks().ranks()) EXPECT_FALSE(covered.contains(r));
  expectOracleEquivalence(m, "faulted JACOBI");
  const std::string json = runQuery(m, "summary");
  EXPECT_NE(json.find("\"lostRanks\":[3]"), std::string::npos) << json;
}

TEST(QueryEngine, StatsOracleAcrossEveryWorkload) {
  // Every built-in workload at a small rank count and an odd one (1
  // where the code needs a power of two).
  for (const std::string& w : workloads::allNames()) {
    const workloads::Workload& wl = workloads::get(w);
    const int odd = wl.supportsProcs(5) ? 5 : wl.supportsProcs(9) ? 9 : 1;
    for (int procs : {4, odd}) {
      const std::string ctx = w + "@" + std::to_string(procs);
      SCOPED_TRACE(ctx);
      const Compressed c = mergedFor(w, procs);
      expectStatsOracle(c.m, ctx);
    }
  }
}

TEST(QueryEngine, StatsOracleWithIdleRanks) {
  // Rank 1 records nothing at all, so it has no summary row, and
  // rank 4 only loop counts: an idle rank inside the span counts as 0
  // events, and rank 4, past the highest communicating rank, is
  // outside the span.
  const std::string src =
      "func main() {\n"
      "  if (rank != 1) {\n"
      "    for (var i = 0; i < 3; i = i + 1) {\n"
      "      if (rank == 0) { mpi_send(2, 100, 0); }\n"
      "      if (rank == 2) { mpi_recv(0, 100, 0); }\n"
      "    }\n"
      "  }\n"
      "  if (rank == 3) { mpi_send(0, 5, 1); }\n"
      "  if (rank == 0) { mpi_recv(3, 5, 1); }\n"
      "}\n";
  driver::Options opts;
  opts.procs = 5;
  opts.withScala = false;
  opts.withScala2 = false;
  driver::RunOutput run = driver::runSource("idle", src, opts);
  const Compressed c{run.cst, driver::mergeCypress(run)};
  ASSERT_EQ(rankSpan(c.m), 4);
  ASSERT_FALSE(coveredRanks(c.m).contains(1));
  expectStatsOracle(c.m, "idle ranks");
  EXPECT_EQ(traceStats(c.m).minRankEvents, 0u);
}

TEST(QueryEngine, StatsOracleOnSalvagedTrace) {
  // `cyptrace run JACOBI --procs 16 --fault kill:5@199 --salvage`:
  // rank 5 dies, its partner 4 stalls, and the merge marks both lost.
  // decompressAll throws on such a trace; stats answers for the
  // survivors.
  driver::Options opts;
  opts.procs = 16;
  opts.withRaw = false;
  opts.withScala = false;
  opts.withScala2 = false;
  opts.engine.faults.faults.push_back(simmpi::parseFaultSpec("kill:5@199"));
  opts.onStall = vm::OnStall::Salvage;
  driver::RunOutput run = driver::runWorkload("JACOBI", opts);
  const Compressed c{run.cst, driver::mergeCypress(run)};
  ASSERT_EQ(c.m.lostRanks().ranks(), (std::vector<int32_t>{4, 5}));
  EXPECT_THROW(core::decompressAll(c.m, static_cast<int>(rankSpan(c.m))),
               Error);
  expectOracleEquivalence(c.m, "salvaged JACOBI");
  const trace::TraceStats st = traceStats(c.m);
  EXPECT_EQ(st.minRankEvents, 100u);
  EXPECT_EQ(st.maxRankEvents, 200u);
  EXPECT_DOUBLE_EQ(st.avgRankEvents, static_cast<double>(st.totalEvents) / 14);
}

TEST(QueryEngine, HeatMapRejectsCellsOutsideTheSpan) {
  const std::vector<MatrixCell> cells = {MatrixCell{0, 4, 1, 8}};
  EXPECT_THROW(heatMap(cells, 4), Error);
  EXPECT_NE(heatMap(cells, 5).find('@'), std::string::npos);
}

/// The message of the cypress::Error `f` throws ("" when it throws
/// none).
template <typename F>
std::string errorOf(F f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(QueryEngine, CorruptTimeStatisticsAndOldFormatsAreErrors) {
  // The per-event time traceStats, the cursor and replay all use is
  // Σx / n of the file's integer statistics; a state no recorder writes
  // must throw before anything derives a time from it.
  const auto readStats = [](const std::vector<uint8_t>& bytes) {
    ByteReader r(bytes);
    return RunningStats::deserialize(r);
  };
  // n = 2, Σx = 10, then a Σx² varint of 20 bytes.
  std::vector<uint8_t> overlong = {2, 10};
  overlong.insert(overlong.end(), 19, 0x80);
  overlong.push_back(0x01);
  EXPECT_NE(errorOf([&] { readStats(overlong); }), "");
  // n = 2, Σx = 10, Σx² = 49: n·Σx² < (Σx)², a negative variance.
  EXPECT_NE(errorOf([&] { readStats({2, 10, 49}); }), "");
  EXPECT_EQ(readStats({2, 10, 50}).mean(), 5u);  // two samples of 5

  // A CYPC without the version after its magic, as older builds wrote.
  const Compressed c = mergedFor("JACOBI", 4);
  std::vector<uint8_t> old = c.m.serialize();
  ASSERT_EQ(old[5], 2);  // str "CYPC" is 5 bytes, then uv version
  old.erase(old.begin() + 5);
  cst::Tree tree;
  EXPECT_NE(errorOf([&] { core::MergedCtt::deserializeWithTree(old, tree); })
                .find("version 2"),
            std::string::npos);

  // A version-1 rank directory.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("cyp_old_rankdir." + std::to_string(getpid())))
          .string();
  std::filesystem::create_directories(dir);
  ByteWriter meta;
  meta.str("CYRD");
  meta.uv(1);
  meta.uv(4);
  io::writeFileAtomic(io::realIo(), dir + "/meta.cyrd", meta.bytes());
  EXPECT_NE(errorOf([&] { driver::openRankTraceDir(dir); }).find("version 2"),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(QueryEngine, MatrixAgreesWithSummaryTotals) {
  const Compressed c = mergedFor("CG", 16);
  const core::MergedCtt& m = c.m;
  const auto rows = summary(m);
  const auto cells = commMatrix(m);
  for (const SummaryRow& row : rows) {
    uint64_t msgs = 0;
    int64_t bytes = 0;
    for (const MatrixCell& c : cells) {
      if (c.src != row.rank) continue;
      msgs += c.msgs;
      bytes += c.bytes;
    }
    EXPECT_EQ(msgs, row.sends) << "rank " << row.rank;
    EXPECT_EQ(bytes, row.sendBytes) << "rank " << row.rank;
  }
}

TEST(QueryCursor, StreamsExactlyTheDecompressedSequence) {
  const Compressed c = mergedFor("FT", 8);
  const core::MergedCtt& m = c.m;
  const RankSet covered = coveredRanks(m);
  for (int32_t r : covered.ranks()) {
    const auto events = core::decompressRank(m, r);
    core::CompressedCursor cur(m, r);
    size_t i = 0;
    while (!cur.done()) {
      ASSERT_LT(i, events.size()) << "rank " << r;
      EXPECT_EQ(cur.peek().toString(), events[i].toString())
          << "rank " << r << " event " << i;
      cur.next();
      ++i;
    }
    EXPECT_EQ(i, events.size()) << "rank " << r;
    EXPECT_EQ(cur.emitted(), events.size()) << "rank " << r;
  }
}

TEST(QueryCursor, CursorStateIsSmallerThanTheExpandedVector) {
  const Compressed c = mergedFor("JACOBI", 8, 4);
  const core::MergedCtt& m = c.m;
  const auto events = core::decompressRank(m, 1);
  core::CompressedCursor cur(m, 1);
  while (!cur.done()) cur.next();
  EXPECT_LT(cur.memoryBytes(), events.size() * sizeof(trace::Event) / 4)
      << "cursor state should stay far below the materialized stream";
}

TEST(QueryCursor, LostRankThrowsLikeDecompressRank) {
  driver::Options opts;
  opts.procs = 8;
  opts.withScala = false;
  opts.withScala2 = false;
  opts.onStall = vm::OnStall::Salvage;
  opts.engine.faults.faults.push_back(simmpi::parseFaultSpec("kill:2@10"));
  driver::RunOutput run = driver::runWorkload("JACOBI", opts);
  core::MergedCtt m = driver::mergeCypress(run);
  ASSERT_TRUE(m.lostRanks().contains(2));
  EXPECT_THROW(core::decompressRank(m, 2), Error);
  core::CompressedCursor cur(m, 2);
  EXPECT_THROW(cur.done(), Error);
}

TEST(QueryCallSites, SummedOverIterationsMatchesTheMatrix) {
  // Σ_k callsites(src, dst, k).msgs over every iteration of the
  // outermost comm loop must reproduce the full matrix cell — the
  // interval arithmetic partitions the trace exactly.
  const Compressed c = mergedFor("JACOBI", 8);
  const core::MergedCtt& m = c.m;
  const int gid = defaultLoopGid(m.cst());
  ASSERT_GE(gid, 0);
  const int32_t src = 2, dst = 3;
  uint64_t cellMsgs = 0;
  int64_t cellBytes = 0;
  for (const MatrixCell& c : commMatrix(m)) {
    if (c.src == src && c.dst == dst) {
      cellMsgs = c.msgs;
      cellBytes = c.bytes;
    }
  }
  ASSERT_GT(cellMsgs, 0u);

  uint64_t msgs = 0;
  int64_t bytes = 0;
  for (uint64_t k = 0;; ++k) {
    std::vector<CallSiteHit> hits;
    try {
      hits = callSitesAt(m, src, dst, k, gid);
    } catch (const Error&) {
      break;  // iteration out of range: the loop is exhausted
    }
    for (const CallSiteHit& h : hits) {
      msgs += h.msgs;
      bytes += h.bytes * static_cast<int64_t>(h.msgs);
      EXPECT_GE(h.gid, 0);
      EXPECT_TRUE(h.op == ir::MpiOp::Send || h.op == ir::MpiOp::Isend);
    }
  }
  EXPECT_EQ(msgs, cellMsgs);
  EXPECT_EQ(bytes, cellBytes);
}

TEST(QueryCallSites, RejectsBadArguments) {
  const Compressed c = mergedFor("JACOBI", 4);
  const core::MergedCtt& m = c.m;
  EXPECT_THROW(callSitesAt(m, 0, 1, 1u << 30), Error);   // iter out of range
  EXPECT_THROW(callSitesAt(m, 0, 1, 0, 999999), Error);  // gid out of range
  EXPECT_THROW(callSitesAt(m, 0, 1, 0, 0), Error);       // root is not a loop
}

TEST(QuerySpec, GrammarRoundtripsAndRejects) {
  EXPECT_EQ(QuerySpec::parse("summary").toString(), "summary");
  EXPECT_EQ(QuerySpec::parse("histogram").toString(), "hist");
  EXPECT_EQ(QuerySpec::parse("collectives").toString(), "colls");
  EXPECT_EQ(QuerySpec::parse("callsites src=1 dst=2 iter=7 loop=4").toString(),
            "callsites src=1 dst=2 iter=7 loop=4");
  EXPECT_THROW(QuerySpec::parse("bogus"), Error);
  EXPECT_THROW(QuerySpec::parse("matrix src=1"), Error);  // no args allowed
  EXPECT_THROW(QuerySpec::parse("callsites src=1 dst=2"), Error);  // no iter
  EXPECT_THROW(QuerySpec::parse("callsites src=x dst=2 iter=0"), Error);
  EXPECT_THROW(QuerySpec::parse("callsites src=-1 dst=2 iter=0"), Error);
  EXPECT_THROW(QuerySpec::parse("callsites src=1 dst=2 iter=0 woof=3"), Error);
}

TEST(QueryRun, EndToEndJsonIsStableAcrossSerializeRoundtrip) {
  const Compressed c = mergedFor("CG", 8);
  const core::MergedCtt& m = c.m;
  const auto bytes = m.serialize();
  cst::Tree tree;
  const core::MergedCtt back = core::MergedCtt::deserializeWithTree(bytes, tree);
  for (const char* q : {"summary", "hist", "matrix", "colls"}) {
    EXPECT_EQ(runQuery(m, q), runQuery(back, q)) << q;
  }
}

}  // namespace
}  // namespace cypress::query
