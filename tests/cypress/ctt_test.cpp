// CYPRESS core tests: intra-process CTT compression, inter-process
// merging, serialization, and lossless sequence-preserving decompression
// — validated end-to-end against the raw traces of real simulated runs.
#include <gtest/gtest.h>

#include "cst/builder.hpp"
#include "cypress/ctt.hpp"
#include "cypress/decompress.hpp"
#include "cypress/merge.hpp"
#include "minic/compile.hpp"
#include "simmpi/engine.hpp"
#include "trace/observer.hpp"
#include "vm/runner.hpp"

namespace cypress::core {
namespace {

struct Pipeline {
  std::unique_ptr<ir::Module> module;
  cst::Tree cstTree;
  trace::RawTrace raw;
  std::vector<std::unique_ptr<CttRecorder>> recorders;
};

/// Compile + instrument + run with both raw tracing and CYPRESS CTT
/// recording attached.
Pipeline runPipeline(const std::string& src, int ranks,
                     TimeMode mode = TimeMode::MeanStddev,
                     bool meterHooks = false) {
  Pipeline p;
  p.module = minic::compileProgram(src);
  cst::StaticResult sr = cst::analyzeAndInstrument(*p.module);
  p.cstTree = std::move(sr.cst);

  simmpi::Engine::Config cfg;
  cfg.numRanks = ranks;
  simmpi::Engine engine(cfg);
  p.raw.ranks.resize(static_cast<size_t>(ranks));

  std::vector<std::unique_ptr<trace::RawRecorder>> raws;
  std::vector<std::unique_ptr<trace::TeeObserver>> tees;
  std::vector<trace::Observer*> obs;
  for (int r = 0; r < ranks; ++r) {
    p.raw.ranks[static_cast<size_t>(r)].rank = r;
    raws.push_back(std::make_unique<trace::RawRecorder>(
        p.raw.ranks[static_cast<size_t>(r)]));
    CttRecorder::Options opts(mode);
    opts.meterHooks = meterHooks;
    p.recorders.push_back(
        std::make_unique<CttRecorder>(p.cstTree, r, opts));
    auto tee = std::make_unique<trace::TeeObserver>();
    tee->add(raws.back().get());
    tee->add(p.recorders.back().get());
    tees.push_back(std::move(tee));
    obs.push_back(tees.back().get());
  }
  vm::run(*p.module, engine, obs, {.instructionLimitPerRank = 1ull << 27});
  return p;
}

/// Strip timing from an event list (content-only comparison).
std::vector<trace::Event> contentOnly(std::vector<trace::Event> ev) {
  for (auto& e : ev) {
    e.computeNs = 0;
    e.durationNs = 0;
  }
  return ev;
}

void expectLossless(const Pipeline& p, int ranks) {
  std::vector<const Ctt*> ctts;
  for (const auto& r : p.recorders) ctts.push_back(&r->ctt());
  MergedCtt merged = mergeAll(ctts);
  for (int r = 0; r < ranks; ++r) {
    auto got = contentOnly(decompressRank(merged, r));
    auto want = contentOnly(p.raw.ranks[static_cast<size_t>(r)].events);
    ASSERT_EQ(got.size(), want.size()) << "rank " << r;
    for (size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(got[i], want[i]) << "rank " << r << " event " << i << ": got "
                                 << got[i].toString() << " want "
                                 << want[i].toString();
  }
}

TEST(Ctt, LoopCompressesToSingleRecord) {
  auto p = runPipeline(R"(
    func main() {
      for (var i = 0; i < 100; i = i + 1) {
        mpi_allreduce(64);
      }
    })", 2);
  const Ctt& c = p.recorders[0]->ctt();
  // Exactly one loop vertex with one activation of count 100, and one
  // comm record with count 100.
  size_t loopSeen = 0, recSeen = 0;
  for (int g = 0; g < p.cstTree.numNodes(); ++g) {
    if (!c.loopCounts(g).empty()) {
      ++loopSeen;
      EXPECT_EQ(c.loopCounts(g).expand(), (std::vector<int64_t>{100}));
    }
    for (const auto& rec : c.records(g)) {
      ++recSeen;
      EXPECT_EQ(rec.count, 100u);
      EXPECT_EQ(rec.duration.count(), 100u);
    }
  }
  EXPECT_EQ(loopSeen, 1u);
  EXPECT_EQ(recSeen, 1u);
  expectLossless(p, 2);
}

TEST(Ctt, NestedLoopWithVaryingInnerCount) {
  // Paper Figure 10: inner iteration count depends on the outer index.
  auto p = runPipeline(R"(
    func main() {
      for (var i = 0; i < 6; i = i + 1) {
        mpi_bcast(0, 32);
        for (var j = 0; j < i; j = j + 1) {
          mpi_allreduce(8);
        }
      }
    })", 2);
  const Ctt& c = p.recorders[0]->ctt();
  bool innerSeen = false;
  for (int g = 0; g < p.cstTree.numNodes(); ++g) {
    const auto& counts = c.loopCounts(g);
    if (counts.empty()) continue;
    if (counts.size() == 6) {
      // The inner loop: <0,1,2,3,4,5> — one affine section.
      innerSeen = true;
      EXPECT_EQ(counts.sectionCount(), 1u);
      EXPECT_EQ(counts.expand(), (std::vector<int64_t>{0, 1, 2, 3, 4, 5}));
    }
  }
  EXPECT_TRUE(innerSeen);
  expectLossless(p, 2);
}

TEST(Ctt, AlternatingBranchCompressesToStride) {
  // Paper Figure 11: branch taken at iterations <0,8,2> / <1,9,2>.
  auto p = runPipeline(R"(
    func main() {
      for (var i = 0; i < 10; i = i + 1) {
        if (i % 2 == 0) {
          var r = mpi_isend((rank + 1) % size, 8, 0);
          mpi_wait(r);
        } else {
          var r = mpi_irecv(ANY_SOURCE, 8, 0);
          mpi_wait(r);
        }
      }
    })", 2);
  const Ctt& c = p.recorders[0]->ctt();
  std::vector<std::vector<int64_t>> takens;
  for (int g = 0; g < p.cstTree.numNodes(); ++g)
    if (!c.taken(g).empty()) {
      takens.push_back(c.taken(g).expand());
      EXPECT_EQ(c.taken(g).sectionCount(), 1u);  // single stride tuple
    }
  ASSERT_EQ(takens.size(), 2u);
  EXPECT_EQ(takens[0], (std::vector<int64_t>{0, 2, 4, 6, 8}));
  EXPECT_EQ(takens[1], (std::vector<int64_t>{1, 3, 5, 7, 9}));
  expectLossless(p, 2);
}

TEST(Ctt, JacobiLosslessAcrossRankRoles) {
  auto p = runPipeline(R"(
    func main() {
      for (var k = 0; k < 8; k = k + 1) {
        if (rank < size - 1) { mpi_send(rank + 1, 4096, 0); }
        if (rank > 0)        { mpi_recv(rank - 1, 4096, 0); }
        if (rank > 0)        { mpi_send(rank - 1, 4096, 0); }
        if (rank < size - 1) { mpi_recv(rank + 1, 4096, 0); }
      }
    })", 6);
  expectLossless(p, 6);
}

TEST(Ctt, RelativePeerEncodingMergesMiddleRanks) {
  auto p = runPipeline(R"(
    func main() {
      for (var k = 0; k < 4; k = k + 1) {
        if (rank < size - 1) { mpi_send(rank + 1, 256, 0); }
        if (rank > 0)        { mpi_recv(rank - 1, 256, 0); }
      }
    })", 8);
  std::vector<const Ctt*> ctts;
  for (const auto& r : p.recorders) ctts.push_back(&r->ctt());
  MergedCtt merged = mergeAll(ctts);
  // The send leaf: ranks 0..6 share one entry ("rank+1"); rank 7 absent.
  for (int g = 0; g < p.cstTree.numNodes(); ++g) {
    for (const auto& e : merged.leafEntries(g)) {
      if (!e.records.empty() && e.records[0].op == ir::MpiOp::Send) {
        EXPECT_EQ(e.ranks.size(), 7u);
        EXPECT_EQ(e.records[0].peer.kind, PeerRef::Kind::Relative);
        EXPECT_EQ(e.records[0].peer.value, 1);
      }
    }
  }
  expectLossless(p, 8);
}

TEST(Ctt, FunctionCallsAndMultipleInstances) {
  auto p = runPipeline(R"(
    func exchange(bytes) {
      if (rank % 2 == 0) { mpi_send((rank + 1) % size, bytes, 1); }
      else { mpi_recv((rank + size - 1) % size, bytes, 1); }
    }
    func main() {
      for (var i = 0; i < 5; i = i + 1) {
        exchange(64);
        exchange(1024);
      }
    })", 4);
  expectLossless(p, 4);
}

TEST(Ctt, NonBlockingWaitallLossless) {
  auto p = runPipeline(R"(
    func main() {
      for (var s = 0; s < 6; s = s + 1) {
        var a = mpi_isend((rank + 1) % size, 128, 0);
        var b = mpi_irecv((rank + size - 1) % size, 128, 0);
        mpi_waitall();
        mpi_reduce(0, 16);
      }
    })", 4);
  expectLossless(p, 4);
}

TEST(Ctt, WildcardSourcesPreservedExactly) {
  auto p = runPipeline(R"(
    func main() {
      if (rank != 0) { mpi_send(0, 8, 5); }
      else {
        for (var i = 1; i < size; i = i + 1) { mpi_recv(ANY_SOURCE, 8, 5); }
      }
    })", 5);
  expectLossless(p, 5);
}

TEST(Ctt, ZeroIterationLoopsLossless) {
  auto p = runPipeline(R"(
    func main() {
      for (var i = 0; i < rank; i = i + 1) {
        mpi_send(0, 8, 0);
      }
      if (rank == 0) {
        var total = (size - 1) * size / 2;
        for (var k = 0; k < total; k = k + 1) { mpi_recv(ANY_SOURCE, 8, 0); }
      }
      mpi_barrier();
    })", 4);
  expectLossless(p, 4);
}

TEST(Ctt, RecursionMultisetPreserved) {
  // Recursion is the paper's documented approximation: the event
  // multiset per rank must survive, order may be linearized.
  auto p = runPipeline(R"(
    func down(n) {
      if (n > 0) {
        mpi_bcast(0, 32);
        down(n - 1);
        mpi_reduce(0, 32);
      }
    }
    func main() { down(4); }
  )", 2);
  std::vector<const Ctt*> ctts;
  for (const auto& r : p.recorders) ctts.push_back(&r->ctt());
  MergedCtt merged = mergeAll(ctts);
  for (int r = 0; r < 2; ++r) {
    auto got = contentOnly(decompressRank(merged, r));
    auto want = contentOnly(p.raw.ranks[static_cast<size_t>(r)].events);
    ASSERT_EQ(got.size(), want.size());
    auto key = [](const trace::Event& e) {
      return std::make_tuple(static_cast<int>(e.op), e.peer, e.bytes, e.tag,
                             e.callSiteId);
    };
    std::multiset<std::tuple<int, int32_t, int64_t, int32_t, int32_t>> a, b;
    for (const auto& e : got) a.insert(key(e));
    for (const auto& e : want) b.insert(key(e));
    EXPECT_EQ(a, b);
  }
}

TEST(Ctt, MergedSizeNearConstantInRanks) {
  const char* src = R"(
    func main() {
      for (var k = 0; k < 20; k = k + 1) {
        if (rank < size - 1) { mpi_send(rank + 1, 512, 0); }
        if (rank > 0)        { mpi_recv(rank - 1, 512, 0); }
        mpi_allreduce(8);
      }
    })";
  size_t size8, size32;
  {
    auto p = runPipeline(src, 8);
    std::vector<const Ctt*> ctts;
    for (const auto& r : p.recorders) ctts.push_back(&r->ctt());
    size8 = mergeAll(ctts).serialize().size();
  }
  {
    auto p = runPipeline(src, 32);
    std::vector<const Ctt*> ctts;
    for (const auto& r : p.recorders) ctts.push_back(&r->ctt());
    size32 = mergeAll(ctts).serialize().size();
  }
  // SPMD: 4x the ranks should cost well under 2x the bytes.
  EXPECT_LT(size32, size8 * 2);
}

TEST(Ctt, SerializationRoundTrip) {
  auto p = runPipeline(R"(
    func main() {
      for (var k = 0; k < 7; k = k + 1) {
        if (rank % 2 == 0) { mpi_send((rank + 1) % size, 64, 0); }
        else { mpi_recv((rank + size - 1) % size, 64, 0); }
        mpi_barrier();
      }
    })", 4);
  std::vector<const Ctt*> ctts;
  for (const auto& r : p.recorders) ctts.push_back(&r->ctt());
  MergedCtt merged = mergeAll(ctts);
  auto bytes = merged.serialize();

  cst::Tree tree;
  MergedCtt back = MergedCtt::deserializeWithTree(bytes, tree);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(contentOnly(decompressRank(back, r)),
              contentOnly(decompressRank(merged, r)));
  }
}

TEST(Ctt, HistogramTimeModeRecords) {
  auto p = runPipeline(R"(
    func main() {
      for (var k = 0; k < 50; k = k + 1) {
        compute(10000);
        mpi_allreduce(8);
      }
    })", 2, TimeMode::Histogram);
  const Ctt& c = p.recorders[0]->ctt();
  bool seen = false;
  for (int g = 0; g < p.cstTree.numNodes(); ++g) {
    for (const auto& rec : c.records(g)) {
      seen = true;
      EXPECT_EQ(rec.durationHist.count(), rec.count);
      EXPECT_GT(rec.duration.mean(), 0u);
      EXPECT_GT(rec.compute.mean(), 0u);
    }
  }
  EXPECT_TRUE(seen);
}

TEST(Ctt, TimeStatsPooledAcrossRanksOnMerge) {
  auto p = runPipeline(R"(
    func main() {
      for (var k = 0; k < 10; k = k + 1) { mpi_allreduce(64); }
    })", 4);
  std::vector<const Ctt*> ctts;
  for (const auto& r : p.recorders) ctts.push_back(&r->ctt());
  MergedCtt merged = mergeAll(ctts);
  bool seen = false;
  for (int g = 0; g < p.cstTree.numNodes(); ++g) {
    for (const auto& e : merged.leafEntries(g)) {
      for (const auto& rec : e.records) {
        seen = true;
        // 4 ranks x 10 events pooled.
        EXPECT_EQ(rec.duration.count(), 40u);
      }
    }
  }
  EXPECT_TRUE(seen);
}

TEST(Ctt, RecorderCostMeterAccumulates) {
  auto p = runPipeline(R"(
    func main() {
      for (var k = 0; k < 200; k = k + 1) { mpi_allreduce(8); }
    })", 2, TimeMode::MeanStddev, /*meterHooks=*/true);
  EXPECT_GT(p.recorders[0]->cost().totalNs(), 0u);
  EXPECT_GT(p.recorders[0]->memoryBytes(), 0u);
  EXPECT_TRUE(p.recorders[0]->finalized());
}

TEST(Ctt, RecorderCostMeterStaysZeroWhenMeteringIsOff) {
  auto p = runPipeline(R"(
    func main() {
      for (var k = 0; k < 200; k = k + 1) { mpi_allreduce(8); }
    })", 2);
  EXPECT_EQ(p.recorders[0]->cost().totalNs(), 0u);
  EXPECT_TRUE(p.recorders[0]->finalized());
}

TEST(Ctt, CompressedItemsSmallForRegularProgram) {
  auto p = runPipeline(R"(
    func main() {
      for (var k = 0; k < 1000; k = k + 1) {
        if (rank < size - 1) { mpi_send(rank + 1, 512, 0); }
        if (rank > 0)        { mpi_recv(rank - 1, 512, 0); }
      }
    })", 4);
  // 1000 iterations collapse into O(1) compressed items per vertex.
  EXPECT_LT(p.recorders[1]->ctt().compressedItems(), 12u);
}

}  // namespace
}  // namespace cypress::core
