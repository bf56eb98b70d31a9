// Baseline (ScalaTrace / ScalaTrace-2) tests: greedy RSD compression,
// PRSD nesting, lossless V1 round trips, elastic V2 value aggregation,
// inter-process alignment merge, and the cost characteristics the paper
// builds its comparison on.
#include <gtest/gtest.h>

#include "minic/compile.hpp"
#include "scalatrace/inter.hpp"
#include "scalatrace/recorder.hpp"
#include "simmpi/engine.hpp"
#include "trace/observer.hpp"
#include "vm/runner.hpp"

namespace cypress::scalatrace {
namespace {

struct Run {
  trace::RawTrace raw;
  std::vector<std::unique_ptr<Recorder>> recorders;
};

Run runWith(const std::string& src, int ranks, Flavor flavor,
            bool meterHooks = false) {
  Run out;
  auto m = minic::compileProgram(src);
  simmpi::Engine::Config cfg;
  cfg.numRanks = ranks;
  simmpi::Engine engine(cfg);
  out.raw.ranks.resize(static_cast<size_t>(ranks));
  std::vector<std::unique_ptr<trace::RawRecorder>> raws;
  std::vector<std::unique_ptr<trace::TeeObserver>> tees;
  std::vector<trace::Observer*> obs;
  for (int r = 0; r < ranks; ++r) {
    out.raw.ranks[static_cast<size_t>(r)].rank = r;
    raws.push_back(std::make_unique<trace::RawRecorder>(
        out.raw.ranks[static_cast<size_t>(r)]));
    Recorder::Options opts(flavor);
    opts.meterHooks = meterHooks;
    out.recorders.push_back(std::make_unique<Recorder>(r, opts));
    auto tee = std::make_unique<trace::TeeObserver>();
    tee->add(raws.back().get());
    tee->add(out.recorders.back().get());
    tees.push_back(std::move(tee));
    obs.push_back(tees.back().get());
  }
  vm::run(*m, engine, obs, {.instructionLimitPerRank = 1ull << 27});
  return out;
}

std::vector<trace::Event> contentOnly(std::vector<trace::Event> ev) {
  for (auto& e : ev) {
    e.computeNs = 0;
    e.durationNs = 0;
  }
  return ev;
}

void expectIntraLossless(const Run& run) {
  for (size_t r = 0; r < run.recorders.size(); ++r) {
    auto got = contentOnly(
        expandElements(run.recorders[r]->sequence(), static_cast<int>(r)));
    auto want = contentOnly(run.raw.ranks[r].events);
    ASSERT_EQ(got.size(), want.size()) << "rank " << r;
    for (size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(got[i], want[i]) << "rank " << r << " event " << i << "\n got "
                                 << got[i].toString() << "\nwant "
                                 << want[i].toString();
  }
}

TEST(ScalaTrace, SimpleLoopFoldsToOneRsd) {
  auto run = runWith(R"(
    func main() {
      for (var i = 0; i < 100; i = i + 1) { mpi_allreduce(64); }
    })", 2, Flavor::V1);
  const auto& seq = run.recorders[0]->sequence();
  ASSERT_EQ(seq.size(), 1u);
  EXPECT_TRUE(seq[0].isRsd);
  EXPECT_EQ(seq[0].eventCount(), 100u);
  expectIntraLossless(run);
}

TEST(ScalaTrace, MultiEventLoopBodyFolds) {
  auto run = runWith(R"(
    func main() {
      for (var i = 0; i < 50; i = i + 1) {
        var a = mpi_isend((rank + 1) % size, 128, 0);
        var b = mpi_irecv((rank + size - 1) % size, 128, 0);
        mpi_waitall();
        mpi_reduce(0, 16);
      }
    })", 2, Flavor::V1);
  const auto& seq = run.recorders[1]->sequence();
  // The whole body folds into a handful of elements.
  EXPECT_LE(seq.size(), 2u);
  expectIntraLossless(run);
}

TEST(ScalaTrace, NestedConstantLoopsFormPrsd) {
  auto run = runWith(R"(
    func main() {
      for (var i = 0; i < 10; i = i + 1) {
        mpi_bcast(0, 32);
        for (var j = 0; j < 4; j = j + 1) { mpi_allreduce(8); }
      }
    })", 2, Flavor::V1);
  const auto& seq = run.recorders[0]->sequence();
  // Compressed to O(1) elements with a nested RSD inside.
  EXPECT_LE(seq.size(), 3u);
  bool nested = false;
  for (const auto& e : seq)
    if (e.isRsd)
      for (const auto& m : e.members)
        if (m.isRsd) nested = true;
  EXPECT_TRUE(nested);
  expectIntraLossless(run);
}

TEST(ScalaTrace, VaryingInnerLoopStillLossless) {
  // The paper's Figure 10 shape — hard for bottom-up folding, but
  // whatever structure emerges must stay lossless.
  auto run = runWith(R"(
    func main() {
      for (var i = 0; i < 8; i = i + 1) {
        mpi_bcast(0, 32);
        for (var j = 0; j < i; j = j + 1) { mpi_allreduce(8); }
      }
    })", 2, Flavor::V1);
  expectIntraLossless(run);
}

TEST(ScalaTrace, VariedMessageSizesBreakV1Folding) {
  // Message size changes per iteration: V1 cannot fold, V2 can.
  const char* src = R"(
    func main() {
      for (var i = 1; i <= 60; i = i + 1) {
        mpi_bcast(0, i * 1024);
      }
    })";
  auto v1 = runWith(src, 1, Flavor::V1);
  auto v2 = runWith(src, 1, Flavor::V2);
  EXPECT_GT(v1.recorders[0]->sequence().size(), 30u);  // no folding
  EXPECT_LE(v2.recorders[0]->sequence().size(), 2u);   // elastic folding
  expectIntraLossless(v1);
  expectIntraLossless(v2);  // per-rank V2 is still exact
}

TEST(ScalaTrace, V2AggregatesValuesAsStrides) {
  auto run = runWith(R"(
    func main() {
      for (var i = 0; i < 40; i = i + 1) { mpi_bcast(0, 1000 + i * 8); }
    })", 1, Flavor::V2);
  const auto& seq = run.recorders[0]->sequence();
  ASSERT_EQ(seq.size(), 1u);
  ASSERT_TRUE(seq[0].isRsd);
  const Element& ev = seq[0].members[0];
  EXPECT_EQ(ev.occurrences, 40u);
  // The affine size pattern compresses into one stride section.
  EXPECT_EQ(ev.bytesVals.sectionCount(), 1u);
}

TEST(ScalaTrace, JacobiLossless) {
  auto run = runWith(R"(
    func main() {
      for (var k = 0; k < 12; k = k + 1) {
        if (rank < size - 1) { mpi_send(rank + 1, 2048, 0); }
        if (rank > 0)        { mpi_recv(rank - 1, 2048, 0); }
        if (rank > 0)        { mpi_send(rank - 1, 2048, 0); }
        if (rank < size - 1) { mpi_recv(rank + 1, 2048, 0); }
      }
    })", 5, Flavor::V1);
  for (const auto& rec : run.recorders)
    EXPECT_LE(rec->sequence().size(), 4u) << "rank " << rec->rank();
  expectIntraLossless(run);
}

TEST(ScalaTrace, WildcardTracesStayLossless) {
  auto run = runWith(R"(
    func main() {
      if (rank != 0) { mpi_send(0, 8, 5); }
      else {
        for (var i = 1; i < size; i = i + 1) { mpi_recv(ANY_SOURCE, 8, 5); }
      }
    })", 5, Flavor::V1);
  expectIntraLossless(run);
}

TEST(ScalaTrace, SerializeDeserializeElements) {
  auto run = runWith(R"(
    func main() {
      for (var i = 0; i < 20; i = i + 1) {
        mpi_bcast(0, 64);
        mpi_reduce(0, 32);
      }
    })", 1, Flavor::V1);
  auto bytes = run.recorders[0]->serialize();
  ByteReader r(bytes);
  EXPECT_EQ(r.str(), "STR1");
  EXPECT_EQ(r.uv(), scalatrace::kFormatVersion);
  const uint64_t n = r.uv();
  std::vector<Element> back;
  for (uint64_t i = 0; i < n; ++i) back.push_back(Element::deserialize(r));
  EXPECT_TRUE(r.atEnd());
  EXPECT_EQ(contentOnly(expandElements(back, 0)),
            contentOnly(run.raw.ranks[0].events));
}

TEST(ScalaTraceInter, SpmdRanksMergeToOneEntryPerElement) {
  auto run = runWith(R"(
    func main() {
      for (var k = 0; k < 10; k = k + 1) { mpi_allreduce(256); }
    })", 8, Flavor::V1);
  std::vector<const std::vector<Element>*> seqs;
  for (const auto& r : run.recorders) seqs.push_back(&r->sequence());
  MergedSeq m = mergeSequences(seqs, Flavor::V1);
  ASSERT_EQ(m.elems.size(), 1u);
  EXPECT_EQ(m.elems[0].ranks.size(), 8u);
}

TEST(ScalaTraceInter, TracesWithoutTheVersionAreRejectedNamingIt) {
  // STR1 / STM1 files written before the integer time statistics have
  // no version after the magic (a 5-byte length-prefixed string).
  auto run = runWith(R"(
    func main() {
      for (var k = 0; k < 10; k = k + 1) { mpi_allreduce(256); }
    })", 2, Flavor::V1);
  std::vector<const std::vector<Element>*> seqs;
  for (const auto& r : run.recorders) seqs.push_back(&r->sequence());
  const auto expectVersionError = [](std::vector<uint8_t> bytes, auto decode) {
    ASSERT_EQ(bytes[5], kFormatVersion);
    bytes.erase(bytes.begin() + 5);
    try {
      decode(bytes);
      FAIL() << "an unversioned trace was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("expected version 2"), std::string::npos)
          << e.what();
    }
  };
  expectVersionError(run.recorders[0]->serialize(),
                     [](const auto& b) { Recorder::deserializeSequence(b); });
  expectVersionError(mergeSequences(seqs, Flavor::V1).serialize(),
                     [](const auto& b) { MergedSeq::deserialize(b); });
}

TEST(ScalaTraceInter, V1MergeLosslessPerRank) {
  auto run = runWith(R"(
    func main() {
      for (var k = 0; k < 9; k = k + 1) {
        if (rank < size - 1) { mpi_send(rank + 1, 512, 0); }
        if (rank > 0)        { mpi_recv(rank - 1, 512, 0); }
        mpi_barrier();
      }
    })", 6, Flavor::V1);
  std::vector<const std::vector<Element>*> seqs;
  for (const auto& r : run.recorders) seqs.push_back(&r->sequence());
  MergedSeq m = mergeSequences(seqs, Flavor::V1);
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(contentOnly(decompressRank(m, r)),
              contentOnly(run.raw.ranks[static_cast<size_t>(r)].events))
        << "rank " << r;
  }
}

TEST(ScalaTraceInter, V2MergeKeepsCountsButRefusesExactDecompression) {
  auto run = runWith(R"(
    func main() {
      for (var k = 0; k < 7; k = k + 1) {
        mpi_send((rank + 1) % size, (rank + 1) * 64, k);
        mpi_recv((rank + size - 1) % size, ((rank + size - 1) % size + 1) * 64, k);
      }
    })", 4, Flavor::V2);
  std::vector<const std::vector<Element>*> seqs;
  for (const auto& r : run.recorders) seqs.push_back(&r->sequence());
  MergedSeq m = mergeSequences(seqs, Flavor::V2);
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(eventCountForRank(m, r),
              run.raw.ranks[static_cast<size_t>(r)].events.size());
  EXPECT_THROW(decompressRank(m, 0), Error);
}

TEST(ScalaTraceInter, MergedSizeSublinearForSpmd) {
  const char* src = R"(
    func main() {
      for (var k = 0; k < 15; k = k + 1) {
        if (rank < size - 1) { mpi_send(rank + 1, 256, 0); }
        if (rank > 0)        { mpi_recv(rank - 1, 256, 0); }
      }
    })";
  size_t s8, s32;
  {
    auto run = runWith(src, 8, Flavor::V1);
    std::vector<const std::vector<Element>*> seqs;
    for (const auto& r : run.recorders) seqs.push_back(&r->sequence());
    s8 = mergeSequences(seqs, Flavor::V1).serialize().size();
  }
  {
    auto run = runWith(src, 32, Flavor::V1);
    std::vector<const std::vector<Element>*> seqs;
    for (const auto& r : run.recorders) seqs.push_back(&r->sequence());
    s32 = mergeSequences(seqs, Flavor::V1).serialize().size();
  }
  EXPECT_LT(s32, s8 * 2);
}

TEST(ScalaTraceInter, CostMeterGrowsWithRanks) {
  const char* src = R"(
    func main() {
      for (var k = 0; k < 30; k = k + 1) {
        mpi_send((rank + 1) % size, 64 + rank, 0);
        mpi_recv((rank + size - 1) % size, 64 + (rank + size - 1) % size, 0);
        mpi_reduce(0, 32);
      }
    })";
  auto run = runWith(src, 24, Flavor::V1);
  std::vector<const std::vector<Element>*> seqs;
  for (const auto& r : run.recorders) seqs.push_back(&r->sequence());
  CostMeter cost;
  mergeSequences(seqs, Flavor::V1, &cost);
  EXPECT_GT(cost.totalNs(), 0u);
}

TEST(ScalaTrace, RecorderChargesIntraCost) {
  auto run = runWith(R"(
    func main() {
      for (var k = 0; k < 300; k = k + 1) { mpi_allreduce(8); }
    })", 1, Flavor::V1, /*meterHooks=*/true);
  EXPECT_GT(run.recorders[0]->cost().totalNs(), 0u);
  EXPECT_GT(run.recorders[0]->memoryBytes(), 0u);
}

TEST(ScalaTrace, RecorderChargesNothingWhenMeteringIsOff) {
  auto run = runWith(R"(
    func main() {
      for (var k = 0; k < 300; k = k + 1) { mpi_allreduce(8); }
    })", 1, Flavor::V1);
  EXPECT_EQ(run.recorders[0]->cost().totalNs(), 0u);
  EXPECT_TRUE(run.recorders[0]->finalized());
}

}  // namespace
}  // namespace cypress::scalatrace
