// Tests for the trace-validation subsystem: roundtrip byte stability on
// every workload, deterministic corruption fuzzing of every deserializer
// (the contract: arbitrary bytes either decode or raise cypress::Error —
// never another exception, never a huge allocation), truncation
// robustness, merge-order invariance, and the LZ77 matcher regression.
#include <gtest/gtest.h>

#include "cypress/merge.hpp"
#include "driver/pipeline.hpp"
#include "flate/flate.hpp"
#include "flate/lz77.hpp"
#include "scalatrace/inter.hpp"
#include "scalatrace/recorder.hpp"
#include "support/error.hpp"
#include "trace/journal.hpp"
#include "verify/fuzz.hpp"
#include "verify/roundtrip.hpp"
#include "workloads/workloads.hpp"

namespace cypress {
namespace {

driver::RunOutput runAllTools(const std::string& name, int procs) {
  driver::Options opts;
  opts.procs = procs;
  return driver::runWorkload(name, opts);
}

std::vector<uint8_t> journalBytes(const std::string& name, int procs) {
  driver::Options opts;
  opts.procs = procs;
  opts.withScala = false;
  opts.withScala2 = false;
  opts.withJournal = true;
  opts.journalFlushEvery = 8;
  return driver::runWorkload(name, opts).journal->bytes();
}

// ---------------------------------------------------------------------------
// Roundtrip verification across the full workload matrix.

class RoundtripWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(RoundtripWorkload, ByteStableAtEightAndSixteenRanks) {
  const std::string& name = GetParam();
  const workloads::Workload& w = workloads::get(name);
  bool ranAny = false;
  for (int procs : {8, 16}) {
    if (!w.supportsProcs(procs)) continue;
    ranAny = true;
    const auto run = runAllTools(name, procs);
    const verify::Report rep = driver::verifyRun(run);
    EXPECT_TRUE(rep.ok()) << name << " at " << procs << " ranks:\n"
                          << rep.toString();
  }
  if (!ranAny) {
    // DT runs only at its fixed process count; still cover it.
    ASSERT_TRUE(w.supportsProcs(12)) << name << " supports neither 8, 16 nor 12";
    const auto run = runAllTools(name, 12);
    const verify::Report rep = driver::verifyRun(run);
    EXPECT_TRUE(rep.ok()) << name << " at 12 ranks:\n" << rep.toString();
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, RoundtripWorkload,
                         ::testing::ValuesIn(workloads::allNames()));

TEST(Roundtrip, VerifyTraceFileDispatchesOnMagic) {
  const auto run = runAllTools("JACOBI", 8);
  const auto merged = driver::mergeCypress(run);

  EXPECT_TRUE(verify::verifyTraceFile(merged.serialize()).ok());
  EXPECT_TRUE(verify::verifyTraceFile(run.raw.serialize()).ok());
  EXPECT_TRUE(verify::verifyTraceFile(run.scala[0]->serialize()).ok());
  std::vector<const std::vector<scalatrace::Element>*> seqs;
  for (const auto& r : run.scala) seqs.push_back(&r->sequence());
  const auto mergedScala =
      scalatrace::mergeSequences(seqs, scalatrace::Flavor::V1);
  EXPECT_TRUE(verify::verifyTraceFile(mergedScala.serialize()).ok());
  EXPECT_TRUE(
      verify::verifyTraceFile(flate::compress(run.raw.serialize())).ok());
  EXPECT_TRUE(verify::verifyTraceFile(journalBytes("JACOBI", 8)).ok());

  const std::vector<uint8_t> junk = {9, 9, 9, 9, 9, 9};
  EXPECT_THROW(verify::verifyTraceFile(junk), Error);
}

// ---------------------------------------------------------------------------
// Corruption fuzzing: every decoder, >= 200 seeded mutations each.

constexpr int kMutations = 250;

void expectFuzzClean(std::span<const uint8_t> good,
                     const verify::Decoder& decode, uint64_t seed) {
  verify::FuzzOptions fo;
  fo.seed = seed;
  fo.mutations = kMutations;
  const verify::FuzzReport rep = verify::corruptionFuzz(good, decode, fo);
  EXPECT_EQ(rep.mutants, kMutations);
  EXPECT_TRUE(rep.ok()) << rep.toString();
  // A healthy corpus mostly breaks under mutation: the decoders must
  // actively reject, not silently accept, the bulk of the mutants.
  EXPECT_GT(rep.rejected, rep.mutants / 2) << rep.toString();
}

TEST(Fuzz, CypressMergedTrace) {
  const auto run = runAllTools("CG", 8);
  const auto bytes = driver::mergeCypress(run).serialize();
  expectFuzzClean(bytes,
                  [](std::span<const uint8_t> d) {
                    cst::Tree tree;
                    core::MergedCtt::deserializeWithTree(d, tree);
                  },
                  /*seed=*/1);
}

TEST(Fuzz, RawTrace) {
  const auto run = runAllTools("CG", 8);
  const auto bytes = run.raw.serialize();
  expectFuzzClean(bytes,
                  [](std::span<const uint8_t> d) { trace::RawTrace::deserialize(d); },
                  /*seed=*/2);
}

TEST(Fuzz, ScalaTracePerRank) {
  const auto run = runAllTools("CG", 8);
  const auto bytes = run.scala[0]->serialize();
  expectFuzzClean(bytes,
                  [](std::span<const uint8_t> d) {
                    scalatrace::Recorder::deserializeSequence(d);
                  },
                  /*seed=*/3);
}

TEST(Fuzz, ScalaTraceMergedBothFlavors) {
  const auto run = runAllTools("CG", 8);
  for (auto flavor : {scalatrace::Flavor::V1, scalatrace::Flavor::V2}) {
    std::vector<const std::vector<scalatrace::Element>*> seqs;
    const auto& recs =
        flavor == scalatrace::Flavor::V1 ? run.scala : run.scala2;
    for (const auto& r : recs) seqs.push_back(&r->sequence());
    const auto bytes = scalatrace::mergeSequences(seqs, flavor).serialize();
    expectFuzzClean(bytes,
                    [](std::span<const uint8_t> d) {
                      scalatrace::MergedSeq::deserialize(d);
                    },
                    /*seed=*/4);
  }
}

TEST(Fuzz, FlateContainer) {
  const auto run = runAllTools("CG", 8);
  const auto bytes = flate::compress(run.raw.serialize());
  expectFuzzClean(bytes,
                  [](std::span<const uint8_t> d) { flate::decompress(d); },
                  /*seed=*/5);
}

TEST(Fuzz, JournalStrictParser) {
  // The CYJ1 strict parser is a deserializer like any other: arbitrary
  // mutations must decode or raise cypress::Error, nothing else.
  const auto bytes = journalBytes("CG", 8);
  expectFuzzClean(bytes,
                  [](std::span<const uint8_t> d) { trace::parseJournal(d); },
                  /*seed=*/7);
}

TEST(Fuzz, JournalRecoveryPath) {
  // The lenient salvage reader must uphold the same exception contract
  // while accepting (by design) most torn/truncated mutants.
  const auto bytes = journalBytes("CG", 8);
  verify::FuzzOptions fo;
  fo.seed = 8;
  fo.mutations = kMutations;
  const verify::FuzzReport rep = verify::corruptionFuzz(
      bytes, [](std::span<const uint8_t> d) { trace::recoverJournal(d); }, fo);
  EXPECT_TRUE(rep.ok()) << rep.toString();
  // Salvage accepts damaged tails instead of rejecting them.
  EXPECT_GT(rep.accepted, rep.mutants / 2) << rep.toString();
}

TEST(Truncation, JournalSweepStrictRejectsEveryPrefixLenientAcceptsBody) {
  const auto bytes = journalBytes("JACOBI", 8);
  // Strict: a journal cut anywhere is unsealed or torn → always Error.
  const auto strict = verify::truncationSweep(
      bytes, [](std::span<const uint8_t> d) { trace::parseJournal(d); });
  EXPECT_TRUE(strict.ok()) << strict.toString();
  EXPECT_EQ(strict.rejected, strict.mutants) << strict.toString();
  // Lenient: every prefix past the tiny header must salvage cleanly.
  const auto lenient = verify::truncationSweep(
      bytes, [](std::span<const uint8_t> d) { trace::recoverJournal(d); });
  EXPECT_TRUE(lenient.ok()) << lenient.toString();
  EXPECT_GT(lenient.accepted, lenient.mutants - 16) << lenient.toString();
}

TEST(Fuzz, WholeFileDecoderHandlesArbitraryPrefixes) {
  // decodeTraceFile adds magic dispatch on top of the per-format
  // decoders; mutated magics must land in the Error path too.
  const auto run = runAllTools("JACOBI", 8);
  const auto bytes = driver::mergeCypress(run).serialize();
  expectFuzzClean(bytes, verify::decodeTraceFile, /*seed=*/6);
}

// ---------------------------------------------------------------------------
// Hand-crafted adversarial inputs (the bugs this change fixes).

TEST(Hardening, NeedRejectsOverflowingLength) {
  const std::vector<uint8_t> tiny = {1, 2, 3};
  ByteReader r(tiny);
  // Old code computed pos_ + n and wrapped; this must throw cleanly.
  EXPECT_THROW(r.raw(SIZE_MAX - 1), Error);
  EXPECT_THROW(r.raw(SIZE_MAX), Error);
}

TEST(Hardening, CheckedCountRejectsImplausibleCounts) {
  const std::vector<uint8_t> tiny = {1, 2, 3, 4};
  ByteReader r(tiny);
  EXPECT_EQ(r.checkedCount(2, 2), 2u);
  EXPECT_THROW(r.checkedCount(3, 2), Error);
  EXPECT_THROW(r.checkedCount(UINT64_MAX, 1), Error);
}

TEST(Hardening, RawTraceHugeCountPrefixDoesNotAllocate) {
  // "CYTR" + a varint claiming ~10^18 ranks. Pre-fix this resized a
  // vector of RankTrace by that count before reading a single payload
  // byte; now it must throw before allocating.
  ByteWriter w;
  w.str("CYTR");
  w.uv(1'000'000'000'000'000'000ull);
  EXPECT_THROW(trace::RawTrace::deserialize(w.take()), Error);
}

TEST(Hardening, CypressHugeLeafCountDoesNotAllocate) {
  const auto run = runAllTools("JACOBI", 8);
  auto bytes = driver::mergeCypress(run).serialize();
  // Re-parse the header up to the node count, then give the root vertex
  // no loop or branch entries and an implausible leaf-entry count.
  ByteReader r(bytes);
  ASSERT_EQ(r.str(), "CYPC");
  ASSERT_EQ(r.uv(), 2u);  // format version
  r.raw(r.uv());          // embedded CST
  RankSet::deserialize(r);  // lost ranks
  r.uv();                 // node count
  ByteWriter w;
  w.raw(std::span<const uint8_t>(bytes.data(), r.pos()));
  w.uv(0);  // root: no loop-count entries
  w.uv(0);  // root: no branch entries
  w.uv(1'000'000'000'000ull);  // root: implausible leaf-entry count
  try {
    cst::Tree tree;
    core::MergedCtt::deserializeWithTree(w.take(), tree);
    FAIL() << "a huge leaf-entry count was accepted";
  } catch (const Error& e) {
    // Rejected by the count guard, not by running out of input.
    EXPECT_NE(std::string(e.what()).find("implies more than"), std::string::npos)
        << e.what();
  }
}

TEST(Hardening, ScalaTraceRsdNestingBomb) {
  ByteWriter w;
  w.str("STR1");
  w.uv(scalatrace::kFormatVersion);
  w.uv(1);
  for (int i = 0; i < 400; ++i) {
    w.u8(1);  // isRsd
    w.uv(0);  // closedVisits: no sections
    w.uv(1);  // one member
  }
  EXPECT_THROW(scalatrace::Recorder::deserializeSequence(w.take()), Error);
}

TEST(Hardening, CstParenBombAndIntegerOverflow) {
  std::string bomb = "CST1 ";
  for (int i = 0; i < 5000; ++i) bomb += "(0 0 0 -1 8 0 0 ||";
  EXPECT_THROW(cst::Tree::fromText(bomb), Error);

  EXPECT_THROW(cst::Tree::fromText("CST1 (99999999999999999999 0 0 -1 8 0 0 ||)"),
               Error);
  EXPECT_THROW(cst::Tree::fromText("CST1 (7 0 0 -1 8 0 0 ||)"), Error);  // kind
  EXPECT_THROW(cst::Tree::fromText("CST1 (0 0 0 -1 99 0 0 ||)"), Error);  // op
}

TEST(Hardening, FlateStoredBlockSizeMismatch) {
  ByteWriter w;
  w.raw(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>("CYF1"), 4));
  w.uv(1u << 30);   // claimed original size: 1 GiB
  w.u32fixed(0);    // bogus CRC
  w.u8(0);          // stored block
  w.u8('x');        // ... of one actual byte
  EXPECT_THROW(flate::decompress(w.take()), Error);
}

// ---------------------------------------------------------------------------
// Truncation: every strict prefix of a CYPRESS trace must be rejected.

TEST(Truncation, EveryPrefixOfMergedTraceThrows) {
  const auto run = runAllTools("JACOBI", 8);
  const auto bytes = driver::mergeCypress(run).serialize();
  ASSERT_GT(bytes.size(), 0u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(
        {
          cst::Tree tree;
          core::MergedCtt::deserializeWithTree(
              std::span<const uint8_t>(bytes.data(), len), tree);
        },
        Error)
        << "prefix of " << len << "/" << bytes.size() << " bytes was accepted";
  }
}

// ---------------------------------------------------------------------------
// Merge determinism: the merged tree must not depend on thread count.

TEST(MergeDeterminism, SingleAndMultiThreadedBytesIdentical) {
  for (const char* name : {"CG", "LU"}) {
    const auto run = runAllTools(name, 8);
    std::vector<const core::Ctt*> ctts;
    for (const auto& r : run.cypress) ctts.push_back(&r->ctt());
    const auto one = core::mergeAll(ctts, nullptr, /*threads=*/1).serialize();
    const auto four = core::mergeAll(ctts, nullptr, /*threads=*/4).serialize();
    EXPECT_EQ(one, four) << name
                         << ": thread count changed the merged trace bytes";
  }
}

// ---------------------------------------------------------------------------
// LZ77 matcher regression (self-hit fix).

TEST(Lz77, FindsMatchesWithChainDepthOne) {
  // With the old self-hit bug, a chain budget of 1 was consumed by the
  // position's own hash-chain entry and repetitive data produced zero
  // matches. A period-3 buffer must compress with back-references even
  // at maxChain=1.
  std::vector<uint8_t> data;
  for (int i = 0; i < 300; ++i) data.push_back(static_cast<uint8_t>("abc"[i % 3]));
  const auto tokens = flate::tokenize(data, /*maxChain=*/1);
  bool hasMatch = false;
  for (const auto& t : tokens) hasMatch = hasMatch || t.length > 0;
  EXPECT_TRUE(hasMatch);
  EXPECT_LT(tokens.size(), data.size() / 4);
  EXPECT_EQ(flate::detokenize(tokens), data);
}

TEST(Lz77, CompressionRatioOnFig15Corpus) {
  // The fig15 corpus = serialized raw workload traces (what the Gzip
  // baseline compresses). Guard against matcher regressions with a
  // generous floor well below what the fixed matcher achieves.
  for (const char* name : {"CG", "JACOBI", "MG"}) {
    const auto run = runAllTools(name, 8);
    const auto raw = run.raw.serialize();
    const size_t packed = flate::compress(raw).size();
    EXPECT_LT(packed * 2, raw.size())
        << name << ": raw " << raw.size() << "B compressed to only " << packed
        << "B";
  }
}

}  // namespace
}  // namespace cypress
