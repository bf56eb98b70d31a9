// CYJ1 crash-consistent journal tests: builder/parser roundtrip, seal
// semantics, strict-vs-lenient reader behaviour, and the core recovery
// guarantee — a journal truncated at ANY byte recovers to a verified
// prefix of the uninterrupted run's trace.
#include <gtest/gtest.h>

#include "driver/pipeline.hpp"
#include "simmpi/fault.hpp"
#include "support/error.hpp"
#include "trace/journal.hpp"

namespace cypress {
namespace {

trace::Event ev(int site, int64_t bytes) {
  trace::Event e;
  e.op = ir::MpiOp::Send;
  e.peer = 1;
  e.bytes = bytes;
  e.tag = 3;
  e.callSiteId = site;
  e.computeNs = 10;
  e.durationNs = 20;
  return e;
}

std::vector<uint8_t> journalOf(const std::string& workload, int procs,
                               driver::RunOutput* runOut = nullptr) {
  driver::Options opts;
  opts.procs = procs;
  opts.withScala = false;
  opts.withScala2 = false;
  opts.withJournal = true;
  opts.journalFlushEvery = 4;  // many small segments → many torn points
  auto run = driver::runWorkload(workload, opts);
  auto bytes = run.journal->bytes();
  if (runOut) *runOut = std::move(run);
  return bytes;
}

TEST(Journal, BuilderParserRoundtrip) {
  trace::JournalBuilder b(2);
  const std::vector<trace::Event> r0 = {ev(1, 64), ev(2, 128), ev(3, 256)};
  const std::vector<trace::Event> r1 = {ev(4, 32)};
  b.appendEvents(0, std::span<const trace::Event>(r0.data(), 2));
  b.appendEvents(1, r1);
  b.appendEvents(0, std::span<const trace::Event>(r0.data() + 2, 1));
  b.appendFinalize(0);
  b.appendFinalize(1);
  b.seal(RankSet{});
  EXPECT_TRUE(b.sealed());
  EXPECT_EQ(b.totalEvents(), 4u);

  const auto rec = trace::parseJournal(b.bytes());
  EXPECT_TRUE(rec.sealed);
  EXPECT_EQ(rec.bytesDiscarded, 0u);
  EXPECT_TRUE(rec.lostRanks.empty());
  EXPECT_EQ(rec.finalizedRanks, (std::vector<int>{0, 1}));
  EXPECT_TRUE(rec.unfinalizedRanks().empty());
  ASSERT_EQ(rec.trace.ranks.size(), 2u);
  EXPECT_EQ(rec.trace.ranks[0].events, r0);
  EXPECT_EQ(rec.trace.ranks[1].events, r1);
}

TEST(Journal, BuilderWithASinkKeepsNoBytes) {
  // A sink owns the stream: the builder hands it every chunk and keeps
  // no copy, so a streamed journal costs no RAM however long it grows.
  // The streamed bytes are exactly the bytes a sink-less builder holds.
  std::vector<uint8_t> streamed;
  trace::JournalBuilder sunk(2, [&](std::span<const uint8_t> chunk) {
    streamed.insert(streamed.end(), chunk.begin(), chunk.end());
  });
  trace::JournalBuilder kept(2);
  const std::vector<trace::Event> r0 = {ev(1, 64), ev(2, 128)};
  for (trace::JournalBuilder* b : {&sunk, &kept}) {
    b->appendEvents(0, r0);
    b->appendFinalize(0);
    b->seal(RankSet{});
  }
  EXPECT_TRUE(sunk.bytes().empty());
  EXPECT_EQ(streamed, kept.bytes());
  EXPECT_TRUE(trace::parseJournal(streamed).sealed);
}

TEST(Journal, SealIsTerminal) {
  trace::JournalBuilder b(1);
  const std::vector<trace::Event> events = {ev(1, 8)};
  b.appendEvents(0, events);
  b.seal(RankSet{});
  EXPECT_THROW(b.appendEvents(0, events), Error);
  EXPECT_THROW(b.appendFinalize(0), Error);
  EXPECT_THROW(b.seal(RankSet{}), Error);
}

TEST(Journal, UnsealedJournalIsStrictErrorButRecoverable) {
  trace::JournalBuilder b(1);
  const std::vector<trace::Event> events = {ev(1, 8), ev(2, 16)};
  b.appendEvents(0, events);
  // No finalize, no seal: a tracer killed mid-run.
  EXPECT_THROW(trace::parseJournal(b.bytes()), Error);
  const auto rec = trace::recoverJournal(b.bytes());
  EXPECT_FALSE(rec.sealed);
  EXPECT_EQ(rec.trace.ranks[0].events, events);
  EXPECT_EQ(rec.unfinalizedRanks(), (std::vector<int>{0}));
}

TEST(Journal, BadHeaderThrowsEvenOnRecovery) {
  EXPECT_THROW(trace::recoverJournal({}), Error);
  const std::vector<uint8_t> junk = {9, 9, 9, 9, 9, 9, 9, 9};
  EXPECT_THROW(trace::recoverJournal(junk), Error);
}

TEST(Journal, MatchesRawTraceOnCleanRun) {
  // The journal is a second, crash-consistent encoding of the same
  // observer stream: on a clean run it must agree with the raw trace
  // event for event.
  driver::RunOutput run;
  const auto bytes = journalOf("JACOBI", 8, &run);
  const auto rec = trace::parseJournal(bytes);
  EXPECT_TRUE(rec.sealed);
  EXPECT_TRUE(rec.lostRanks.empty());
  ASSERT_EQ(rec.trace.ranks.size(), run.raw.ranks.size());
  for (size_t r = 0; r < run.raw.ranks.size(); ++r)
    EXPECT_EQ(rec.trace.ranks[r].events, run.raw.ranks[r].events)
        << "rank " << r;
}

TEST(Journal, TruncationAtEveryByteRecoversAVerifiedPrefix) {
  // The headline guarantee: kill the writer at ANY byte and recovery
  // yields per-rank event sequences that are exact prefixes of the
  // uninterrupted run's — never garbage, never an exception other than
  // the bad-header Error on sub-header prefixes.
  const auto bytes = journalOf("CG", 8);
  const auto full = trace::recoverJournal(bytes);
  ASSERT_TRUE(full.sealed);
  size_t headerErrors = 0;
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::span<const uint8_t> prefix(bytes.data(), len);
    trace::JournalRecovery rec;
    try {
      rec = trace::recoverJournal(prefix);
    } catch (const Error&) {
      ++headerErrors;
      ASSERT_LT(len, 16u) << "header error at implausible offset " << len;
      continue;
    }
    ASSERT_FALSE(rec.sealed) << "prefix of " << len << " claims to be sealed";
    ASSERT_EQ(rec.trace.ranks.size(), full.trace.ranks.size());
    for (size_t r = 0; r < full.trace.ranks.size(); ++r) {
      const auto& got = rec.trace.ranks[r].events;
      const auto& want = full.trace.ranks[r].events;
      ASSERT_LE(got.size(), want.size()) << "len " << len << " rank " << r;
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
          << "len " << len << ": rank " << r
          << " recovered events are not a prefix of the full trace";
    }
    ASSERT_LE(rec.bytesDiscarded, len);
  }
  EXPECT_GT(headerErrors, 0u);  // the sub-header region exists
  // And the untruncated journal recovers losslessly.
  EXPECT_EQ(trace::recoverJournal(bytes).trace.serialize(),
            full.trace.serialize());
}

TEST(Journal, SingleByteCorruptionNeverYieldsGarbage) {
  // Flip every byte in turn: recovery must still produce a (possibly
  // shorter) prefix, or reject the header — never crash, never invent
  // events past the damage point.
  trace::JournalBuilder b(2);
  std::vector<trace::Event> events;
  for (int i = 0; i < 12; ++i) events.push_back(ev(i, 8 * (i + 1)));
  b.appendEvents(0, std::span<const trace::Event>(events.data(), 6));
  b.appendEvents(1, events);
  b.appendEvents(0, std::span<const trace::Event>(events.data() + 6, 6));
  b.appendFinalize(0);
  b.appendFinalize(1);
  b.seal(RankSet{});
  const auto good = b.bytes();
  const auto full = trace::recoverJournal(good);

  for (size_t pos = 0; pos < good.size(); ++pos) {
    auto bad = good;
    bad[pos] ^= 0x41;
    trace::JournalRecovery rec;
    try {
      rec = trace::recoverJournal(bad);
    } catch (const Error&) {
      continue;  // header damage: structured rejection is fine
    }
    for (size_t r = 0; r < rec.trace.ranks.size() && r < 2; ++r) {
      const auto& got = rec.trace.ranks[r].events;
      const auto& want = full.trace.ranks[r].events;
      EXPECT_TRUE(got.size() <= want.size() &&
                  std::equal(got.begin(), got.end(), want.begin()))
          << "flip at " << pos << " invented events on rank " << r;
    }
  }
}

TEST(Journal, CrashedRunSealsWithLostRanksAndSurvivorsRecover) {
  driver::Options opts;
  opts.procs = 8;
  opts.withScala = false;
  opts.withScala2 = false;
  opts.withJournal = true;
  opts.journalFlushEvery = 4;
  opts.onStall = vm::OnStall::Salvage;
  opts.engine.faults.faults.push_back(simmpi::parseFaultSpec("kill:2@6"));
  const auto run = driver::runWorkload("JACOBI", opts);
  ASSERT_FALSE(run.runStats.clean());

  const auto rec = trace::recoverJournal(run.journal->bytes());
  EXPECT_TRUE(rec.sealed);
  EXPECT_TRUE(rec.lostRanks.contains(2));
  EXPECT_EQ(rec.lostRanks, run.lostRanks());
  // Every survivor's journaled trace matches its raw trace exactly; the
  // dead rank keeps the prefix it flushed before dying.
  for (size_t r = 0; r < run.raw.ranks.size(); ++r) {
    const auto& got = rec.trace.ranks[r].events;
    const auto& want = run.raw.ranks[r].events;
    if (rec.lostRanks.contains(static_cast<int32_t>(r))) {
      EXPECT_TRUE(got.size() <= want.size() &&
                  std::equal(got.begin(), got.end(), want.begin()))
          << "rank " << r;
    } else {
      EXPECT_EQ(got, want) << "rank " << r;
    }
  }
}

}  // namespace
}  // namespace cypress
