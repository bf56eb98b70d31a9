// Streaming-merge crash/fault suite.
//
// The contract under test (cypress/merge_stream.hpp): a memory-bounded
// merge that folds batches of ranks into one running total, whose every
// durable step survives kill -9 and injected disk faults, such that
// `resume` produces a final CYPC byte-identical to the uninterrupted
// run — no matter where the interruption landed, and under any budget
// or batch cap. Four layers:
//
//   CYSP/CYM1 file formats: truncation at every byte is detected
//     (spills) or salvaged to a resumable prefix (manifest).
//   In-process fault matrix: ENOSPC / EIO / fsync failures injected at
//     every write and sync ordinal of the whole merge; every torn state
//     must resume byte-identically. Degraded mode must instead finish
//     with the faulted batch's ranks annotated lost.
//   Out-of-process kill matrix: a real `cyptrace merge` SIGKILLed at
//     every checkpoint boundary via --crash-after-steps, resumed with
//     --resume, byte-compared.
//   Real disk pressure: a forked child under RLIMIT_FSIZE hits genuine
//     EFBIG (the isDiskFull class), and a P=4096 synthetic merge must
//     hold its plan (many small batches) under a tiny budget.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <set>
#include <utility>

#include "cypress/diff.hpp"
#include "cypress/merge_stream.hpp"
#include "cypress/spill.hpp"
#include "driver/pipeline.hpp"
#include "flate/flate.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

#ifndef CYPTRACE_BIN
#error "CYPTRACE_BIN must point at the cyptrace binary"
#endif

namespace cypress::core {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& name) {
  // ctest runs every gtest case as its own process, possibly in
  // parallel, and each process rebuilds the static fixture — the pid
  // suffix keeps their scratch trees from clobbering each other.
  const std::string dir =
      (fs::temp_directory_path() / (name + "." + std::to_string(getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<uint8_t> fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void writeBytes(const std::string& path, std::span<const uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// The shared fixture: one JACOBI run at P=16 exported as a rank-trace
/// directory, its uninterrupted streaming-merge bytes (the golden
/// artifact every resume must reproduce), and the mergeAll result it
/// must equal.
struct Fixture {
  driver::RankTraceDir ranks;
  std::vector<uint8_t> golden;          // uninterrupted streamingMerge CYPC
  std::shared_ptr<const cst::Tree> runCst;  // keeps viaMergeAll's tree alive
  std::optional<MergedCtt> viaMergeAll;     // the in-RAM reference merge

  static const Fixture& get() {
    static Fixture* f = [] {
      auto* fx = new Fixture;
      driver::Options opts;
      opts.procs = 16;
      opts.withRaw = false;
      opts.withScala = false;
      opts.withScala2 = false;
      auto run = driver::runWorkload("JACOBI", opts);
      const std::string dir = freshDir("cyp_smerge_ranks");
      driver::writeRankTraces(run, dir);
      fx->ranks = driver::openRankTraceDir(dir);
      fx->runCst = run.cst;
      fx->viaMergeAll = driver::mergeCypress(run);

      StreamingMergeOptions mo = baseOptions(freshDir("cyp_smerge_golden"));
      const auto res = streamingMerge(fx->ranks.numRanks, fx->source(),
                                      *fx->ranks.cst, mo);
      fx->golden = res.merged.serialize();
      return fx;
    }();
    return *f;
  }

  CttSource source() const {
    const driver::RankTraceDir* rd = &ranks;
    return [rd](int r) { return rd->load(r); };
  }

  /// batch cap 3 at P=16 → 6 batches, 7 checkpointed steps incl.
  /// FINAL: enough steps that every fault class has somewhere
  /// interesting to land.
  static StreamingMergeOptions baseOptions(const std::string& workDir) {
    StreamingMergeOptions mo;
    mo.maxBatchRanks = 3;
    mo.workDir = workDir;
    return mo;
  }
};

TEST(Spill, RoundtripAndIntact) {
  const std::string dir = freshDir("cyp_spill_rt");
  // Big enough for several 256 KiB chunks.
  std::vector<uint8_t> data(600 << 10);
  Rng rng(7);
  for (auto& b : data) b = static_cast<uint8_t>(rng.next());

  io::IoBackend& be = io::realIo();
  const std::string path = dir + "/x.cysp";
  writeSpill(be, path, data);
  EXPECT_EQ(readSpill(be, path), data);
  const auto intact = readIntactSpill(be, path, data.size(), flate::crc32(data));
  ASSERT_TRUE(intact);
  EXPECT_EQ(*intact, data);
  // Wrong expectations are "not intact", never an exception.
  EXPECT_FALSE(readIntactSpill(be, path, data.size() - 1, flate::crc32(data)));
  EXPECT_FALSE(readIntactSpill(be, path, data.size(), flate::crc32(data) ^ 1));
  EXPECT_FALSE(readIntactSpill(be, dir + "/missing.cysp", 0, 0));
}

TEST(Spill, TruncationAtEveryByteIsDetected) {
  // The CYJ1-style sweep: a spill cut at ANY byte must fail the strict
  // parser and the intact probe — there is no prefix worth salvaging in
  // a checkpoint artifact, only "complete" and "recompute".
  const std::string dir = freshDir("cyp_spill_sweep");
  std::vector<uint8_t> data(2048);
  Rng rng(11);
  for (auto& b : data) b = static_cast<uint8_t>(rng.next());

  io::IoBackend& be = io::realIo();
  writeSpill(be, dir + "/good.cysp", data);
  const auto good = fileBytes(dir + "/good.cysp");
  const uint64_t crc = flate::crc32(data);

  const std::string torn = dir + "/torn.cysp";
  for (size_t len = 0; len < good.size(); ++len) {
    writeBytes(torn, std::span<const uint8_t>(good.data(), len));
    EXPECT_THROW(readSpill(be, torn), Error) << "prefix " << len;
    EXPECT_FALSE(readIntactSpill(be, torn, data.size(), crc))
        << "prefix " << len;
  }
  // And flipping any single byte of a complete spill is also caught.
  Rng flips(13);
  for (int i = 0; i < 64; ++i) {
    auto bad = good;
    const size_t pos = flips.below(bad.size());
    bad[pos] ^= static_cast<uint8_t>(1 + flips.below(255));
    writeBytes(torn, bad);
    EXPECT_FALSE(readIntactSpill(be, torn, data.size(), crc))
        << "flip @" << pos;
  }
}

/// A BATCH, a degraded BATCH and the FINAL record of a 16-rank merge.
std::vector<uint8_t> sampleManifest(const std::string& dir) {
  const std::string path = dir + "/sample.cym";
  io::IoBackend& be = io::realIo();
  be.remove(path);
  {
    ManifestWriter w(be, path, 16);
    BatchRecord b;
    b.batchIndex = 0;
    b.firstRank = 0;
    b.rankCount = 3;
    b.file = "b0.cysp";
    b.fileBytes = 777;
    b.fileCrc = 0xdeadbeef;
    w.appendBatch(b);
    b.batchIndex = 1;
    b.firstRank = 3;
    b.file.clear();  // a degraded batch
    b.fileBytes = 0;
    b.fileCrc = 0;
    b.lostRanks.insert(3);
    b.lostRanks.insert(4);
    b.lostRanks.insert(5);
    w.appendBatch(b);
    FinalRecord f;
    f.outPath = dir + "/out.cyp";
    f.bytes = 999;
    f.crc = 7;
    w.appendFinal(f);
  }
  return fileBytes(path);
}

TEST(Manifest, TruncationAtEveryByteSalvagesAndResumes) {
  const std::string dir = freshDir("cyp_manifest_sweep");
  const auto good = sampleManifest(dir);
  io::IoBackend& be = io::realIo();

  const std::string path = dir + "/torn.cym";
  for (size_t len = 0; len <= good.size(); ++len) {
    writeBytes(path, std::span<const uint8_t>(good.data(), len));
    std::optional<ManifestRecovery> rec;
    ASSERT_NO_THROW(rec = recoverManifestFile(be, path)) << "prefix " << len;
    if (!rec) {
      // Torn header: the file must have been reset to empty so a fresh
      // writer can take over.
      EXPECT_EQ(be.fileSize(path), 0u) << "prefix " << len;
      continue;
    }
    EXPECT_EQ(rec->numRanks, 16u) << "prefix " << len;
    EXPECT_EQ(be.fileSize(path), len - rec->bytesDiscarded)
        << "prefix " << len << ": torn tail not truncated";
    // Whatever survived must accept further appends (unless the FINAL
    // record survived — the merge is complete, nothing appends after
    // it) and then strict-parse.
    if (!rec->final) {
      ManifestWriter w(be, path, 16, /*resume=*/true);
      BatchRecord b;
      b.batchIndex = rec->batches.size();
      b.firstRank = 3 * static_cast<int>(rec->batches.size());
      b.rankCount = 3;
      b.file = "b9.cysp";
      w.appendBatch(b);
    }
    ASSERT_NO_THROW(parseManifest(fileBytes(path))) << "prefix " << len;
  }
}

TEST(Manifest, RefusesForeignFileAndNonResumeOverwrite) {
  const std::string dir = freshDir("cyp_manifest_refuse");
  io::IoBackend& be = io::realIo();

  sampleManifest(dir);
  // Existing manifest without resume: refused, like the ledger.
  EXPECT_THROW(ManifestWriter(be, dir + "/sample.cym", 16), Error);

  // A file that is not a manifest at all.
  const auto junk = std::vector<uint8_t>{'n', 'o', 'p', 'e', '!', '!'};
  writeBytes(dir + "/junk.cym", junk);
  EXPECT_THROW(recoverManifestFile(be, dir + "/junk.cym"), Error);
}

TEST(Manifest, BatchesMustTileTheRanks) {
  // CRC-valid batches that overshoot the rank count or leave a gap. No
  // torn write produces them, so the strict parse and a resume both
  // refuse them, naming the batch, instead of skipping ranks that no
  // lostRanks entry accounts for.
  const Fixture& fx = Fixture::get();
  io::IoBackend& be = io::realIo();
  for (const auto& [first, count] : {std::pair{3, 14}, std::pair{4, 3}}) {
    const std::string wd = freshDir("cyp_manifest_tiling");
    {
      ManifestWriter w(be, wd + "/merge.cym", 16);
      BatchRecord b;
      b.rankCount = 3;
      b.file = "b0.cysp";
      w.appendBatch(b);
      b.batchIndex = 1;
      b.firstRank = first;
      b.rankCount = count;
      b.file = "b1.cysp";
      w.appendBatch(b);
    }
    EXPECT_THROW(parseManifest(fileBytes(wd + "/merge.cym")), Error);

    StreamingMergeOptions rmo = Fixture::baseOptions(wd);
    rmo.resume = true;
    try {
      streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, rmo);
      ADD_FAILURE() << "resume accepted batch 1 at " << first << " + " << count;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("batch 1 "), std::string::npos)
          << e.what();
    }
  }
}

TEST(Manifest, VersionOneIsRefusedNamingVersionTwo) {
  // Version 1 pinned the budget and the batch cap in its header and
  // checkpointed reduction steps; a resume refuses it outright.
  const Fixture& fx = Fixture::get();
  const std::string wd = freshDir("cyp_manifest_v1");
  ByteWriter v1;
  v1.str("CYM1");
  for (uint64_t field : {1u, 16u, 1u << 20, 3u}) v1.uv(field);
  writeBytes(wd + "/merge.cym", v1.bytes());
  StreamingMergeOptions rmo = Fixture::baseOptions(wd);
  rmo.resume = true;
  try {
    streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, rmo);
    ADD_FAILURE() << "resume accepted a version-1 manifest";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("expected version 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(StreamingMerge, MatchesMergeAllStructurally) {
  const Fixture& fx = Fixture::get();
  // Folding batches into a running total associates differently from
  // mergeAll's binary tree; the merge is a union of equivalence classes
  // over exact statistics, so the bytes agree, not only the structure.
  cst::Tree tree;
  const MergedCtt viaStream = MergedCtt::deserializeWithTree(fx.golden, tree);
  const TraceDiff d = diffTraces(viaStream, *fx.viaMergeAll);
  EXPECT_TRUE(d.identical()) << d.toString();
  EXPECT_EQ(viaStream.lostRanks(), fx.viaMergeAll->lostRanks());
  EXPECT_EQ(fx.viaMergeAll->serialize(), fx.golden);
}

TEST(StreamingMerge, EveryPlanWritesTheGoldenBytes) {
  const Fixture& fx = Fixture::get();
  // The golden plan twice, then other caps and budgets: where batches
  // are cut does not change the bytes.
  for (int i = 0; i < 2; ++i) {
    StreamingMergeOptions mo =
        Fixture::baseOptions(freshDir("cyp_smerge_det"));
    const auto res =
        streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, mo);
    EXPECT_EQ(res.merged.serialize(), fx.golden);
    EXPECT_EQ(res.batches, 6u);
    EXPECT_EQ(res.reductionRounds, 0u);
    EXPECT_EQ(res.stepsExecuted, 6u);  // no FINAL without an outPath
    EXPECT_TRUE(res.droppedRanks.empty());
  }
  for (const auto& [cap, budget] :
       {std::pair<uint64_t, uint64_t>{1, 0}, {5, 0}, {0, 16u << 10}, {0, 0}}) {
    StreamingMergeOptions mo =
        Fixture::baseOptions(freshDir("cyp_smerge_plans"));
    mo.maxBatchRanks = cap;
    mo.budgetBytes = budget;
    const auto res =
        streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, mo);
    EXPECT_EQ(res.merged.serialize(), fx.golden)
        << "cap " << cap << ", budget " << budget;
  }
}

TEST(StreamingMerge, WorkDirCleanedOnSuccessKeptOnRequest) {
  const Fixture& fx = Fixture::get();
  const std::string wd = freshDir("cyp_smerge_clean");
  StreamingMergeOptions mo = Fixture::baseOptions(wd);
  streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, mo);
  EXPECT_TRUE(fs::is_empty(wd)) << "spills/manifest must not outlive success";

  mo.keepWorkDir = true;
  streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, mo);
  // Only the batch spills and the manifest: nothing else is written.
  std::set<std::string> names;
  for (const auto& e : fs::directory_iterator(wd))
    names.insert(e.path().filename().string());
  EXPECT_EQ(names, (std::set<std::string>{"b0.cysp", "b1.cysp", "b2.cysp",
                                          "b3.cysp", "b4.cysp", "b5.cysp",
                                          "merge.cym"}));
}

/// Run the merge with one injected fault, then resume against the real
/// backend in the same workdir and require the golden bytes. Returns
/// false when the fault never fired (ordinal past the end of the run).
bool faultThenResume(const Fixture& fx, const std::string& spec,
                     const std::string& wd) {
  io::FaultyIoBackend faulty(io::realIo(), {io::parseIoFaultSpec(spec)});
  StreamingMergeOptions mo = Fixture::baseOptions(wd);
  mo.io = &faulty;
  mo.outPath = wd + ".out.cyp";
  bool threw = false;
  try {
    streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, mo);
  } catch (const io::IoError&) {
    threw = true;
  }
  if (!threw) {
    EXPECT_EQ(faulty.faultsFired(), 0u)
        << spec << ": a fired fault must not complete the merge";
    EXPECT_EQ(fileBytes(mo.outPath), fx.golden) << spec;
    return false;
  }

  StreamingMergeOptions rmo = Fixture::baseOptions(wd);
  rmo.resume = true;
  rmo.outPath = mo.outPath;
  const auto res =
      streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, rmo);
  EXPECT_EQ(res.merged.serialize(), fx.golden) << spec;
  EXPECT_EQ(fileBytes(rmo.outPath), fx.golden) << spec;
  return true;
}

TEST(StreamingMerge, EnospcAtEveryWriteOrdinalResumesByteIdentical) {
  const Fixture& fx = Fixture::get();
  int fired = 0;
  for (uint64_t n = 1; n < 400; ++n) {
    const std::string spec = "enospc@" + std::to_string(n);
    if (!faultThenResume(fx, spec, freshDir("cyp_smerge_enospc"))) break;
    ++fired;
  }
  // The sweep must actually cover the whole merge: the manifest header,
  // 6 spills (3 writes each), 6 BATCH segments, the final artifact and
  // its FINAL segment — 27 writes.
  EXPECT_GE(fired, 27) << "sweep ended before covering every write";
}

TEST(StreamingMerge, EioAtEveryWriteOrdinalResumesByteIdentical) {
  const Fixture& fx = Fixture::get();
  int fired = 0;
  for (uint64_t n = 1; n < 400; ++n) {
    if (!faultThenResume(fx, "eio@" + std::to_string(n),
                         freshDir("cyp_smerge_eio")))
      break;
    ++fired;
  }
  EXPECT_GE(fired, 27);
}

TEST(StreamingMerge, FsyncFailureAtEverySyncOrdinalResumesByteIdentical) {
  const Fixture& fx = Fixture::get();
  int fired = 0;
  for (uint64_t n = 1; n < 100; ++n) {
    if (!faultThenResume(fx, "fsync@" + std::to_string(n),
                         freshDir("cyp_smerge_fsync")))
      break;
    ++fired;
  }
  // One sync per spill (6), one per manifest segment (8 with the
  // header), one for the final artifact — 15 syncs.
  EXPECT_GE(fired, 15);
}

TEST(StreamingMerge, TornFinalRenameIsRepairedOnResume) {
  const Fixture& fx = Fixture::get();
  const std::string wd = freshDir("cyp_smerge_torn_final");
  io::FaultyIoBackend faulty(io::realIo(),
                             {io::parseIoFaultSpec("rename@1:out.cyp")});
  StreamingMergeOptions mo = Fixture::baseOptions(wd);
  mo.io = &faulty;
  mo.outPath = wd + ".out.cyp";
  // The lying rename: the merge believes it succeeded...
  streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, mo);
  EXPECT_EQ(faulty.faultsFired(), 1u);
  EXPECT_NE(fileBytes(mo.outPath), fx.golden) << "rename should have torn";

  // ...but the workdir was consumed on success. A fresh resume has no
  // manifest, so it simply redoes the merge — still byte-identical.
  StreamingMergeOptions rmo = Fixture::baseOptions(wd);
  rmo.resume = true;
  rmo.outPath = mo.outPath;
  streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, rmo);
  EXPECT_EQ(fileBytes(rmo.outPath), fx.golden);
}

TEST(StreamingMerge, TornFinalWithSurvivingManifestVerifiesAndRepairs) {
  const Fixture& fx = Fixture::get();
  const std::string wd = freshDir("cyp_smerge_torn_manifest");
  io::FaultyIoBackend faulty(io::realIo(),
                             {io::parseIoFaultSpec("rename@1:out.cyp")});
  StreamingMergeOptions mo = Fixture::baseOptions(wd);
  mo.io = &faulty;
  mo.keepWorkDir = true;  // keep the checkpoint alive past "success"
  mo.outPath = wd + ".out.cyp";
  streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, mo);
  EXPECT_NE(fileBytes(mo.outPath), fx.golden);

  // Resume replays the FINAL record, finds the artifact's CRC wrong,
  // and repairs it from the deterministic result without re-merging.
  StreamingMergeOptions rmo = Fixture::baseOptions(wd);
  rmo.resume = true;
  rmo.keepWorkDir = true;
  rmo.outPath = mo.outPath;
  const auto res =
      streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, rmo);
  EXPECT_EQ(res.stepsExecuted, 0u);
  EXPECT_EQ(fileBytes(rmo.outPath), fx.golden);
}

TEST(StreamingMerge, ResumeMayChangeThePlanButNotTheRanks) {
  const Fixture& fx = Fixture::get();
  // eio@9 fails the second BATCH record: one batch is checkpointed.
  auto interrupted = [&](const std::string& wd) {
    io::FaultyIoBackend faulty(io::realIo(), {io::parseIoFaultSpec("eio@9")});
    StreamingMergeOptions mo = Fixture::baseOptions(wd);
    mo.io = &faulty;
    EXPECT_THROW(
        streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, mo),
        io::IoError);
  };

  // A resume under a different cap or budget writes the golden bytes.
  for (const auto& [cap, budget] :
       {std::pair<uint64_t, uint64_t>{5, 256u << 20}, {0, 16u << 10}}) {
    const std::string wd = freshDir("cyp_smerge_plan");
    interrupted(wd);
    StreamingMergeOptions rmo = Fixture::baseOptions(wd);
    rmo.resume = true;
    rmo.maxBatchRanks = cap;
    rmo.budgetBytes = budget;
    rmo.outPath = wd + ".out.cyp";
    const auto res =
        streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, rmo);
    EXPECT_EQ(res.stepsResumed, 1u) << "cap " << cap;
    EXPECT_EQ(fileBytes(rmo.outPath), fx.golden) << "cap " << cap;
  }

  const std::string wd = freshDir("cyp_smerge_plan");
  interrupted(wd);
  // A different rank count is a different merge: refused.
  StreamingMergeOptions rmo = Fixture::baseOptions(wd);
  rmo.resume = true;
  EXPECT_THROW(streamingMerge(fx.ranks.numRanks - 1, fx.source(),
                              *fx.ranks.cst, rmo),
               Error);

  // And without --resume an interrupted workdir is refused outright.
  StreamingMergeOptions fresh = Fixture::baseOptions(wd);
  EXPECT_THROW(
      streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, fresh),
      Error);
}

TEST(StreamingMerge, DamagedRecordedSpillIsRecomputedOnResume) {
  const Fixture& fx = Fixture::get();
  const std::string wd = freshDir("cyp_smerge_damage");
  io::FaultyIoBackend faulty(io::realIo(), {io::parseIoFaultSpec("eio@12")});
  StreamingMergeOptions mo = Fixture::baseOptions(wd);
  mo.io = &faulty;
  EXPECT_THROW(
      streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, mo),
      io::IoError);

  // Tear a checkpointed spill behind the manifest's back.
  ASSERT_TRUE(fs::exists(wd + "/b0.cysp"));
  io::realIo().truncate(wd + "/b0.cysp", 10);

  StreamingMergeOptions rmo = Fixture::baseOptions(wd);
  rmo.resume = true;
  const auto res =
      streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, rmo);
  EXPECT_EQ(res.merged.serialize(), fx.golden);
}

TEST(StreamingMerge, DegradedBatchSpillDropsItsRanksAndAnnotates) {
  const Fixture& fx = Fixture::get();
  const std::string wd = freshDir("cyp_smerge_degrade_batch");
  io::FaultyIoBackend faulty(io::realIo(),
                             {io::parseIoFaultSpec("enospc@1:b2.cysp")});
  StreamingMergeOptions mo = Fixture::baseOptions(wd);
  mo.io = &faulty;
  mo.degrade = true;
  const auto res =
      streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, mo);
  EXPECT_EQ(faulty.faultsFired(), 1u);
  // Batch 2 covers ranks 6..8 under the cap-3 plan.
  RankSet expect;
  expect.insert(6);
  expect.insert(7);
  expect.insert(8);
  EXPECT_EQ(res.droppedRanks, expect);
  EXPECT_EQ(res.merged.lostRanks(), expect);
  // The partial trace is still a valid CYPC that roundtrips.
  const auto bytes = res.merged.serialize();
  cst::Tree tree;
  const MergedCtt back = MergedCtt::deserializeWithTree(bytes, tree);
  EXPECT_EQ(back.lostRanks(), expect);
}

TEST(StreamingMerge, DegradedManifestKeepsMergingUncheckpointed) {
  const Fixture& fx = Fixture::get();
  const std::string wd = freshDir("cyp_smerge_degrade_manifest");
  io::FaultyIoBackend faulty(io::realIo(),
                             {io::parseIoFaultSpec("enospc@1:merge.cym")});
  StreamingMergeOptions mo = Fixture::baseOptions(wd);
  mo.io = &faulty;
  mo.degrade = true;
  const auto res =
      streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, mo);
  EXPECT_EQ(faulty.faultsFired(), 1u);
  EXPECT_TRUE(res.droppedRanks.empty());
  EXPECT_EQ(res.merged.serialize(), fx.golden);
}

// ---------------------------------------------------------------------
// Out-of-process kill matrix: the real binary, a real SIGKILL.

int runMerge(const std::string& rankDir, const std::string& out,
             const std::string& wd, const std::vector<std::string>& extra) {
  const pid_t pid = fork();
  if (pid == 0) {
    std::vector<const char*> argv = {CYPTRACE_BIN, "merge", rankDir.c_str(),
                                     "--out",      out.c_str(),
                                     "--batch-ranks", "3",
                                     "--work-dir", wd.c_str()};
    for (const auto& a : extra) argv.push_back(a.c_str());
    argv.push_back(nullptr);
    // Quiet child: the matrix runs dozens of these.
    if (freopen("/dev/null", "w", stdout) == nullptr) _exit(126);
    execv(CYPTRACE_BIN, const_cast<char* const*>(argv.data()));
    _exit(127);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

TEST(StreamingMergeKillMatrix, SigkillAtEveryCheckpointResumesByteIdentical) {
  const Fixture& fx = Fixture::get();
  const std::string rankDir = fx.ranks.dir;
  const std::string scratch = freshDir("cyp_smerge_kill");

  // 6 BATCH + 1 FINAL checkpoints; at step 8 the merge runs to
  // completion and the matrix stops finding anything to kill. Every
  // other resume changes the budget, which must not change the bytes.
  bool sawCleanRun = false;
  for (int n = 1; n <= 8; ++n) {
    const std::string wd = scratch + "/wd" + std::to_string(n);
    const std::string out = scratch + "/out" + std::to_string(n) + ".cyp";
    const int st =
        runMerge(rankDir, out, wd, {"--crash-after-steps", std::to_string(n)});
    if (WIFEXITED(st) && WEXITSTATUS(st) == 0) {
      sawCleanRun = true;
      EXPECT_EQ(fileBytes(out), fx.golden) << "clean run at n=" << n;
      continue;
    }
    ASSERT_TRUE(WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL)
        << "n=" << n << ": expected SIGKILL, status " << st;
    std::vector<std::string> resume = {"--resume"};
    if (n % 2 == 0) resume.insert(resume.end(), {"--merge-budget", "16k"});
    const int rst = runMerge(rankDir, out, wd, resume);
    ASSERT_TRUE(WIFEXITED(rst) && WEXITSTATUS(rst) == 0) << "n=" << n;
    EXPECT_EQ(fileBytes(out), fx.golden) << "resume after kill at step " << n;
  }
  EXPECT_TRUE(sawCleanRun) << "matrix never outran the checkpoint count";
}

TEST(StreamingMergeKillMatrix, RepeatedCrashWalkEventuallyFinishes) {
  // Crash after every single live step, resuming each time: the merge
  // must make monotone progress and converge in ~#checkpoints runs.
  const Fixture& fx = Fixture::get();
  const std::string scratch = freshDir("cyp_smerge_walk");
  const std::string wd = scratch + "/wd";
  const std::string out = scratch + "/out.cyp";

  int runs = 0;
  for (; runs < 20; ++runs) {
    std::vector<std::string> extra = {"--crash-after-steps", "1"};
    if (runs > 0) extra.push_back("--resume");
    const int st = runMerge(fx.ranks.dir, out, wd, extra);
    if (WIFEXITED(st) && WEXITSTATUS(st) == 0) break;
    ASSERT_TRUE(WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL) << "run " << runs;
  }
  ASSERT_LT(runs, 20) << "crash walk did not converge";
  EXPECT_EQ(fileBytes(out), fx.golden);
}

// ---------------------------------------------------------------------
// Real disk pressure.

TEST(StreamingMergeDiskFull, RlimitFsizeHitsTheDiskFullClassAndResumes) {
  const Fixture& fx = Fixture::get();
  const std::string wd = freshDir("cyp_smerge_rlimit");
  const std::string out = wd + ".out.cyp";

  const pid_t pid = fork();
  if (pid == 0) {
    // A file-size cap small enough that the very first spill overflows
    // it. With SIGXFSZ ignored, write(2) past the limit returns EFBIG —
    // a genuine kernel-enforced disk-full condition, no injection.
    signal(SIGXFSZ, SIG_IGN);
    rlimit rl{256, 256};
    setrlimit(RLIMIT_FSIZE, &rl);
    StreamingMergeOptions mo = Fixture::baseOptions(wd);
    mo.outPath = out;
    try {
      streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, mo);
      _exit(1);  // must not succeed under a 256-byte cap
    } catch (const io::IoError& e) {
      _exit(io::isDiskFull(e.errnum()) ? 42 : 2);
    } catch (...) {
      _exit(3);
    }
  }
  int status = 0;
  waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status)) << "child crashed";
  ASSERT_EQ(WEXITSTATUS(status), 42)
      << "expected an IoError in the disk-full errno class";

  // The parent (no rlimit) resumes whatever survived, byte-identically.
  StreamingMergeOptions rmo = Fixture::baseOptions(wd);
  rmo.resume = true;
  rmo.outPath = out;
  const auto res =
      streamingMerge(fx.ranks.numRanks, fx.source(), *fx.ranks.cst, rmo);
  EXPECT_EQ(res.merged.serialize(), fx.golden);
  EXPECT_EQ(fileBytes(out), fx.golden);
}

TEST(StreamingMergeScale, FourThousandRanksUnderTinyBudget) {
  // P=4096 synthetic: the 16 real rank traces replicated 256×. The
  // merge must honor the batch plan (many small batches — never "all
  // ranks in RAM") and complete in a forked child whose peak RSS stays
  // far below what 4096 resident CTTs would need.
  const Fixture& fx = Fixture::get();
  const int bigP = 4096;
  const std::string dir = freshDir("cyp_smerge_4k");
  {
    io::IoBackend& be = io::realIo();
    ByteWriter meta;
    meta.str("CYRD");
    meta.uv(2);
    meta.uv(static_cast<uint64_t>(bigP));
    io::writeFileAtomic(be, dir + "/meta.cyrd", meta.bytes());
    const auto cstBytes = be.readAll(fx.ranks.dir + "/cst.cyst");
    io::writeFileAtomic(be, dir + "/cst.cyst", cstBytes);
    std::vector<std::vector<uint8_t>> src(16);
    for (int r = 0; r < 16; ++r) {
      char name[32];
      std::snprintf(name, sizeof name, "rank-%05d.cypp", r);
      src[r] = be.readAll(fx.ranks.dir + "/" + name);
    }
    for (int r = 0; r < bigP; ++r) {
      char name[32];
      std::snprintf(name, sizeof name, "rank-%05d.cypp", r);
      io::writeFileAtomic(be, dir + "/" + name, src[r % 16]);
    }
  }

  const std::string wd = freshDir("cyp_smerge_4k_wd");
  const std::string out = wd + ".out.cyp";
  const pid_t pid = fork();
  if (pid == 0) {
    const char* argv[] = {CYPTRACE_BIN,     "merge", dir.c_str(),
                          "--out",          out.c_str(),
                          "--merge-budget", "16m",
                          "--batch-ranks",  "64",
                          "--work-dir",     wd.c_str(),
                          nullptr};
    if (freopen("/dev/null", "w", stdout) == nullptr) _exit(126);
    execv(CYPTRACE_BIN, const_cast<char* const*>(argv));
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  wait4(pid, &status, 0, &ru);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "status " << status;
  // ru_maxrss is KiB on Linux. The bound is loose (binary + CST + libc
  // noise) but far below an all-in-RAM merge of 4096 CTTs, and fails
  // loudly if the batching plan regresses to "hold everything".
  EXPECT_LT(static_cast<uint64_t>(ru.ru_maxrss), 512u * 1024)
      << "peak RSS " << ru.ru_maxrss << " KiB";

  // The output must be a valid CYPC covering all 4096 ranks.
  cst::Tree tree;
  const MergedCtt big = MergedCtt::deserializeWithTree(fileBytes(out), tree);
  EXPECT_TRUE(big.lostRanks().empty());
}

}  // namespace
}  // namespace cypress::core
