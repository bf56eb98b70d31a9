#include "driver/pipeline.hpp"

#include "flate/flate.hpp"
#include "flate/stream.hpp"
#include "minic/compile.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "trace/observer.hpp"
#include "workloads/workloads.hpp"

namespace cypress::driver {

namespace {

template <typename Recorders>
double sumCostSeconds(const Recorders& recs) {
  double total = 0.0;
  for (const auto& r : recs) total += r->cost().totalSeconds();
  return total;
}

template <typename Recorders>
size_t avgMemory(const Recorders& recs) {
  if (recs.empty()) return 0;
  size_t total = 0;
  for (const auto& r : recs) total += r->memoryBytes();
  return total / recs.size();
}

}  // namespace

double RunOutput::cypressIntraSeconds() const { return sumCostSeconds(cypress); }
double RunOutput::scalaIntraSeconds() const { return sumCostSeconds(scala); }
double RunOutput::scala2IntraSeconds() const { return sumCostSeconds(scala2); }

size_t RunOutput::cypressMemoryPerRank() const { return avgMemory(cypress); }
size_t RunOutput::scalaMemoryPerRank() const { return avgMemory(scala); }
size_t RunOutput::scala2MemoryPerRank() const { return avgMemory(scala2); }

RankSet RunOutput::lostRanks() const {
  RankSet lost;
  for (int r : runStats.deadRanks) lost.insert(r);
  for (int r : runStats.stalledRanks) lost.insert(r);
  return lost;
}

std::shared_ptr<const CompiledProgram> compileForTracing(
    const std::string& source) {
  auto out = std::make_shared<CompiledProgram>();
  std::unique_ptr<ir::Module> module = minic::compileProgram(source);
  cst::StaticResult sr = cst::analyzeAndInstrument(*module);
  out->module = std::move(module);
  out->cst = std::make_shared<const cst::Tree>(std::move(sr.cst));
  out->stats = sr.stats;
  return out;
}

RunOutput runSource(const std::string& name, const std::string& source,
                    const Options& opts) {
  RunOutput out;
  out.workload = name;
  out.procs = opts.procs;

  // Static phase: a precompiled program (the cyptraced CST cache) is
  // shared as-is — it is immutable during runs; otherwise compile fresh.
  const std::shared_ptr<const CompiledProgram> prog =
      opts.precompiled ? opts.precompiled : compileForTracing(source);
  out.module = prog->module;
  out.cst = prog->cst;
  out.compileStats = prog->stats;

  // Traced run with all requested tools observing the same events.
  simmpi::Engine::Config cfg = opts.engine;
  cfg.numRanks = opts.procs;
  simmpi::Engine engine(cfg);
  if (opts.withRaw) out.raw.ranks.resize(static_cast<size_t>(opts.procs));
  if (opts.withJournal)
    out.journal =
        std::make_unique<trace::JournalBuilder>(opts.procs, opts.journalSink);

  // Rank-private observers (raw, CYPRESS, ScalaTrace) get every hook on
  // the lane that owns the rank, through one TeeObserver when there are
  // several. The journal recorder flushes into the shared builder, so it
  // is the engine's commit-thread observer instead (see vm/vm.hpp).
  std::vector<std::unique_ptr<trace::RawRecorder>> raws;
  std::vector<std::unique_ptr<trace::TeeObserver>> tees;
  std::vector<trace::Observer*> obs;
  std::vector<trace::Observer*> rankObs;  // one rank's private observers
  core::CttRecorder::Options cypressOpts(core::TimeMode::MeanStddev);
  scalatrace::Recorder::Options scalaOpts(scalatrace::Flavor::V1);
  scalatrace::Recorder::Options scala2Opts(scalatrace::Flavor::V2);
  cypressOpts.meterHooks = scalaOpts.meterHooks = scala2Opts.meterHooks =
      opts.meterHooks;
  for (int r = 0; r < opts.procs; ++r) {
    rankObs.clear();
    if (opts.withRaw) {
      out.raw.ranks[static_cast<size_t>(r)].rank = r;
      raws.push_back(std::make_unique<trace::RawRecorder>(
          out.raw.ranks[static_cast<size_t>(r)]));
      rankObs.push_back(raws.back().get());
    }
    if (opts.withJournal) {
      out.journalRecorders.push_back(std::make_unique<trace::JournalRecorder>(
          *out.journal, r, opts.journalFlushEvery));
      engine.setObserver(r, out.journalRecorders.back().get());
    }
    if (opts.withCypress) {
      out.cypress.push_back(
          std::make_unique<core::CttRecorder>(*out.cst, r, cypressOpts));
      rankObs.push_back(out.cypress.back().get());
    }
    if (opts.withScala) {
      out.scala.push_back(std::make_unique<scalatrace::Recorder>(r, scalaOpts));
      rankObs.push_back(out.scala.back().get());
    }
    if (opts.withScala2) {
      out.scala2.push_back(
          std::make_unique<scalatrace::Recorder>(r, scala2Opts));
      rankObs.push_back(out.scala2.back().get());
    }
    if (rankObs.size() <= 1) {
      obs.push_back(rankObs.empty() ? nullptr : rankObs.front());
      continue;
    }
    auto tee = std::make_unique<trace::TeeObserver>();
    for (trace::Observer* o : rankObs) tee->add(o);
    tees.push_back(std::move(tee));
    obs.push_back(tees.back().get());
  }

  vm::RunOptions runOpts;
  runOpts.instructionLimitPerRank = 1ull << 34;
  runOpts.onStall = opts.onStall;
  runOpts.threads = opts.threads;
  runOpts.cancel = opts.cancel;
  out.runStats = vm::run(*out.module, engine, obs, runOpts);

  // Seal the journal: every rank has now either finalized (FINALIZE
  // segment already appended) or is recorded as lost. Stalled ranks are
  // hung, not crashed — their tracer is still alive, so flush their
  // buffered tails first; a *dead* rank's unflushed tail stays lost,
  // which is what a real kill costs. A run that dies before this point
  // leaves an unsealed journal — exactly the partial stream `cyptrace
  // recover` salvages.
  if (out.journal) {
    for (int r : out.runStats.stalledRanks)
      out.journalRecorders[static_cast<size_t>(r)]->flush();
    out.journal->seal(out.lostRanks());
  }
  return out;
}

RunOutput runWorkload(const std::string& name, const Options& opts) {
  const workloads::Workload& w = workloads::get(name);
  CYP_CHECK(w.supportsProcs(opts.procs),
            name << " does not support " << opts.procs << " processes");
  return runSource(name, w.source(opts.procs, opts.scale), opts);
}

core::MergedCtt mergeCypress(const RunOutput& run, CostMeter* cost,
                             int threads) {
  CYP_CHECK(!run.cypress.empty(), "mergeCypress: run has no CYPRESS recorders");
  std::vector<const core::Ctt*> ctts;
  std::vector<int> ranks;
  RankSet lost;
  ctts.reserve(run.cypress.size());
  for (const auto& r : run.cypress) {
    if (r->finalized()) {
      ctts.push_back(&r->ctt());
      ranks.push_back(r->rank());
    } else {
      // Killed or stalled mid-run: its CTT is an unclosed prefix, so it
      // is excluded from the merge and annotated as lost instead.
      lost.insert(r->rank());
    }
  }
  if (ctts.empty()) {
    // Every rank died: degrade to an empty trace over the static CST
    // with the whole job marked lost.
    core::MergedCtt m(*run.cst);
    m.markLost(lost);
    return m;
  }
  core::MergedCtt m = core::mergeAll(std::move(ctts), cost, threads, &ranks);
  m.markLost(lost);
  return m;
}

verify::Report verifyRun(const RunOutput& run, int threads) {
  verify::Artifacts a;
  std::optional<core::MergedCtt> merged;
  if (!run.cypress.empty()) {
    merged.emplace(mergeCypress(run, nullptr, threads));
    a.merged = &*merged;
  }
  if (!run.raw.ranks.empty()) a.raw = &run.raw;
  for (const auto& r : run.scala) a.scalaV1.push_back(&r->sequence());
  for (const auto& r : run.scala2) a.scalaV2.push_back(&r->sequence());
  return verify::verifyRoundtrip(a);
}

size_t writeTrace(const core::MergedCtt& merged, const std::string& path,
                  io::IoBackend* io) {
  io::AtomicFileWriter writer(io ? *io : io::realIo(), path);
  ByteWriter w(writer);
  merged.serializeTo(w);
  w.flush();
  writer.commit();
  return w.size();
}

SizeReport computeSizes(const RunOutput& run, int threads) {
  SizeReport rep;
  // The four per-tool branches touch disjoint SizeReport fields and
  // disjoint recorder state, so they fan out as independent pool tasks;
  // the CYPRESS branch parallelizes further (merge reduction + flate
  // shards) with the same budget.
  // All four size pairs come from one streaming pass each: serialize
  // into the shard compressor over a discarding sink, and read both
  // the raw and the compressed byte counts off the totals — neither
  // the serialized stream nor the compressed container is ever held.
  const auto streamedSizes = [threads](const auto& producer) {
    NullSink null;
    flate::StreamingCompressor sc(null, flate::Level::Default, threads);
    ByteWriter w(sc);
    producer.serializeTo(w);
    w.flush();
    return sc.finish();
  };
  std::vector<std::function<void()>> branches;
  if (!run.raw.ranks.empty()) {
    branches.push_back([&] {
      const auto tot = streamedSizes(run.raw);
      rep.rawBytes = tot.rawBytes;
      rep.gzipBytes = tot.compressedBytes;
    });
  }
  if (!run.scala.empty()) {
    branches.push_back([&] {
      std::vector<const std::vector<scalatrace::Element>*> seqs;
      for (const auto& r : run.scala) seqs.push_back(&r->sequence());
      CostMeter cost;
      auto merged = scalatrace::mergeSequences(seqs, scalatrace::Flavor::V1, &cost);
      rep.scalaBytes = merged.serializedBytes();
      rep.scalaInterSeconds = cost.totalSeconds();
    });
  }
  if (!run.scala2.empty()) {
    branches.push_back([&] {
      std::vector<const std::vector<scalatrace::Element>*> seqs;
      for (const auto& r : run.scala2) seqs.push_back(&r->sequence());
      CostMeter cost;
      auto merged = scalatrace::mergeSequences(seqs, scalatrace::Flavor::V2, &cost);
      const auto tot = streamedSizes(merged);
      rep.scala2Bytes = tot.rawBytes;
      rep.scala2GzipBytes = tot.compressedBytes;
      rep.scala2InterSeconds = cost.totalSeconds();
    });
  }
  if (!run.cypress.empty()) {
    branches.push_back([&] {
      CostMeter cost;
      auto merged = mergeCypress(run, &cost, threads);
      const auto tot = streamedSizes(merged);
      rep.cypressBytes = tot.rawBytes;
      rep.cypressGzipBytes = tot.compressedBytes;
      rep.cypressInterSeconds = cost.totalSeconds();
    });
  }
  parallelFor(branches.size(), threads, [&](size_t i) { branches[i](); });
  return rep;
}

namespace {

std::string rankFileName(int rank) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "rank-%05d.cypp", rank);
  return buf;
}

/// Version 2: CYPP records carry exact integer time statistics.
constexpr uint64_t kRankDirVersion = 2;

}  // namespace

RankSet writeRankTraces(const RunOutput& run, const std::string& dir,
                        io::IoBackend* io, int threads) {
  CYP_CHECK(!run.cypress.empty(),
            "writeRankTraces: the run has no CYPRESS recorders (trace it "
            "with Options::withCypress)");
  io::IoBackend& be = io ? *io : io::realIo();
  const size_t numRanks = run.cypress.size();
  be.createDirectories(dir);

  ByteWriter meta;
  meta.str("CYRD");
  meta.uv(kRankDirVersion);
  meta.uv(numRanks);
  io::writeFileAtomic(be, dir + "/meta.cyrd", meta.bytes());
  io::writeFileAtomic(be, dir + "/cst.cyst",
                      flate::compressString(run.cst->toText()));

  RankSet lost;
  for (size_t r = 0; r < numRanks; ++r) {
    if (!run.cypress[r]->finalized()) {  // lost rank: no file
      lost.insert(static_cast<int>(r));
      continue;
    }
    // Serialized bytes are compressed as the shard compressor cuts
    // them, so the full CYPP never exists in RAM; the file is
    // byte-identical to flate::compress(ctt.serialize()).
    io::AtomicFileWriter out(be, dir + "/" + rankFileName(static_cast<int>(r)));
    flate::StreamingCompressor sc(out, flate::Level::Default, threads);
    ByteWriter w(sc);
    run.cypress[r]->ctt().serializeTo(w);
    w.flush();
    sc.finish();
    out.commit();
  }
  return lost;
}

std::optional<core::Ctt> RankTraceDir::load(int rank) const {
  io::IoBackend& be = io ? *io : io::realIo();
  const std::string path = dir + "/" + rankFileName(rank);
  if (!be.exists(path)) return std::nullopt;
  return core::Ctt::deserialize(flate::decompress(be.readAll(path)), *cst);
}

RankTraceDir openRankTraceDir(const std::string& dir, io::IoBackend* io) {
  io::IoBackend& be = io ? *io : io::realIo();
  RankTraceDir out;
  out.dir = dir;
  out.io = io;

  const std::vector<uint8_t> metaBytes = be.readAll(dir + "/meta.cyrd");
  ByteReader meta(metaBytes);
  CYP_CHECK(meta.str() == "CYRD", dir << ": not a rank-trace directory");
  meta.expectVersion(kRankDirVersion, dir + "/meta.cyrd");
  const uint64_t numRanks = meta.uv();
  CYP_CHECK(meta.atEnd(), dir << ": trailing bytes in meta.cyrd");
  CYP_CHECK(numRanks >= 1 && numRanks <= (1u << 22),
            dir << ": implausible rank count " << numRanks);
  out.numRanks = static_cast<int>(numRanks);

  out.cst = std::make_shared<cst::Tree>(cst::Tree::fromText(
      flate::decompressToString(be.readAll(dir + "/cst.cyst"))));
  return out;
}

}  // namespace cypress::driver
