// cyptrace — command-line front end for the CYPRESS tracing pipeline.
//
//   cyptrace run  <workload|file.mc> --procs N [--scale S] [--out F.cyp]
//                 [--fault SPEC]... [--journal F.cyj] [--salvage]
//       Trace a built-in workload (BT, CG, ..., LESLIE3D) or a MiniC
//       source file with CYPRESS and write the merged compressed trace.
//       --fault injects deterministic faults (kill:R@N, abort:R@N,
//       drop:R@N, delay:R@N:NS); --journal also writes a
//       crash-consistent CYJ1 event journal; --salvage turns deadlocks
//       into partial traces instead of errors. Every artifact write
//       (trace, journal, rank dir) streams through an atomic writer;
//       --io-fault injects deterministic disk faults into those writes
//       (same SPECs as merge), and any disk fault exits with code 4
//       leaving nothing torn under a final name.
//   cyptrace recover <F.cyj> [--out F.cytr] [--io-fault SPEC]...
//       Salvage a (possibly torn) CYJ1 journal: replay intact segments,
//       report lost/unfinalized ranks, optionally write the recovered
//       raw trace (atomically; --io-fault as for run).
//   cyptrace merge <rankdir> [--out F.cyp] [--merge-budget BYTES]
//                  [--batch-ranks N] [--work-dir D] [--resume] [--degrade]
//                  [--io-fault SPEC]... [--crash-after-steps N] [--keep-work]
//       Memory-bounded streaming merge of a rank-trace directory (as
//       written by `run --emit-ranks`) into one merged CYPC. Batches of
//       ranks fold in order into one running total; each batch is
//       spilled to --work-dir as its own CYPC (b<i>.cysp, written
//       atomically) and checkpointed with its size and CRC in a CYM1
//       manifest, so after a kill -9 or a disk
//       fault `merge --resume` (under any budget or batch cap)
//       continues from the last durable step and produces a
//       byte-identical trace.
//       --io-fault injects deterministic disk faults
//       (enospc@N | eio@N | short@N | fsync@N | rename@N, each with an
//       optional :pathSubstr filter); --degrade turns unrecoverable
//       disk faults into lostRanks annotations instead of errors.
//   cyptrace info <F.cyp>
//       Show the embedded CST and per-tool statistics of a trace file.
//   cyptrace dump <F.cyp> --rank R [--limit N] [--otf]
//       Decompress one rank's event sequence (or every surviving rank
//       as OTF-style text with --otf).
//   cyptrace replay <F.cyp> [--net ib|eth]
//       Predict execution time by SIM-MPI replay under a LogGP model.
//       Replay consumes the compressed trace directly through
//       CompressedCursor — the expanded event vector is never
//       materialized.
//   cyptrace query <F.cyp> <SPEC> [--threads T]
//       Answer analyses in the compressed domain (no decompression):
//       summary | hist | matrix | colls | callsites src=A dst=B iter=K
//       [loop=GID]. Prints one canonical JSON object; cost is
//       O(compressed size), independent of the event count.
//   cyptrace compare <workload> --procs N [--scale S]
//       Run all tools side by side and print sizes/overheads.
//   cyptrace stats <F.cyp>
//       Print trace statistics + a comm-volume heat map, computed in the
//       compressed domain (no event is expanded; memory O(compressed
//       size + P)). A salvaged trace also gets a `lost ranks:` line and
//       statistics over the surviving ranks.
//   cyptrace diff <A.cyp> <B.cyp>
//       Structural diff of two compressed traces of the same program.
//   cyptrace verify <workload|file.mc|trace file> [--procs N] [--scale S]
//                   [--fuzz N] [--seed S]
//       Roundtrip-verify traces. For a workload/source, run every tool
//       and check serialize → deserialize → re-serialize byte stability
//       plus decompression against the raw trace. For a trace file,
//       check byte stability and (with --fuzz) corruption-fuzz the
//       deserializer.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cli.hpp"
#include "cypress/decompress.hpp"
#include "cypress/diff.hpp"
#include "cypress/merge_stream.hpp"
#include "driver/pipeline.hpp"
#include "flate/flate.hpp"
#include "query/engine.hpp"
#include "query/query.hpp"
#include "support/io.hpp"
#include "replay/simulator.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
#include "trace/otf_text.hpp"
#include "verify/fuzz.hpp"
#include "workloads/workloads.hpp"

using namespace cypress;

namespace {

struct Args {
  std::string command;
  std::string target;
  std::string target2;
  int procs = 16;
  int scale = 1;
  int threads = 1;
  int rank = 0;
  int limit = 20;
  bool otf = false;
  std::string out;
  std::string net = "ib";
  int fuzz = 0;
  uint64_t seed = 0xC4B8E55;
  std::vector<std::string> faultSpecs;
  std::string journal;
  bool salvage = false;
  std::string emitRanks;
  uint64_t mergeBudget = 256ull << 20;
  uint64_t batchRanks = 0;
  std::string workDir;
  bool resume = false;
  bool degrade = false;
  bool keepWork = false;
  std::vector<std::string> ioFaults;
  uint64_t crashAfterSteps = 0;
  std::string querySpec;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  cyptrace run <workload|file.mc> --procs N [--scale S] [--threads T]\n"
               "               [--out F.cyp] [--fault SPEC]... [--journal F.cyj] [--salvage]\n"
               "               [--emit-ranks DIR] [--io-fault SPEC]...\n"
               "               (SPEC: kill:R@N | abort:R@N | drop:R@N | delay:R@N:NS)\n"
               "  cyptrace recover <F.cyj> [--out F.cytr] [--io-fault SPEC]...\n"
               "  cyptrace merge <rankdir> [--out F.cyp] [--merge-budget BYTES[k|m|g]]\n"
               "               [--batch-ranks N] [--work-dir D] [--resume] [--degrade]\n"
               "               [--io-fault SPEC]... [--crash-after-steps N] [--keep-work]\n"
               "               (SPEC: enospc@N | eio@N | short@N | fsync@N | rename@N,\n"
               "                each optionally :pathSubstr)\n"
               "  cyptrace info <F.cyp>\n"
               "  cyptrace dump <F.cyp> [--rank R] [--limit N] [--otf]\n"
               "  cyptrace replay <F.cyp> [--net ib|eth]\n"
               "  cyptrace query <F.cyp> <SPEC> [--threads T]\n"
               "               (SPEC: summary | hist | matrix | colls |\n"
               "                callsites src=A dst=B iter=K [loop=GID])\n"
               "  cyptrace compare <workload> --procs N [--scale S] [--threads T]\n"
               "  cyptrace stats <F.cyp>\n"
               "  cyptrace diff <A.cyp> <B.cyp>\n"
               "  cyptrace verify <workload|file.mc|trace file> [--procs N] "
               "[--scale S] [--fuzz N] [--seed S]\n"
               "workloads: ");
  for (const auto& n : workloads::allNames()) std::fprintf(stderr, "%s ", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 3) usage();
  a.command = argv[1];
  a.target = argv[2];
  int firstFlag = 3;
  if (a.command == "diff") {
    if (argc < 4) usage();
    a.target2 = argv[3];
    firstFlag = 4;
  }
  for (int i = firstFlag; i < argc; ++i) {
    const std::string flag = argv[i];
    // `query` takes its spec as bare words after the trace file, so
    // shell users can write: cyptrace query t.cyp callsites src=0 ...
    if (a.command == "query" && flag.rfind("--", 0) != 0) {
      if (!a.querySpec.empty()) a.querySpec += ' ';
      a.querySpec += flag;
      continue;
    }
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    auto count = [&](int min = 1) {
      return cli::parseCount("cyptrace", flag, value(), min);
    };
    auto number = [&](bool sizeSuffix = false) {
      return cli::parseUnsigned("cyptrace", flag, value(), UINT64_MAX,
                                sizeSuffix);
    };
    if (flag == "--procs") a.procs = count();
    else if (flag == "--scale") a.scale = count();
    else if (flag == "--threads") a.threads = count();
    else if (flag == "--rank") a.rank = count(0);
    else if (flag == "--limit") a.limit = count(0);
    else if (flag == "--out") a.out = value();
    else if (flag == "--net") a.net = value();
    else if (flag == "--otf") a.otf = true;
    else if (flag == "--fuzz") a.fuzz = count(0);
    else if (flag == "--seed") a.seed = number();
    else if (flag == "--fault") a.faultSpecs.push_back(value());
    else if (flag == "--journal") a.journal = value();
    else if (flag == "--salvage") a.salvage = true;
    else if (flag == "--emit-ranks") a.emitRanks = value();
    else if (flag == "--merge-budget") a.mergeBudget = number(/*sizeSuffix=*/true);
    else if (flag == "--batch-ranks") a.batchRanks = number();
    else if (flag == "--work-dir") a.workDir = value();
    else if (flag == "--resume") a.resume = true;
    else if (flag == "--degrade") a.degrade = true;
    else if (flag == "--keep-work") a.keepWork = true;
    else if (flag == "--io-fault") a.ioFaults.push_back(value());
    else if (flag == "--crash-after-steps") a.crashAfterSteps = number();
    else usage();
  }
  return a;
}

bool isWorkload(const std::string& target) {
  const auto names = workloads::allNames();
  return std::find(names.begin(), names.end(), target) != names.end();
}

std::vector<uint8_t> readBytes(const std::string& path) {
  const std::string s = cli::readFile(path);
  return std::vector<uint8_t>(s.begin(), s.end());
}

/// An --io-fault plan wraps the real backend in the deterministic
/// injector; every durable byte the command writes then flows through
/// it. Returns the backend to use; `faulty` owns the wrapper.
io::IoBackend* faultIo(const Args& a,
                       std::unique_ptr<io::FaultyIoBackend>& faulty) {
  if (a.ioFaults.empty()) return &io::realIo();
  std::vector<io::IoFaultSpec> plan;
  plan.reserve(a.ioFaults.size());
  for (const std::string& s : a.ioFaults)
    plan.push_back(io::parseIoFaultSpec(s));
  faulty =
      std::make_unique<io::FaultyIoBackend>(io::realIo(), std::move(plan));
  return faulty.get();
}

/// `allTools` (compare, verify) runs the ScalaTrace baselines next to
/// CYPRESS and keeps the raw trace those commands check against; `run`
/// records CYPRESS alone and takes its event count from the engine.
/// With a `journal` writer the journal streams into it as it grows.
driver::RunOutput runTarget(const Args& a, bool allTools,
                            io::AtomicFileWriter* journal = nullptr) {
  driver::Options opts;
  opts.procs = a.procs;
  opts.scale = a.scale;
  opts.threads = a.threads;
  opts.withRaw = allTools;
  opts.withScala = allTools;
  opts.withScala2 = allTools;
  for (const std::string& spec : a.faultSpecs)
    opts.engine.faults.faults.push_back(simmpi::parseFaultSpec(spec));
  opts.withJournal = journal != nullptr;
  if (journal != nullptr)
    opts.journalSink = [journal](std::span<const uint8_t> chunk) {
      journal->write(chunk);
    };
  opts.onStall = a.salvage ? vm::OnStall::Salvage : vm::OnStall::Throw;
  if (cli::isSourceFile(a.target))
    return driver::runSource(a.target, cli::readFile(a.target), opts);
  if (!isWorkload(a.target)) {
    std::fprintf(stderr, "cyptrace: unknown workload '%s'\n", a.target.c_str());
    usage();
  }
  return driver::runWorkload(a.target, opts);
}

int cmdRun(const Args& a) {
  std::unique_ptr<io::FaultyIoBackend> faulty;
  io::IoBackend* io = faultIo(a, faulty);
  // The journal streams into F.cyj.tmp during the run, so memory stays
  // bounded; it is committed (one fsync, then rename) after the trace.
  std::unique_ptr<io::AtomicFileWriter> journal;
  if (!a.journal.empty())
    journal = std::make_unique<io::AtomicFileWriter>(*io, a.journal);
  driver::RunOutput run = runTarget(a, /*allTools=*/false, journal.get());
  core::MergedCtt merged = driver::mergeCypress(run, nullptr, a.threads);
  const std::string out = a.out.empty() ? a.target + ".cyp" : a.out;
  const size_t outBytes = driver::writeTrace(merged, out, io);
  std::printf("traced %s on %d ranks: %llu events -> %s (%s)\n",
              a.target.c_str(), a.procs,
              static_cast<unsigned long long>(run.runStats.totalEvents),
              out.c_str(), humanBytes(outBytes).c_str());
  if (!run.runStats.clean()) {
    std::printf("partial run:");
    for (int r : run.runStats.deadRanks) std::printf(" rank %d killed", r);
    for (int r : run.runStats.stalledRanks) std::printf(" rank %d stalled", r);
    std::printf("\n");
    if (!run.runStats.stallDiagnostics.empty())
      std::fputs(run.runStats.stallDiagnostics.c_str(), stdout);
    std::printf("merged trace covers survivors; lost ranks annotated: %zu\n",
                merged.lostRanks().size());
  }
  if (journal != nullptr) {
    journal->commit();
    std::printf("journal: %s (%s, %llu events, sealed)\n", a.journal.c_str(),
                humanBytes(journal->bytesWritten()).c_str(),
                static_cast<unsigned long long>(run.journal->totalEvents()));
  }
  if (!a.emitRanks.empty()) {
    const RankSet lost = driver::writeRankTraces(run, a.emitRanks, io,
                                                 a.threads);
    std::printf("rank traces: %s (%d ranks, %zu lost)\n", a.emitRanks.c_str(),
                a.procs, lost.size());
  }
  return 0;
}

int cmdMerge(const Args& a) {
  std::unique_ptr<io::FaultyIoBackend> faulty;
  io::IoBackend* io = faultIo(a, faulty);

  const driver::RankTraceDir ranks = driver::openRankTraceDir(a.target, io);
  core::StreamingMergeOptions mo;
  mo.budgetBytes = a.mergeBudget;
  mo.maxBatchRanks = a.batchRanks;
  mo.workDir = a.workDir.empty() ? a.target + "/merge.work" : a.workDir;
  mo.io = io;
  mo.resume = a.resume;
  mo.degrade = a.degrade;
  mo.keepWorkDir = a.keepWork;
  mo.crashAfterSteps = a.crashAfterSteps;
  mo.outPath = a.out.empty() ? a.target + ".cyp" : a.out;

  const core::StreamingMergeResult res = core::streamingMerge(
      ranks.numRanks, [&](int r) { return ranks.load(r); }, *ranks.cst, mo);

  std::printf("merged %d ranks -> %s (%s)\n", ranks.numRanks,
              mo.outPath.c_str(),
              humanBytes(io->fileSize(mo.outPath)).c_str());
  std::printf("plan: %llu batches; "
              "%llu steps executed, %llu resumed from checkpoint\n",
              static_cast<unsigned long long>(res.batches),
              static_cast<unsigned long long>(res.stepsExecuted),
              static_cast<unsigned long long>(res.stepsResumed));
  if (!res.merged.lostRanks().empty())
    std::printf("partial trace: %zu lost rank(s), %zu dropped by disk "
                "faults\n",
                res.merged.lostRanks().size(), res.droppedRanks.size());
  // Degraded coverage surfaces in the exit code (mirrors `recover`).
  return res.droppedRanks.empty() ? 0 : 3;
}

int cmdRecover(const Args& a) {
  const auto bytes = readBytes(a.target);
  const trace::JournalRecovery rec = trace::recoverJournal(bytes);
  size_t events = 0;
  for (const auto& rt : rec.trace.ranks) events += rt.events.size();
  std::printf("%s: %s, %zu segments, %zu events on %zu ranks\n",
              a.target.c_str(), humanBytes(bytes.size()).c_str(),
              rec.segmentsRecovered, events, rec.trace.ranks.size());
  if (rec.sealed) {
    std::printf("sealed journal (complete)\n");
  } else {
    std::printf("unsealed journal: recovered the intact prefix, "
                "%zu trailing bytes discarded\n",
                rec.bytesDiscarded);
  }
  std::printf("finalized ranks: %zu", rec.finalizedRanks.size());
  if (!rec.lostRanks.empty()) {
    std::printf("; lost ranks:");
    for (int32_t r : rec.lostRanks.ranks()) std::printf(" %d", r);
  }
  const auto open = rec.unfinalizedRanks();
  if (!open.empty()) {
    std::printf("; unfinalized ranks:");
    for (int r : open) std::printf(" %d", r);
  }
  std::printf("\n");
  if (!a.out.empty()) {
    std::unique_ptr<io::FaultyIoBackend> faulty;
    const auto raw = rec.trace.serialize();
    io::writeFileAtomic(*faultIo(a, faulty), a.out, raw);
    std::printf("recovered raw trace -> %s (%s)\n", a.out.c_str(),
                humanBytes(raw.size()).c_str());
  }
  // A lossy salvage is a partial answer, not a clean read: scripts
  // chaining recover into analysis must see it in the exit code, not
  // only in stdout.
  if (rec.lossy()) {
    std::printf("lossy recovery: %zu trailing bytes dropped, "
                "%zu unfinalized rank(s)%s\n",
                rec.bytesDiscarded, open.size(),
                rec.sealed ? "" : ", journal unsealed");
    return 3;
  }
  return 0;
}

int cmdInfo(const Args& a) {
  const auto bytes = readBytes(a.target);
  cst::Tree tree;
  core::MergedCtt merged = core::MergedCtt::deserializeWithTree(bytes, tree);
  std::printf("%s: %s, CST with %d vertices\n", a.target.c_str(),
              humanBytes(bytes.size()).c_str(), tree.numNodes());
  // Rank universe = union of all rank sets.
  RankSet all;
  size_t entries = 0;
  for (int g = 0; g < tree.numNodes(); ++g) {
    for (const auto& e : merged.leafEntries(g)) {
      all.unite(e.ranks);
      ++entries;
    }
    entries += merged.loopEntries(g).size() + merged.takenEntries(g).size();
  }
  std::printf("%zu merged payload entries covering %zu ranks\n", entries,
              all.size());
  std::printf("\n%s", tree.toString().c_str());
  return 0;
}

int cmdDump(const Args& a) {
  const auto bytes = readBytes(a.target);
  cst::Tree tree;
  core::MergedCtt merged = core::MergedCtt::deserializeWithTree(bytes, tree);
  if (a.otf) {
    // Every rank below the span except the lost ones of a salvaged
    // trace, which have no events to expand.
    trace::RawTrace t;
    const int64_t numRanks = query::rankSpan(merged);
    for (int64_t r = 0; r < numRanks; ++r) {
      const auto rank = static_cast<int32_t>(r);
      if (!merged.lostRanks().contains(rank))
        t.ranks.push_back(
            trace::RankTrace{rank, core::decompressRank(merged, rank)});
    }
    std::fputs(trace::toOtfText(t).c_str(), stdout);
    return 0;
  }
  auto events = core::decompressRank(merged, a.rank);
  std::printf("rank %d: %zu events\n", a.rank, events.size());
  for (size_t i = 0; i < events.size() && static_cast<int>(i) < a.limit; ++i)
    std::printf("  %zu: %s\n", i, events[i].toString().c_str());
  if (static_cast<int>(events.size()) > a.limit)
    std::printf("  ... (%zu more; raise --limit)\n", events.size() - a.limit);
  return 0;
}

int cmdReplay(const Args& a) {
  const auto bytes = readBytes(a.target);
  cst::Tree tree;
  core::MergedCtt merged = core::MergedCtt::deserializeWithTree(bytes, tree);
  const RankSet covered = query::coveredRanks(merged);
  const int numRanks = covered.empty() ? 0 : covered.ranks().back() + 1;
  const simmpi::LogGP net =
      a.net == "eth" ? simmpi::LogGP::ethernet() : simmpi::LogGP::infiniband();
  // SIM-MPI pulls events straight off CompressedCursors, one per rank;
  // the expanded trace never exists in memory.
  replay::Prediction p = replay::simulate(merged, net);
  std::printf("replayed %llu events on %d ranks (%s, compressed-domain)\n",
              static_cast<unsigned long long>(p.totalEvents), numRanks,
              a.net == "eth" ? "ethernet model" : "InfiniBand model");
  std::printf("predicted execution time: %.3f ms, communication share %.2f%%\n",
              static_cast<double>(p.predictedNs) / 1e6, p.commPercent());
  return 0;
}

int cmdQuery(const Args& a) {
  if (a.querySpec.empty()) usage();
  const auto bytes = readBytes(a.target);
  cst::Tree tree;
  core::MergedCtt merged = core::MergedCtt::deserializeWithTree(bytes, tree);
  const std::string json = query::runQuery(merged, a.querySpec, a.threads);
  std::printf("%s\n", json.c_str());
  return 0;
}

int cmdStats(const Args& a) {
  const auto bytes = readBytes(a.target);
  cst::Tree tree;
  core::MergedCtt merged = core::MergedCtt::deserializeWithTree(bytes, tree);
  // Answered in the compressed domain: no event is expanded and the
  // heat map is bucketed from the sparse matrix, so memory follows the
  // compressed size plus P, never events or P^2.
  const int64_t numRanks = query::rankSpan(merged);
  const trace::TraceStats st = query::traceStats(merged);
  std::printf("%s (%lld ranks, trace file %s)\n", a.target.c_str(),
              static_cast<long long>(numRanks),
              humanBytes(bytes.size()).c_str());
  if (!merged.lostRanks().empty()) {
    std::printf("lost ranks:");
    for (int32_t r : merged.lostRanks().ranks()) std::printf(" %d", r);
    std::printf(" (statistics cover the surviving ranks)\n");
  }
  std::printf("\n%s\n", st.toString().c_str());
  std::printf("communication volume heat map:\n%s",
              query::heatMap(query::commMatrix(merged), numRanks)
                  .c_str());
  return 0;
}

int cmdDiff(const Args& a) {
  cst::Tree ta, tb;
  core::MergedCtt ma = core::MergedCtt::deserializeWithTree(readBytes(a.target), ta);
  core::MergedCtt mb =
      core::MergedCtt::deserializeWithTree(readBytes(a.target2), tb);
  core::TraceDiff d = core::diffTraces(ma, mb);
  std::fputs(d.toString().c_str(), stdout);
  return d.identical() ? 0 : 1;
}

int cmdCompare(const Args& a) {
  driver::RunOutput run = runTarget(a, /*allTools=*/true);
  driver::SizeReport rep = driver::computeSizes(run, a.threads);
  std::printf("%s, %d ranks, %zu events\n", a.target.c_str(), a.procs,
              run.raw.totalEvents());
  std::printf("  raw          %12s\n", humanBytes(rep.rawBytes).c_str());
  std::printf("  gzip         %12s\n", humanBytes(rep.gzipBytes).c_str());
  std::printf("  scalatrace   %12s  (merge %.3f ms)\n",
              humanBytes(rep.scalaBytes).c_str(), rep.scalaInterSeconds * 1e3);
  std::printf("  scalatrace2  %12s  (merge %.3f ms)\n",
              humanBytes(rep.scala2Bytes).c_str(), rep.scala2InterSeconds * 1e3);
  std::printf("  cypress      %12s  (merge %.3f ms)\n",
              humanBytes(rep.cypressBytes).c_str(), rep.cypressInterSeconds * 1e3);
  std::printf("  cypress+gz   %12s\n", humanBytes(rep.cypressGzipBytes).c_str());
  return 0;
}

int cmdVerify(const Args& a) {
  if (cli::isSourceFile(a.target) || isWorkload(a.target)) {
    driver::RunOutput run = runTarget(a, /*allTools=*/true);
    const verify::Report rep = driver::verifyRun(run, a.threads);
    std::printf("%s, %d ranks, %zu events\n%s", a.target.c_str(), a.procs,
                run.raw.totalEvents(), rep.toString().c_str());
    return rep.ok() ? 0 : 1;
  }

  const auto bytes = readBytes(a.target);
  verify::Report rep = verify::verifyTraceFile(bytes);
  std::printf("%s (%s)\n%s", a.target.c_str(),
              humanBytes(bytes.size()).c_str(), rep.toString().c_str());
  if (!rep.ok()) return 1;
  if (a.fuzz > 0) {
    verify::FuzzOptions fo;
    fo.seed = a.seed;
    fo.mutations = a.fuzz;
    const verify::FuzzReport fr =
        verify::corruptionFuzz(bytes, verify::decodeTraceFile, fo);
    std::printf("fuzz (seed %llu): %s\n",
                static_cast<unsigned long long>(a.seed),
                fr.toString().c_str());
    if (!fr.ok()) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    // Size the shared pool to the request: --threads is a promise about
    // how many cores we occupy, not just a fan-out width.
    ThreadPool::configureShared(static_cast<unsigned>(a.threads));
    if (a.command == "run") return cmdRun(a);
    if (a.command == "recover") return cmdRecover(a);
    if (a.command == "merge") return cmdMerge(a);
    if (a.command == "info") return cmdInfo(a);
    if (a.command == "dump") return cmdDump(a);
    if (a.command == "replay") return cmdReplay(a);
    if (a.command == "query") return cmdQuery(a);
    if (a.command == "compare") return cmdCompare(a);
    if (a.command == "stats") return cmdStats(a);
    if (a.command == "diff") return cmdDiff(a);
    if (a.command == "verify") return cmdVerify(a);
    usage();
  } catch (const io::IoError& e) {
    // Disk faults get their own exit code so wrappers (and the fault
    // sweep in tests) can tell "out of disk" from "bad trace".
    std::fprintf(stderr, "cyptrace: %s\n", e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cyptrace: %s\n", e.what());
    return 1;
  }
}
