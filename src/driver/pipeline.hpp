// End-to-end pipeline driver: the public API a downstream user calls to
// trace a workload with every tool and compare the results.
//
//   compile (MiniC)  →  static analysis + instrumentation (CST)
//   → simulated execution with PMPI observers attached
//   → per-tool compression, merging, sizes and overhead accounting.
//
// The same driver feeds the tools (`cyptrace`, `cyptraced`), the
// examples, the figure binaries and cyperf's stage timings, so the
// reported numbers come from the code path users run. The exceptions
// wire layers by hand on purpose: `bench/ablation_bench` (recorder
// options are its subject), `bench/micro_kernels`,
// `examples/quickstart` (it teaches the layers), the unit tests, and
// `perfbench/` (frozen between benchmark changes; see ROADMAP.md).
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cst/builder.hpp"
#include "cypress/ctt.hpp"
#include "cypress/merge.hpp"
#include "scalatrace/inter.hpp"
#include "scalatrace/recorder.hpp"
#include "simmpi/engine.hpp"
#include "support/io.hpp"
#include "trace/event.hpp"
#include "trace/journal.hpp"
#include "verify/roundtrip.hpp"
#include "vm/runner.hpp"

namespace cypress::driver {

/// The immutable products of the compile + static-analysis phase for
/// one program: the instrumented module and its CST. Everything here is
/// read-only during a traced run (the VM takes the module by const
/// reference, recorders take the tree by const reference), so one
/// CompiledProgram can be shared by any number of concurrent runs —
/// this is what the cyptraced CST cache stores, keyed by program hash:
/// extraction is pure per program, so it is computed once and served to
/// every subsequent job over the same workload.
struct CompiledProgram {
  std::shared_ptr<const ir::Module> module;
  std::shared_ptr<const cst::Tree> cst;
  cst::CompileStats stats;
};

/// Run the compile + CYPRESS static phase only (no simulated execution).
std::shared_ptr<const CompiledProgram> compileForTracing(
    const std::string& source);

struct Options {
  int procs = 8;
  int scale = 1;
  /// Parallelism of the traced run itself (the epoch scheduler's
  /// persistent lanes, see vm/runner.hpp). The post-run stages take
  /// their own `threads` argument and fan out on the shared pool
  /// (support/thread_pool.hpp). Every stage has a fixed work partition
  /// and a deterministic commit order, so every produced trace is
  /// byte-identical for any value of `threads`.
  int threads = 1;
  /// Record the full raw event trace in RunOutput::raw. Only needed by
  /// consumers of the expanded trace (raw sizes, roundtrip
  /// decompression checks, raw-scan oracles); its memory grows with the
  /// event count. The run's event count is available without it, in
  /// RunOutput::runStats.totalEvents.
  bool withRaw = true;
  bool withScala = true;
  bool withScala2 = true;
  bool withCypress = true;
  /// Charge every recorder hook to its CostMeter (two clock reads per
  /// hook call), feeding RunOutput::*IntraSeconds() — the paper's
  /// Fig. 16 intra-process overhead. Off by default; those accessors
  /// then read 0.
  bool meterHooks = false;
  simmpi::Engine::Config engine;  // numRanks is overwritten with `procs`
  /// Also journal raw events to a crash-consistent CYJ1 stream (see
  /// trace/journal.hpp). The journal is sealed after the run with the
  /// lost ranks recorded, and is available as RunOutput::journal.
  bool withJournal = false;
  size_t journalFlushEvery = 64;
  /// What to do when the run deadlocks (usually under fault injection):
  /// Throw (default) raises a structured error with per-rank
  /// diagnostics; Salvage finishes normally with the stalled ranks in
  /// RunOutput::runStats so partial traces can still be recovered.
  vm::OnStall onStall = vm::OnStall::Throw;
  /// Skip compilation + static analysis and reuse this program instead
  /// (must have been produced by compileForTracing over the same
  /// source). The run output shares — not copies — the module and CST.
  std::shared_ptr<const CompiledProgram> precompiled;
  /// Cooperative cancellation flag for the traced run, forwarded to
  /// vm::RunOptions::cancel; see there for semantics.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional sink receiving every appended CYJ1 journal chunk (header
  /// included) as soon as it is written, so a server can stream the
  /// journal to disk and a crash mid-run leaves a salvageable torn file
  /// instead of nothing.
  trace::JournalBuilder::Sink journalSink;
};

/// Everything produced by one traced run.
struct RunOutput {
  std::string workload;
  int procs = 0;

  /// Shared with the Options::precompiled cache entry when one was
  /// used, freshly compiled otherwise. Heap-allocated either way so
  /// recorders' references stay valid if the RunOutput itself is moved.
  std::shared_ptr<const ir::Module> module;
  std::shared_ptr<const cst::Tree> cst;
  cst::CompileStats compileStats;

  trace::RawTrace raw;
  std::vector<std::unique_ptr<core::CttRecorder>> cypress;
  std::vector<std::unique_ptr<scalatrace::Recorder>> scala;
  std::vector<std::unique_ptr<scalatrace::Recorder>> scala2;

  /// Sealed CYJ1 journal of the run (only when Options::withJournal).
  std::unique_ptr<trace::JournalBuilder> journal;
  std::vector<std::unique_ptr<trace::JournalRecorder>> journalRecorders;

  /// Ranks whose traces are incomplete: killed by the fault plan or
  /// still blocked when a stalled run was salvaged.
  RankSet lostRanks() const;

  vm::RunResult runStats;

  /// Sum of per-rank intra-process hook costs (seconds); 0 unless the
  /// run set Options::meterHooks.
  double cypressIntraSeconds() const;
  double scalaIntraSeconds() const;
  double scala2IntraSeconds() const;

  /// Average per-process compressor memory (bytes).
  size_t cypressMemoryPerRank() const;
  size_t scalaMemoryPerRank() const;
  size_t scala2MemoryPerRank() const;
};

/// Run a named workload (see workloads::allNames()) under `opts`.
RunOutput runWorkload(const std::string& name, const Options& opts);

/// Run arbitrary MiniC source the same way (library users' entry point).
RunOutput runSource(const std::string& name, const std::string& source,
                    const Options& opts);

/// Final trace sizes per tool (after inter-process merging), in bytes —
/// the paper's Fig. 15 quantities. Also captures the merge CPU times
/// (Fig. 18).
struct SizeReport {
  size_t rawBytes = 0;
  size_t gzipBytes = 0;         // flate over the raw trace
  size_t scalaBytes = 0;        // ScalaTrace merged
  size_t scala2Bytes = 0;       // ScalaTrace-2 merged
  size_t scala2GzipBytes = 0;   // + flate
  size_t cypressBytes = 0;      // CYPRESS merged (CST + CTT payloads)
  size_t cypressGzipBytes = 0;  // + flate

  double scalaInterSeconds = 0.0;
  double scala2InterSeconds = 0.0;
  double cypressInterSeconds = 0.0;
};

/// `threads` parallelizes the independent per-tool branches (raw+gzip,
/// ScalaTrace, ScalaTrace-2, CYPRESS) and, inside the CYPRESS branch,
/// the merge reduction and flate sharding. Sizes are identical for any
/// thread count.
SizeReport computeSizes(const RunOutput& run, int threads = 1);

/// Merge the CYPRESS CTTs of a run (exposed for decompression/replay).
/// Ranks that did not finalize (killed or stalled) are skipped and
/// recorded in the result's lostRanks() annotation, so a faulted run
/// still yields a valid compressed trace for the survivors.
core::MergedCtt mergeCypress(const RunOutput& run, CostMeter* cost = nullptr,
                             int threads = 1);
/// The result points into the run's CST, so merging a temporary run
/// would leave it dangling: keep the run alive in a variable.
core::MergedCtt mergeCypress(RunOutput&& run, CostMeter* cost = nullptr,
                             int threads = 1) = delete;

/// Roundtrip-verify every trace a run produced (see verify/roundtrip.hpp).
verify::Report verifyRun(const RunOutput& run, int threads = 1);

/// Write a merged trace as one CYPC file, atomically (tmp + fsync +
/// rename) through `io` (null = real backend). The bytes stream
/// straight from the merged CTT, so the serialized trace never exists
/// as one in-RAM buffer, and a kill or disk fault (io::IoError)
/// mid-write never leaves a torn file under `path`. The file equals
/// merged.serialize(). Returns its size in bytes.
size_t writeTrace(const core::MergedCtt& merged, const std::string& path,
                  io::IoBackend* io = nullptr);

/// Write a run's per-rank traces as a rank-trace directory — the
/// paper's deployment model made durable:
///
///   dir/meta.cyrd       str "CYRD" | uv version (2) | uv numRanks
///   dir/cst.cyst        flate(cst text)           — the shared tree
///   dir/rank-NNNNN.cypp flate(Ctt::serialize())   — one per finalized
///                                                   rank; lost ranks
///                                                   have no file
///
/// Every file is written atomically (tmp + fsync + rename) through
/// `io` (null = real backend), so a crash mid-emit never leaves a
/// torn file under a final name. Each rank streams
/// serialize→compress→write straight from its CYPRESS recorder, so
/// shards leave RAM as they are cut. A run traced without
/// Options::withCypress throws cypress::Error before anything is
/// written. Ranks are emitted in order (deterministic I/O ordinals for
/// --io-fault plans); `threads` fans out shard compression within a
/// rank. Returns the ranks with no file (the run's lost ranks) so
/// callers can report coverage.
RankSet writeRankTraces(const RunOutput& run, const std::string& dir,
                        io::IoBackend* io = nullptr, int threads = 1);

/// An opened rank-trace directory: `cyptrace merge`'s input, and the
/// natural CttSource for core::streamingMerge (load(rank) is nullopt
/// exactly for the lost ranks).
struct RankTraceDir {
  std::shared_ptr<const cst::Tree> cst;
  int numRanks = 0;
  std::string dir;
  io::IoBackend* io = nullptr;

  /// Deserialize one rank's CTT; nullopt when the rank has no file.
  std::optional<core::Ctt> load(int rank) const;
};

RankTraceDir openRankTraceDir(const std::string& dir,
                              io::IoBackend* io = nullptr);

}  // namespace cypress::driver
