// Deterministic epoch scheduler over per-rank VMs.
//
// Each iteration ("epoch") has two phases:
//
//   1. Local phase — every runnable rank delivers the MPI events it
//      committed since its last slice to its observer, then executes
//      instructions up to its next MPI call (RankVM::runLocal). Local
//      phases touch only rank-private state, so they run on persistent
//      lanes when RunOptions::threads > 1: the run starts threads−1
//      threads, the calling thread is lane 0, and lane k owns the ranks
//      [P·k/L, P·(k+1)/L) for the whole run. Lanes park on an epoch
//      counter between phases (a brief spin, then std::atomic::wait).
//   2. Commit phase — on the calling thread, in ascending rank order,
//      each rank performs its parked engine interaction
//      (RankVM::commitStep): issue the prepared MPI call, poll a
//      blocked one, or finalize a finished rank. Completed events go
//      to the rank's pending buffer; commit-thread observers attached
//      with Engine::setObserver (the journal) get them right away.
//
// Which ranks are parked where at each epoch is a pure function of the
// program, and all cross-rank effects (message matching, collectives,
// event completion, journal flushes) happen in commit order. Each
// rank's observer sees its hooks in program order on whichever lane
// owns the rank. So the run and every artifact it produces are
// byte-identical at any thread count, including threads=1.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/ir.hpp"
#include "simmpi/engine.hpp"
#include "trace/observer.hpp"
#include "vm/vm.hpp"

namespace cypress::vm {

/// What to do when no rank can make progress (deadlock / hang).
///   Throw:   raise cypress::Error with the engine's per-rank stall dump.
///   Salvage: stop the run and report the stalled ranks in RunResult, so
///            the caller can still recover the surviving ranks' traces.
enum class OnStall : uint8_t { Throw, Salvage };

struct RunOptions {
  uint64_t instructionLimitPerRank = 1ull << 40;
  OnStall onStall = OnStall::Throw;
  /// Lanes for the local phases (1 = fully sequential; capped at the
  /// rank count). Any value produces byte-identical traces; this is
  /// purely a speed knob for the run stage.
  int threads = 1;
  /// Cooperative cancellation (the cyptraced per-job watchdog): when the
  /// pointed-to flag becomes true, the run stops at the next epoch
  /// boundary. The remaining ranks are reported exactly like a stall —
  /// per OnStall, with the engine's per-rank diagnostics — plus
  /// RunResult::cancelled set, so a watchdogged job is distinguishable
  /// from a genuine deadlock.
  const std::atomic<bool>* cancel = nullptr;
};

struct RunResult {
  uint64_t executionNs = 0;           // measured program time (max rank clock)
  uint64_t totalInstructions = 0;
  uint64_t totalEvents = 0;           // trace events emitted, all ranks
  std::vector<uint64_t> rankCommNs;   // per-rank time inside MPI ops
  std::vector<uint64_t> rankClockNs;  // per-rank final clock
  std::vector<int> deadRanks;         // ranks killed by the fault plan
  std::vector<int> stalledRanks;      // ranks still blocked at salvage time
  std::string stallDiagnostics;       // per-rank dump when the run stalled
  bool cancelled = false;             // stopped by RunOptions::cancel

  /// True when every rank ran to MPI_Finalize.
  bool clean() const {
    return deadRanks.empty() && stalledRanks.empty() && !cancelled;
  }
};

/// Execute one program on `engine` with one rank-private observer per
/// rank (entries may be null). Each observer gets all of its rank's
/// hooks, MPI events included, on the lane that owns the rank; every
/// rank's pending events are delivered before run() returns or throws a
/// stall or cancel error. On deadlock, OnStall::Throw (the default)
/// raises cypress::Error with a per-rank diagnostic dump;
/// OnStall::Salvage returns normally with the stalled ranks recorded in
/// the result. An error in a local phase (e.g. the instruction limit) is
/// rethrown as the lowest failing rank's error.
RunResult run(const ir::Module& m, simmpi::Engine& engine,
              const std::vector<trace::Observer*>& observers,
              const RunOptions& opts = {});

}  // namespace cypress::vm
