// Deterministic epoch scheduler over per-rank VMs.
//
// Each iteration ("epoch") has two phases:
//
//   1. Local phase — every runnable rank executes instructions up to
//      its next MPI call (RankVM::runLocal). Local phases touch only
//      rank-private state, so they fan out on the fixed-order thread
//      pool when RunOptions::threads > 1.
//   2. Commit phase — on the calling thread, in ascending rank order,
//      each rank performs its parked engine interaction
//      (RankVM::commitStep): issue the prepared MPI call, poll a
//      blocked one, or finalize a finished rank.
//
// Which ranks are parked where at each epoch is a pure function of the
// program, and all cross-rank effects (message matching, collectives,
// trace emission, journal flushes) happen in commit order — so the run
// and every artifact it produces are byte-identical at any thread
// count, including threads=1.
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
  /// Lanes of concurrency for the local phases (1 = fully sequential).
  /// Any value produces byte-identical traces; this is purely a speed
  /// knob for the run stage.
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

/// Execute one program on `engine` with one observer per rank (entries
/// may be null). On deadlock, OnStall::Throw (the default) raises
/// cypress::Error with a per-rank diagnostic dump; OnStall::Salvage
/// returns normally with the stalled ranks recorded in the result.
RunResult run(const ir::Module& m, simmpi::Engine& engine,
              const std::vector<trace::Observer*>& observers,
              const RunOptions& opts = {});

}  // namespace cypress::vm
