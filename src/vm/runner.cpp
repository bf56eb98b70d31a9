#include "vm/runner.hpp"

#include <algorithm>
#include <memory>

#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace cypress::vm {

namespace {

uint64_t totalInstructions(const std::vector<std::unique_ptr<RankVM>>& vms) {
  uint64_t n = 0;
  for (const auto& v : vms) n += v->instructionsExecuted();
  return n;
}

}  // namespace

RunResult run(const ir::Module& m, simmpi::Engine& engine,
              const std::vector<trace::Observer*>& observers,
              const RunOptions& opts) {
  const int numRanks = engine.numRanks();
  CYP_CHECK(static_cast<int>(observers.size()) == numRanks,
            "observers size " << observers.size() << " != ranks " << numRanks);
  const int threads = std::max(1, opts.threads);

  std::vector<std::unique_ptr<RankVM>> vms;
  vms.reserve(static_cast<size_t>(numRanks));
  for (int r = 0; r < numRanks; ++r) {
    vms.push_back(std::make_unique<RankVM>(m, r, engine,
                                           observers[static_cast<size_t>(r)]));
    vms.back()->setInstructionLimit(opts.instructionLimitPerRank);
  }

  RunResult out;
  engine.takeProgressFlag();  // reset
  std::vector<size_t> local;  // ranks that get a local phase this epoch
  local.reserve(static_cast<size_t>(numRanks));
  int finishedCount = 0;
  while (finishedCount < numRanks) {
    // Cooperative cancellation: checked once per epoch, so the watchdog
    // latency is one epoch, and cancellation points are deterministic
    // with respect to the commit order (never mid-commit).
    if (opts.cancel && opts.cancel->load(std::memory_order_relaxed)) {
      std::vector<int> active;
      for (int r = 0; r < numRanks; ++r)
        if (!vms[static_cast<size_t>(r)]->finished()) active.push_back(r);
      out.cancelled = true;
      out.stalledRanks = active;
      out.stallDiagnostics =
          engine.stallDump("run cancelled; active ranks:", active);
      if (opts.onStall == OnStall::Throw)
        throw Error("run cancelled\n" + out.stallDiagnostics);
      break;
    }
    // Phase 1 — parallel local slices. A rank joins the local phase
    // unless it is done or parked on the engine; the slice runs to the
    // rank's next MPI call, preparing that call's arguments. The chunked
    // fan-out and the barrier below are the only thread interaction:
    // local phases share no mutable state with each other.
    local.clear();
    for (size_t r = 0; r < vms.size(); ++r)
      if (!vms[r]->finished() && !vms[r]->hasCommitWork()) local.push_back(r);
    const uint64_t instrBefore = totalInstructions(vms);
    parallelFor(local.size(), threads,
                [&](size_t i) { vms[local[i]]->runLocal(); });

    // Phase 2 — commit in ascending rank order on this thread. Every
    // cross-rank effect (matching, collectives, event emission, journal
    // flushes, finalization) happens here, so its order — and therefore
    // every emitted artifact — is independent of the thread count.
    bool commitProgress = false;
    for (auto& v : vms) {
      if (v->fullyFinished()) continue;
      if (v->hasCommitWork() && v->commitStep()) commitProgress = true;
    }

    const bool progress = commitProgress ||
                          totalInstructions(vms) != instrBefore ||
                          engine.takeProgressFlag();
    finishedCount = 0;
    for (const auto& v : vms)
      if (v->fullyFinished()) ++finishedCount;
    if (!progress && finishedCount < numRanks) {
      // No rank executed an instruction, no commit advanced, and the
      // engine completed nothing: every remaining rank is permanently
      // stuck. Terminate deterministically.
      std::vector<int> active;
      for (int r = 0; r < numRanks; ++r)
        if (!vms[static_cast<size_t>(r)]->finished()) active.push_back(r);
      if (opts.onStall == OnStall::Throw) engine.failStalled(active);
      out.stalledRanks = active;
      out.stallDiagnostics = engine.stallDump("stalled ranks:", active);
      break;
    }
  }

  out.deadRanks = engine.deadRanks();
  out.executionNs = engine.executionTimeNs();
  for (int r = 0; r < numRanks; ++r) {
    out.totalInstructions += vms[static_cast<size_t>(r)]->instructionsExecuted();
    out.totalEvents += engine.eventCount(r);
    out.rankCommNs.push_back(engine.commTimeNs(r));
    out.rankClockNs.push_back(engine.clockNs(r));
  }
  return out;
}

}  // namespace cypress::vm
