#include "vm/runner.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <thread>

#include "support/error.hpp"

namespace cypress::vm {

namespace {

using Vms = std::vector<std::unique_ptr<RankVM>>;

void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Block until `a` no longer holds `old`: `spins` polls, then a futex
/// wait. Returns the new value.
uint32_t awaitChange(const std::atomic<uint32_t>& a, uint32_t old, int spins) {
  for (int i = 0; i < spins; ++i) {
    const uint32_t v = a.load(std::memory_order_acquire);
    if (v != old) return v;
    cpuRelax();
  }
  for (;;) {
    a.wait(old, std::memory_order_acquire);
    const uint32_t v = a.load(std::memory_order_acquire);
    if (v != old) return v;
  }
}

/// The persistent workers of the local phases. Lane k owns the ranks
/// [P·k/L, P·(k+1)/L) for the whole run; lane 0 is the calling thread,
/// the others are threads started once and parked on an epoch counter
/// between local phases. A local phase is one bump of that counter and
/// one wait on the `done_` count, so its fixed cost is at most two
/// futex wake-ups instead of a task queue round trip.
class Lanes {
 public:
  Lanes(Vms& vms, int threads)
      : vms_(vms),
        lanes_(static_cast<size_t>(
            std::clamp(threads, 1, std::max(1, static_cast<int>(vms.size()))))) {
    const size_t n = vms.size(), l = lanes_.size();
    // A spinning lane only helps when it has a core to itself: LU at
    // P=1024 on 8 lanes and 4 cores took 2.2 s spinning, 1.3 s not.
    if (l > std::max(1u, std::thread::hardware_concurrency())) spins_ = 0;
    for (size_t k = 0; k < l; ++k) {
      lanes_[k].begin = n * k / l;
      lanes_[k].end = n * (k + 1) / l;
    }
    workers_.reserve(l - 1);
    try {
      for (size_t k = 1; k < l; ++k)
        workers_.emplace_back([this, k] { workerLoop(k); });
    } catch (...) {
      stopWorkers();
      throw;
    }
  }

  ~Lanes() { stopWorkers(); }

  Lanes(const Lanes&) = delete;
  Lanes& operator=(const Lanes&) = delete;

  /// Run one local phase: every rank that is neither done nor parked on
  /// the engine runs its slice on its lane. Returns the instructions the
  /// phase retired. If slices threw, rethrows the error of the lowest
  /// failing rank — each lane stops at its first failure and lanes hold
  /// ascending rank ranges, so that is the first failing lane's error,
  /// the same one a sequential scan would have hit first.
  uint64_t localPhase() {
    done_.store(0, std::memory_order_relaxed);  // every lane is parked
    epoch_.fetch_add(1, std::memory_order_release);
    if (!workers_.empty()) epoch_.notify_all();
    runLane(lanes_[0]);
    const uint32_t others = static_cast<uint32_t>(workers_.size());
    for (uint32_t d = done_.load(std::memory_order_acquire); d != others;)
      d = awaitChange(done_, d, spins_);
    uint64_t retired = 0;
    for (Lane& lane : lanes_) {
      if (lane.error) std::rethrow_exception(lane.error);
      retired += lane.retired;
    }
    return retired;
  }

 private:
  struct alignas(64) Lane {
    size_t begin = 0, end = 0;
    uint64_t retired = 0;
    std::exception_ptr error;
  };

  void runLane(Lane& lane) {
    lane.retired = 0;
    try {
      for (size_t r = lane.begin; r < lane.end; ++r) {
        RankVM& v = *vms_[r];
        if (!v.finished() && !v.hasCommitWork()) lane.retired += v.runLocal();
      }
    } catch (...) {
      lane.error = std::current_exception();
    }
  }

  void stopWorkers() {
    stop_ = true;  // published by the release bump below
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (auto& t : workers_) t.join();
  }

  void workerLoop(size_t k) {
    uint32_t seen = 0;
    for (;;) {
      seen = awaitChange(epoch_, seen, spins_);
      if (stop_) return;
      runLane(lanes_[k]);
      done_.fetch_add(1, std::memory_order_release);
      done_.notify_one();
    }
  }

  Vms& vms_;
  std::vector<Lane> lanes_;
  std::atomic<uint32_t> epoch_{0};  // bumped once per local phase
  std::atomic<uint32_t> done_{0};   // workers finished with this phase
  bool stop_ = false;
  // Polls before a futex wait: about 80 µs on a 4-core Xeon, which
  // outlasts the commit phase of a narrow epoch (LU's take ~70 µs at
  // P=1024), so a lane usually catches the next phase without sleeping.
  // JACOBI's millisecond commits put the lanes to sleep instead.
  int spins_ = 4096;
  std::vector<std::thread> workers_;  // last: the threads use all of the above
};

std::vector<int> unfinishedRanks(const Vms& vms) {
  std::vector<int> active;
  for (const auto& v : vms)
    if (!v->finished()) active.push_back(v->rank());
  return active;
}

}  // namespace

RunResult run(const ir::Module& m, simmpi::Engine& engine,
              const std::vector<trace::Observer*>& observers,
              const RunOptions& opts) {
  const int numRanks = engine.numRanks();
  CYP_CHECK(static_cast<int>(observers.size()) == numRanks,
            "observers size " << observers.size() << " != ranks " << numRanks);

  Vms vms;
  vms.reserve(static_cast<size_t>(numRanks));
  for (int r = 0; r < numRanks; ++r) {
    vms.push_back(std::make_unique<RankVM>(m, r, engine,
                                           observers[static_cast<size_t>(r)]));
    vms.back()->setInstructionLimit(opts.instructionLimitPerRank);
  }

  RunResult out;
  // Every exit below, normal or not, drains the ranks' pending events
  // first, so each observer has seen every event its rank committed —
  // including a dead or stalled rank's last ones. (An error thrown from
  // a local phase leaves the observers where the run stopped.)
  auto drainAll = [&] {
    for (auto& v : vms) v->drainEvents();
  };
  {
    Lanes lanes(vms, opts.threads);
    engine.takeProgressFlag();  // reset
    int finishedCount = 0;
    while (finishedCount < numRanks) {
      // Cooperative cancellation: checked once per epoch, so the
      // watchdog latency is one epoch, and cancellation points are
      // deterministic with respect to the commit order (never
      // mid-commit).
      if (opts.cancel && opts.cancel->load(std::memory_order_relaxed)) {
        out.cancelled = true;
        out.stalledRanks = unfinishedRanks(vms);
        out.stallDiagnostics =
            engine.stallDump("run cancelled; active ranks:", out.stalledRanks);
        drainAll();
        if (opts.onStall == OnStall::Throw)
          throw Error("run cancelled\n" + out.stallDiagnostics);
        break;
      }
      // Phase 1 — parallel local slices on the persistent lanes. A rank
      // runs unless it is done or parked on the engine; its slice
      // drains its pending events, then runs to its next MPI call. The
      // lanes share no mutable state with each other.
      const uint64_t retired = lanes.localPhase();

      // Phase 2 — commit in ascending rank order on this thread. Every
      // cross-rank effect (matching, collectives, event completion,
      // journal flushes, finalization) happens here, so its order — and
      // therefore every emitted artifact — is independent of the thread
      // count. A rank only becomes fully finished here.
      bool commitProgress = false;
      for (auto& v : vms) {
        if (v->fullyFinished() || !v->hasCommitWork()) continue;
        if (v->commitStep()) commitProgress = true;
        if (v->fullyFinished()) ++finishedCount;
      }

      const bool progress =
          commitProgress || retired != 0 || engine.takeProgressFlag();
      if (!progress && finishedCount < numRanks) {
        // No rank executed an instruction, no commit advanced, and the
        // engine completed nothing: every remaining rank is permanently
        // stuck. Terminate deterministically.
        out.stalledRanks = unfinishedRanks(vms);
        drainAll();
        if (opts.onStall == OnStall::Throw) engine.failStalled(out.stalledRanks);
        out.stallDiagnostics =
            engine.stallDump("stalled ranks:", out.stalledRanks);
        break;
      }
    }
  }
  drainAll();

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
