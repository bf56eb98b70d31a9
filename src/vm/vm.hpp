// Resumable per-rank interpreter for the cypress IR.
//
// Each simulated MPI process is one RankVM, driven by the epoch
// scheduler in runner.cpp in two alternating phases:
//
//   - runLocal() executes instructions up to (but not including) the
//     next MPI call, evaluating that call's arguments into a prepared
//     OpDesc. It touches only this rank's own state — frames, the
//     rank's observer, the engine's rank-local compute accounting and
//     the rank's deferred-event buffer — so local phases of different
//     ranks may run on different lanes concurrently.
//   - commitStep() performs the rank's parked engine interaction
//     (issue the prepared MPI call, poll a blocked one, or finalize a
//     finished rank). Commits mutate cross-rank engine state and must
//     run on a single thread, in deterministic rank order.
//
// The VM's observer is rank-private: every hook it receives runs on
// the thread that owns the rank at that moment. Structure markers and
// user-function call boundaries are emitted from runLocal(). MPI events
// complete at commit, where the engine appends them to the rank's
// pending buffer (Engine::deferEvents); the VM drains that buffer into
// the observer at the start of the rank's next runLocal(), before
// onFinalize() at commit, and on drainEvents() (which vm::run calls for
// every rank when it returns, so a dead or stalled rank's last events
// still arrive). A rank's hook order is therefore the same as if events
// were delivered at commit; only the thread they run on changes. An
// observer that writes shared state (a JournalRecorder) is instead
// attached with Engine::setObserver and receives events on the commit
// thread.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/ir.hpp"
#include "simmpi/engine.hpp"
#include "trace/observer.hpp"

namespace cypress::vm {

class RankVM {
 public:
  /// `observer` may be null (no tracing); it receives this rank's hooks,
  /// MPI events included, off the commit thread (see above). The module
  /// must outlive the VM.
  RankVM(const ir::Module& m, int rank, simmpi::Engine& engine,
         trace::Observer* observer);

  /// Hand the events committed since the last slice to the observer,
  /// then execute instructions until the next MPI call, a block, or
  /// program end. Returns the instructions retired. Safe to run
  /// concurrently with other ranks' local phases; never touches
  /// cross-rank engine state. A rank that is waiting, parked or
  /// finished only has its events drained and retires nothing.
  uint64_t runLocal();

  /// True when the rank has a commit-phase action pending (a prepared
  /// MPI call, a blocked op to poll, or a deferred finalize).
  bool hasCommitWork() const {
    return atMpi_ || waitingOnEngine_ || needsFinalize_;
  }

  /// Perform the rank's pending engine interaction on the commit thread.
  /// Returns true when the rank's state advanced: an op was issued (even
  /// if it then blocked), a blocked op completed, or the rank finalized.
  /// A poll that stays Blocked returns false.
  bool commitStep();

  /// Fully finished: the program ended AND the deferred finalize (or
  /// death) has been committed. Such a rank needs no further phases.
  bool fullyFinished() const { return finished_ && !needsFinalize_; }

  bool finished() const { return finished_; }
  /// True when the fault plan killed this rank mid-program. The VM is
  /// finished() but the frame stack was abandoned and the observer was
  /// never finalized — the rank's trace ends mid-stream, like a crash.
  bool died() const { return died_; }
  int rank() const { return rank_; }
  uint64_t instructionsExecuted() const { return instructions_; }

  /// Deliver the events committed since the last drain to the observer.
  /// Call only from the thread that owns the rank.
  void drainEvents();

  /// Abort guard: throw if a rank executes more than this many
  /// instructions (runaway-loop detection in tests and benches).
  void setInstructionLimit(uint64_t limit) { instructionLimit_ = limit; }

 private:
  struct Frame {
    const ir::Function* fn = nullptr;
    int block = 0;
    size_t instr = 0;
    std::vector<int64_t> vars;
  };

  const ir::Instr* currentInstr() const;
  bool executeInstr(const ir::Instr& i);  // non-MPI instructions only
  simmpi::OpDesc buildOpDesc(const ir::Instr& i) const;
  void executeTerminator();
  void pushFrame(const ir::Function* fn, std::vector<int64_t> args);
  void popFrame();
  int64_t eval(const ir::Expr& e) const;
  void countInstr();

  const ir::Module& module_;
  int rank_;
  simmpi::Engine& engine_;
  trace::Observer* observer_;
  std::vector<Frame> frames_;
  simmpi::OpDesc pendingDesc_;    // valid while atMpi_
  bool atMpi_ = false;            // parked at an MPI call, not yet issued
  bool waitingOnEngine_ = false;  // issued and blocked, polled at commit
  bool needsFinalize_ = false;    // program ended; finalize at commit
  bool finished_ = false;
  bool died_ = false;
  uint64_t instructions_ = 0;
  uint64_t instructionLimit_ = 1ull << 40;
};

}  // namespace cypress::vm
