// The simulated MPI engine: deterministic message matching, request
// objects, collectives, wildcard receives, per-rank virtual clocks.
//
// Collectives meet in the rendezvous that SIM-MPI replay uses too
// (simmpi/collective.hpp): an instance keeps the running max of its
// arrival clocks, not a per-rank arrival table. A collective call
// parks its rank as pending, like a blocked Recv or Wait; the last
// arrival finishes the instance and completes through the same path
// as every pending op, so a collective's event is built in one place.
//
// This is the repository's stand-in for a real MPI library underneath
// the PMPI layer. Ranks are driven by resumable VMs (see vm/): when an
// operation cannot complete, execute() returns Blocked and the rank's
// scheduler retries via poll() once other ranks make progress. All
// matching and completion orders are deterministic functions of the
// schedule, so whole-program runs are reproducible bit-for-bit.
//
// Threading contract (see vm/runner.cpp for the epoch scheduler): only
// addCompute() and drainEvents() touch nothing but the issuing rank's
// own RankState — its private jitter RNG and its deferred-event buffer
// — and may be called from the lane that owns the rank during a
// parallel local phase. Every other mutating entry point (execute,
// poll, finalizeRank, setObserver, deferEvents) reaches cross-rank
// state (message queues, collectives, the progress flag) or state the
// commit phase writes, and must be called from the single commit
// thread, in deterministic rank order.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "ir/ir.hpp"
#include "simmpi/collective.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/netmodel.hpp"
#include "support/rng.hpp"
#include "trace/observer.hpp"

namespace cypress::simmpi {

/// Failed: the issuing rank was killed by the fault plan; the rank is
/// dead and must not issue further operations.
enum class OpStatus : uint8_t { Complete, Blocked, Failed };

/// One MPI operation as issued by a rank (already-evaluated arguments).
struct OpDesc {
  ir::MpiOp op = ir::MpiOp::Barrier;
  int32_t peer = trace::kNoPeer;  // dst / src / root
  int64_t bytes = 0;
  int32_t tag = 0;
  int32_t comm = 0;
  int32_t callSiteId = -1;
  int64_t waitReqId = -1;  // Wait: the request handle to complete
  int32_t color = 0;       // CommSplit
  int32_t key = 0;         // CommSplit
};

class Engine {
 public:
  struct Config {
    int numRanks = 1;
    LogGP net = LogGP::infiniband();
    /// Deterministic per-event jitter applied to compute/transfer times,
    /// as a fraction (0.1 = ±10%). Makes time statistics non-degenerate.
    double jitter = 0.05;
    uint64_t seed = 42;
    /// Deterministic fault injection (see fault.hpp). Empty = no faults.
    FaultPlan faults;
  };

  explicit Engine(const Config& cfg);

  int numRanks() const { return static_cast<int>(ranks_.size()); }

  /// Attach the rank's commit-thread observer (may be null). It gets
  /// each event inside execute()/poll() and onFinalize() inside
  /// finalizeRank(), on the commit thread in rank order — what an
  /// observer that writes shared state (a JournalRecorder flushing into
  /// its JournalBuilder) needs. It sees no structure or call markers.
  void setObserver(int rank, trace::Observer* obs);

  /// Also keep the rank's events in a per-rank buffer, in emission
  /// order, for the rank's private observer (the VM's, see vm/vm.hpp),
  /// which takes them with drainEvents() off the commit thread.
  void deferEvents(int rank);

  /// Hand the rank's buffered events to `obs` in emission order and
  /// empty the buffer. Touches only the rank's own buffer.
  void drainEvents(int rank, trace::Observer& obs);

  /// Issue an operation for `rank`. On Complete the event has been
  /// delivered to the commit-thread observer and, under deferEvents(),
  /// appended to the rank's buffer. On Blocked the engine remembers the
  /// pending condition; the caller must call poll() until it reports
  /// completion before issuing another operation for this rank.
  /// For Isend/Irecv, *reqIdOut receives the request handle.
  OpStatus execute(int rank, const OpDesc& d, int64_t* reqIdOut = nullptr);

  /// Re-check a blocked rank. Returns Complete exactly once per blocked
  /// operation (after which the rank may proceed).
  OpStatus poll(int rank);

  /// Result of the last completed handle-producing op (CommSplit): valid
  /// after execute()/poll() returned Complete for it.
  int64_t takeOpResult(int rank);

  /// Members (world ranks) of a communicator; comm 0 is MPI_COMM_WORLD.
  const std::vector<int>& commMembers(int comm) const;

  /// Account local computation time (advances the rank's clock).
  void addCompute(int rank, uint64_t ns);

  /// Mark a rank finished (MPI_Finalize): calls the commit-thread
  /// observer's onFinalize(). The rank's buffered events are left to
  /// its private observer's owner.
  void finalizeRank(int rank);

  /// Measured virtual time of a rank.
  uint64_t clockNs(int rank) const { return ranks_[static_cast<size_t>(rank)].clock; }

  /// Max clock across ranks = measured program execution time.
  uint64_t executionTimeNs() const;

  /// Total time ranks spent inside communication ops (for the
  /// communication-percentage analysis of Fig. 21).
  uint64_t commTimeNs(int rank) const {
    return ranks_[static_cast<size_t>(rank)].commTime;
  }

  /// Trace events emitted for a rank so far — exactly the events its
  /// observers receive once its buffer is drained, counted whether or
  /// not an observer is attached.
  uint64_t eventCount(int rank) const { return rs(rank).events; }

  /// True when some operation completed since the last call (used by the
  /// scheduler's deadlock detection).
  bool takeProgressFlag();

  /// Ranks killed so far, ascending.
  std::vector<int> deadRanks() const;
  /// Number of MPI calls the rank has issued (the killing call included).
  uint64_t mpiCallCount(int rank) const { return rs(rank).mpiCalls; }

  /// Structured snapshot of one rank's state for failure diagnostics.
  struct RankDiagnostic {
    enum class State : uint8_t { Runnable, Blocked, Dead, Finalized };
    int rank = 0;
    State state = State::Runnable;
    std::string op;          ///< pending (or killing) MPI op, empty if none
    int32_t peer = -2;       ///< src/dst/root of the pending op
    int32_t tag = -1;
    int32_t comm = 0;
    int64_t seq = -1;        ///< collective sequence / request index
    uint64_t callIndex = 0;  ///< MPI calls issued by this rank so far
    std::string detail;      ///< root-cause analysis, e.g. "peer is dead"
    std::string toString() const;
  };
  RankDiagnostic diagnose(int rank) const;

  /// Per-rank diagnostic dump of every rank in `active` (world ranks that
  /// have not finished executing), preceded by `reason`. This is the
  /// payload of the structured hang/deadlock error.
  std::string stallDump(const std::string& reason,
                        const std::vector<int>& active) const;

  /// Terminate a stalled run deterministically: throws cypress::Error
  /// carrying stallDump(). Never returns.
  [[noreturn]] void failStalled(const std::vector<int>& active) const;

 private:
  struct Request {
    ir::MpiOp kind = ir::MpiOp::Isend;
    int32_t peer = 0;  // dst for isend, src (or ANY) for irecv
    int64_t bytes = 0;
    int32_t tag = 0;
    int32_t comm = 0;
    int32_t postSite = -1;
    bool complete = false;
    bool consumed = false;
    int32_t matchedSource = -1;
    uint64_t completeNs = 0;
  };

  /// One rank's requests, addressed by handle: a per-rank sequence
  /// number, which is also the reqId the trace records. A request that
  /// is both complete and consumed (waited on, or a finished blocking
  /// Recv) is retired. Adding a request first drops the retired prefix
  /// of the table, so its size follows the requests in flight (from the
  /// oldest unfinished one on) instead of growing by one entry per
  /// receive for the whole run.
  class RequestTable {
   public:
    /// Append a request; returns its handle.
    int64_t add(const Request& req);
    Request& operator[](int64_t id) { return live_[slot(id)]; }
    const Request& operator[](int64_t id) const { return live_[slot(id)]; }
    /// Every handle issued so far lies in [0, end()).
    int64_t end() const { return base_ + static_cast<int64_t>(live_.size()); }
    /// Handle of live().front(); smaller handles are retired.
    int64_t base() const { return base_; }
    const std::vector<Request>& live() const { return live_; }

   private:
    size_t slot(int64_t id) const { return static_cast<size_t>(id - base_); }

    std::vector<Request> live_;
    int64_t base_ = 0;
  };

  struct Message {
    int32_t src, dst, tag, comm;
    int64_t bytes;
    uint64_t arrivalNs;
    uint64_t seq;
  };

  enum class PendingKind : uint8_t {
    None, Recv, Wait, Waitall, Waitany, Waitsome, Collective
  };

  struct PendingOp {
    PendingKind kind = PendingKind::None;
    OpDesc desc;
    int64_t reqIdx = -1;       // Recv/Wait: request being completed
    uint64_t blockStartNs = 0; // when the rank started waiting
  };

  struct RankState {
    uint64_t clock = 0;
    uint64_t commTime = 0;
    uint64_t events = 0;        // trace events emitted
    uint64_t computeAccum = 0;  // compute since previous event
    Rng rng{0};                 // per-rank jitter stream (thread-isolated)
    RequestTable requests;
    std::vector<int64_t> outstanding;    // non-blocking requests not yet waited
    std::deque<Message> unexpected;      // arrived, unmatched messages
    std::vector<int64_t> pendingRecvs;   // posted, unmatched recv requests
    // Collective calls made per comm: the rank has arrived at instance
    // (comm, seq) iff collSeq[comm] > seq (see collective.hpp).
    std::vector<int> collSeq;
    PendingOp pending;
    trace::Observer* observer = nullptr;  // commit-thread observer
    bool deferring = false;               // buffer events in `deferred`
    std::vector<trace::Event> deferred;   // emitted, not yet drained
    uint64_t msgSeq = 0;
    int64_t opResult = -1;  // CommSplit result handle
    bool finalized = false;
    bool dead = false;         // killed by the fault plan
    OpDesc deathDesc;          // the call the rank died entering
    uint64_t mpiCalls = 0;     // execute() invocations (fault ordinals)
    uint64_t collCalls = 0;    // collective calls (AbortCollective ordinals)
    uint64_t sendsIssued = 0;  // p2p messages sent (Drop/Delay ordinals)
  };

  RankState& rs(int rank) { return ranks_[static_cast<size_t>(rank)]; }
  const RankState& rs(int rank) const { return ranks_[static_cast<size_t>(rank)]; }

  uint64_t jittered(uint64_t ns, int rank);

  /// The request of point-to-point call `d`, before it completes.
  static Request requestOf(const OpDesc& d);
  /// The trace event of point-to-point op `op` issued at `callSite` on
  /// request `q`. A receive completion (Recv, Wait, Waitany, Waitsome)
  /// records a wildcard's matched source; a Wait* also records the
  /// posting site as its reqId (the paper's request->GID mapping).
  static trace::Event requestEvent(ir::MpiOp op, const Request& q,
                                   int32_t callSite);
  void emit(int rank, trace::Event e, uint64_t durationNs);

  /// Try to match a posted receive request against unexpected messages.
  bool tryMatchRecv(int rank, int64_t reqIdx);
  void deliver(const Message& m);
  bool matches(const Request& r, const Message& m) const;
  void checkTruncation(const Request& r, const Message& m) const;

  OpStatus handleCollective(int rank, const OpDesc& d);
  bool pendingSatisfied(int rank);
  void completePending(int rank);

  /// Fault-plan check at the top of execute(): returns true when the
  /// plan kills `rank` at this call (the rank is marked dead).
  bool maybeKill(int rank, const OpDesc& d);

  /// Deliver `m`, applying any drop/delay fault keyed to this sender's
  /// current send ordinal.
  void injectSendFaults(int rank, Message m);

  /// Form the communicators of a finished CommSplit and record each
  /// member's handle in its SplitArrival.
  void completeSplit(Collective& c);

  std::vector<RankState> ranks_;
  std::vector<std::vector<int>> comms_;  // comm id -> member world ranks
  LogGP net_;
  double jitter_;
  FaultPlan faults_;
  Rendezvous rendezvous_;
  bool progress_ = false;
};

}  // namespace cypress::simmpi
