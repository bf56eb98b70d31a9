// The collective rendezvous: one arrival rule for the simulated MPI
// engine (simmpi::Engine, the tracing run) and SIM-MPI replay
// (replay::Sim), which price a collective under the same LogGP model.
//
// A collective call is an instance addressed by (comm, seq): seq counts
// the collective calls each member has made on comm, so the k-th call
// of every member meets in the same instance. An instance keeps the
// arrival count and the running max of the arrival clocks — nothing
// sized by the world or the communicator, except that a CommSplit keeps
// one (member, color) entry per arrival. The last arrival finishes
// it at maxArrival + cost. Each member then consumes it once, and an
// instance that is done and consumed by every member is popped from the
// front of its communicator's queue, so a run keeps O(live collectives)
// state however many collectives it calls.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "ir/ir.hpp"
#include "simmpi/netmodel.hpp"

namespace cypress::simmpi {

/// One member's CommSplit call. `result` is the handle of the
/// communicator the member joins, -1 for none (a negative color). The
/// key is not kept: a new communicator lists its members in world-rank
/// order.
struct SplitArrival {
  int32_t member = 0;  // world rank
  int32_t color = 0;
  int32_t result = -1;
};

struct Collective {
  /// Which argument of a later arrival disagrees with the first one.
  enum class Mismatch : uint8_t { None, Op, Bytes, Root };

  ir::MpiOp op = ir::MpiOp::Barrier;
  int64_t bytes = 0;
  int32_t root = -1;
  int arrived = 0;
  int consumed = 0;  // members whose call has completed
  bool done = false;
  uint64_t maxArrival = 0;  // running max of the arrival clocks
  uint64_t finishNs = 0;
  std::vector<SplitArrival> split;  // CommSplit only: one per arrival

  /// Register one member's arrival at `clock`. The first arrival defines
  /// the call; a later one must agree on the op and, except for a
  /// CommSplit, on the size and root. On a mismatch nothing is recorded
  /// and the caller reports it.
  Mismatch arrive(ir::MpiOp callOp, int64_t callBytes, int32_t callRoot,
                  uint64_t clock);

  /// LogGP cost once all `members` have arrived; a CommSplit costs a
  /// barrier.
  uint64_t cost(const LogGP& net, int members) const {
    const ir::MpiOp costOp =
        op == ir::MpiOp::CommSplit ? ir::MpiOp::Barrier : op;
    return net.collectiveCost(costOp, bytes, members);
  }

  /// Complete the instance `cost` after its last arrival.
  void finish(uint64_t cost) {
    finishNs = maxArrival + cost;
    done = true;
  }
};

/// The live collective instances of every communicator.
class Rendezvous {
 public:
  /// Instance (comm, seq), created empty on first use.
  Collective& at(int comm, int seq);

  /// One member's call on (comm, seq) completed: pop the done, fully
  /// consumed instances at the front of comm's queue.
  void consume(int comm, int seq);

 private:
  struct Queue {
    std::deque<Collective> live;  // live[i] is instance base + i
    int base = 0;
  };
  std::map<int, Queue> comms_;
};

}  // namespace cypress::simmpi
