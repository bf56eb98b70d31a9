// SIM-MPI: the trace-driven performance simulator (paper §V, Fig. 14).
//
// Replays per-rank event sequences under the LogGP model: point-to-point
// operations are matched through FIFO channels keyed by
// (src, dst, tag, comm); collectives are decomposed into p2p trees via
// the same cost model as the engine; local computation uses the
// recorded per-event compute times. Because CYPRESS decompression is
// sequence-preserving (including wildcard match sources), the replay is
// fully deterministic.
//
// The simulator only ever inspects each rank's *current* event, so it
// consumes an event-at-a-time source rather than materialized vectors:
// the MergedCtt overloads drive it straight off the compressed trace
// through core::CompressedCursor — per-rank memory is the cursor
// state (laid out per CST vertex kind, see cypress/decompress.hpp),
// not the decompressed event vector.
//
// The rest of the live state is kept small and contiguous, because the
// sweep visits every rank in turn:
//   - p2p channels live in one flat table: an open-addressing index
//     from (src, dst, tag, comm) into a vector of channels, each a
//     queue of message avail times that is reset when it drains;
//   - collectives meet in the rendezvous the simulated MPI engine uses
//     (simmpi/collective.hpp): an instance holds O(1) state (arrival
//     count, running max of arrival clocks, finish time) and is dropped
//     once every member has consumed it. Only the cost differs: replay
//     prices it without the engine's jitter.
//
// Waitall events carry no matched sources, so a wildcard receive
// completed by a Waitall is resolved heuristically: to the lowest
// source whose channel still has a message not claimed by an earlier
// request of the same Waitall.
#pragma once

#include <cstdint>
#include <vector>

#include "simmpi/netmodel.hpp"
#include "trace/event.hpp"

namespace cypress::core {
class MergedCtt;
}

namespace cypress::replay {

struct Prediction {
  uint64_t predictedNs = 0;            // max rank finish time
  std::vector<uint64_t> rankClockNs;   // per-rank finish times
  std::vector<uint64_t> rankCommNs;    // per-rank time inside MPI ops
  uint64_t totalEvents = 0;

  /// Average fraction of time ranks spend communicating.
  double commPercent() const;
};

/// Simulate a full program trace. Throws cypress::Error on malformed
/// traces (unmatched receives, deadlock, collective mismatch).
Prediction simulate(const trace::RawTrace& t,
                    const simmpi::LogGP& net = simmpi::LogGP::infiniband());

/// Simulate directly from the compressed trace: each rank streams its
/// events through a CompressedCursor, so peak memory is the cursor
/// state, not numRanks full event vectors. Identical prediction to
/// simulate(decompressAll(m, ...), net). Throws cypress::Error when the
/// trace has lost ranks or non-contiguous coverage (a partial trace
/// cannot satisfy its own collectives).
Prediction simulate(const core::MergedCtt& m,
                    const simmpi::LogGP& net = simmpi::LogGP::infiniband());

/// Timed replay: instead of modeling the network, advance each rank by
/// its recorded per-event times (compute + operation duration). This is
/// the delta-time replay style of Ratn et al. (paper §VIII) — cheap,
/// no matching, and a useful cross-check against the LogGP model.
Prediction simulateRecordedTimes(const trace::RawTrace& t);

/// Compressed-domain timed replay: the per-rank sums are computed from
/// CommRecord repeat counts in O(compressed size). Equals
/// simulateRecordedTimes(decompressAll(m, ...)) exactly, because every
/// decompressed event of a record carries the record's truncated mean
/// times.
Prediction simulateRecordedTimes(const core::MergedCtt& m);

}  // namespace cypress::replay
