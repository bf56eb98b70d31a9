// Trace statistics: the summaries performance analysts ask of a
// communication trace (per-op counts and volumes, message-size
// distribution, point-to-point vs collective split, per-rank balance).
// `cyptrace stats` fills TraceStats in the compressed domain
// (query::traceStats); computeStats scans expanded events and is the
// decompress-then-scan oracle that answer is tested against. Both print
// through the same toString().
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "trace/event.hpp"

namespace cypress::trace {

struct OpStats {
  uint64_t count = 0;
  uint64_t bytes = 0;
  uint64_t durationNs = 0;

  bool operator==(const OpStats&) const = default;
};

struct TraceStats {
  uint64_t totalEvents = 0;
  uint64_t p2pMessages = 0;    // sends (blocking + non-blocking)
  uint64_t p2pBytes = 0;
  uint64_t collectiveCalls = 0;
  uint64_t computeNs = 0;
  uint64_t commNs = 0;

  std::map<ir::MpiOp, OpStats> byOp;
  std::map<int64_t, uint64_t> messageSizes;  // p2p send size -> count

  // Per-rank balance.
  uint64_t minRankEvents = 0;
  uint64_t maxRankEvents = 0;
  double avgRankEvents = 0.0;

  std::string toString() const;
  bool operator==(const TraceStats&) const = default;
};

TraceStats computeStats(const RawTrace& t);

}  // namespace cypress::trace
