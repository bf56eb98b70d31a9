// CTT leaf payloads: merged communication records.
//
// A CommRecord is one run of identical communication operations at one
// CST leaf (paper §IV-A, "communication vertex compression"): the
// canonical parameters, a repeat count, relative-encoded peers (the
// paper's relative ranking method, §IV-B), per-event wildcard match
// sources (kept losslessly as a stride sequence), and the two supported
// time representations (mean/stddev and histogram).
#pragma once

#include <cstdint>

#include "ir/ir.hpp"
#include "support/bytebuf.hpp"
#include "support/section_seq.hpp"
#include "support/stats.hpp"
#include "trace/event.hpp"

namespace cypress::core {

/// How a peer rank is stored inside compressed records.
struct PeerRef {
  enum class Kind : uint8_t { None, Any, Absolute, Relative };
  Kind kind = Kind::None;
  int32_t value = 0;  // Absolute: rank; Relative: peer - myRank

  /// Encode an event peer for `myRank`. Point-to-point peers use the
  /// relative encoding so that identical patterns merge across ranks;
  /// collective roots stay absolute (they are the same for every rank).
  static PeerRef encode(ir::MpiOp op, int32_t peer, int32_t myRank) {
    if (peer == trace::kNoPeer) return {Kind::None, 0};
    if (peer == trace::kAnySource) return {Kind::Any, 0};
    if (op == ir::MpiOp::Bcast || op == ir::MpiOp::Reduce ||
        op == ir::MpiOp::Gather || op == ir::MpiOp::Scatter) {
      return {Kind::Absolute, peer};
    }
    return {Kind::Relative, peer - myRank};
  }

  int32_t decode(int32_t myRank) const {
    switch (kind) {
      case Kind::None: return trace::kNoPeer;
      case Kind::Any: return trace::kAnySource;
      case Kind::Absolute: return value;
      case Kind::Relative: return myRank + value;
    }
    return trace::kNoPeer;
  }

  bool operator==(const PeerRef&) const = default;

  void serialize(ByteWriter& w) const {
    w.u8(static_cast<uint8_t>(kind));
    w.sv(value);
  }
  static PeerRef deserialize(ByteReader& r) {
    PeerRef p;
    const uint8_t kind = r.u8();
    CYP_CHECK(kind <= static_cast<uint8_t>(Kind::Relative),
              "bad peer-ref kind " << int(kind));
    p.kind = static_cast<Kind>(kind);
    p.value = static_cast<int32_t>(r.sv());
    return p;
  }
};

/// Time recording mode (paper §IV-A supports both).
enum class TimeMode : uint8_t { MeanStddev, Histogram };

/// The whole-nanosecond time every expanded event of a record carries:
/// the mean, truncated. The mean is read unchecked from the file, so a
/// non-finite, negative or >= 2^64 value (never written by a recorder)
/// is rejected rather than cast.
inline uint64_t eventNs(const RunningStats& s) {
  const double m = s.mean();
  CYP_CHECK(m >= 0.0 && m < 18446744073709551616.0,
            "comm record: bad mean time " << m);
  return static_cast<uint64_t>(m);
}

struct CommRecord {
  ir::MpiOp op = ir::MpiOp::Barrier;
  PeerRef peer;
  int64_t bytes = 0;
  int32_t tag = -1;
  int32_t comm = 0;
  int32_t callSiteId = -1;
  int64_t reqSite = -1;  // Wait/Waitany: posting call site (request->GID map)
  uint64_t count = 0;

  /// Occurrence ordinals (0-based, per leaf vertex) at which this
  /// parameter tuple fired, stride-compressed exactly like branch
  /// outcomes. A leaf whose parameters never change has one record with
  /// ordinals <0, n-1, 1>; loop-carried parameter cycles (e.g. butterfly
  /// peers) split into a few records with strided ordinal sets. This is
  /// the paper's "larger sliding window" refinement of last-record
  /// matching (§IV-A).
  SectionSeq ordinals;

  /// Wildcard receives: matched source per event, relative-encoded
  /// (source - myRank), kept losslessly. Empty when no wildcard.
  SectionSeq matchedSources;

  RunningStats duration;
  RunningStats compute;
  LogHistogram durationHist;  // populated in TimeMode::Histogram only

  /// True when `e` (from `myRank`) has the same communication content
  /// and can be folded into this record.
  bool matches(const trace::Event& e, int32_t myRank) const {
    return op == e.op && bytes == e.bytes && tag == e.tag && comm == e.comm &&
           callSiteId == e.callSiteId && reqSite == e.reqId &&
           peer == PeerRef::encode(e.op, e.peer, myRank);
  }

  static CommRecord fromEvent(const trace::Event& e, int32_t myRank) {
    CommRecord r;
    r.op = e.op;
    r.peer = PeerRef::encode(e.op, e.peer, myRank);
    r.bytes = e.bytes;
    r.tag = e.tag;
    r.comm = e.comm;
    r.callSiteId = e.callSiteId;
    r.reqSite = e.reqId;
    return r;
  }

  void absorb(const trace::Event& e, int32_t myRank, TimeMode mode,
              uint64_t occurrenceOrdinal) {
    ++count;
    ordinals.append(static_cast<int64_t>(occurrenceOrdinal));
    if (e.matchedSource >= 0) matchedSources.append(e.matchedSource - myRank);
    duration.add(static_cast<double>(e.durationNs));
    compute.add(static_cast<double>(e.computeNs));
    if (mode == TimeMode::Histogram)
      durationHist.add(static_cast<double>(e.durationNs));
  }

  /// Content equality ignoring time statistics — the inter-process merge
  /// criterion.
  bool sameContent(const CommRecord& o) const {
    return op == o.op && peer == o.peer && bytes == o.bytes && tag == o.tag &&
           comm == o.comm && callSiteId == o.callSiteId && reqSite == o.reqSite &&
           count == o.count && ordinals == o.ordinals &&
           matchedSources == o.matchedSources;
  }

  /// Pool the other record's time statistics into this one.
  void mergeStats(const CommRecord& o) {
    duration.merge(o.duration);
    compute.merge(o.compute);
    durationHist.merge(o.durationHist);
  }

  void serialize(ByteWriter& w) const {
    w.u8(static_cast<uint8_t>(op));
    peer.serialize(w);
    w.sv(bytes);
    w.sv(tag);
    w.sv(comm);
    w.sv(callSiteId);
    w.sv(reqSite);
    w.uv(count);
    ordinals.serialize(w);
    matchedSources.serialize(w);
    duration.serialize(w);
    compute.serialize(w);
    durationHist.serialize(w);
  }

  /// Minimum serialized size of one record: op byte, 2-byte PeerRef,
  /// five 1-byte varints, 1-byte count, two 1-byte empty sequences, two
  /// 1-byte empty stats, 2-byte empty histogram. Used by callers to
  /// validate record-count prefixes.
  static constexpr size_t kMinSerializedBytes = 15;

  static CommRecord deserialize(ByteReader& r) {
    CommRecord c;
    const uint8_t op = r.u8();
    CYP_CHECK(ir::isValidMpiOp(op), "comm record: bad op byte " << int(op));
    c.op = static_cast<ir::MpiOp>(op);
    c.peer = PeerRef::deserialize(r);
    c.bytes = r.sv();
    c.tag = static_cast<int32_t>(r.sv());
    c.comm = static_cast<int32_t>(r.sv());
    c.callSiteId = static_cast<int32_t>(r.sv());
    c.reqSite = r.sv();
    c.count = r.uv();
    c.ordinals = SectionSeq::deserialize(r);
    c.matchedSources = SectionSeq::deserialize(r);
    c.duration = RunningStats::deserialize(r);
    c.compute = RunningStats::deserialize(r);
    c.durationHist = LogHistogram::deserialize(r);
    return c;
  }

  size_t memoryBytes() const {
    return sizeof(*this) + matchedSources.memoryBytes() - sizeof(SectionSeq) +
           ordinals.memoryBytes() - sizeof(SectionSeq) +
           durationHist.memoryBytes() - sizeof(LogHistogram);
  }
};

}  // namespace cypress::core
