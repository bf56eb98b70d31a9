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
    duration.add(e.durationNs);
    compute.add(e.computeNs);
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
    serializeContent(w);
    serializeTimes(w);
  }

  /// The fields sameContent compares; a merged trace writes them once
  /// for all timing classes of one content (see MergedCtt).
  void serializeContent(ByteWriter& w) const {
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
  }

  /// The fields mergeStats pools.
  void serializeTimes(ByteWriter& w) const {
    duration.serialize(w);
    compute.serialize(w);
    durationHist.serialize(w);
  }

  /// Minimum serialized size of a record's content (op byte, 2-byte
  /// PeerRef, five 1-byte varints, 1-byte count, two 1-byte empty
  /// sequences) and of a whole record (two 1-byte empty stats and a
  /// 2-byte empty histogram more), for validating record-count prefixes.
  static constexpr size_t kMinContentBytes = 11;
  static constexpr size_t kMinSerializedBytes = kMinContentBytes + 4;

  static CommRecord deserialize(ByteReader& r) {
    CommRecord c = deserializeContent(r);
    c.deserializeTimes(r);
    return c;
  }

  static CommRecord deserializeContent(ByteReader& r) {
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
    return c;
  }

  void deserializeTimes(ByteReader& r) {
    duration = RunningStats::deserialize(r);
    compute = RunningStats::deserialize(r);
    durationHist = LogHistogram::deserialize(r);
  }

  size_t memoryBytes() const {
    return sizeof(*this) + matchedSources.memoryBytes() - sizeof(SectionSeq) +
           ordinals.memoryBytes() - sizeof(SectionSeq) +
           durationHist.memoryBytes() - sizeof(LogHistogram);
  }
};

}  // namespace cypress::core
