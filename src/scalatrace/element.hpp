// ScalaTrace-style compressed trace elements: events and regular section
// descriptors (RSDs).
//
// This module reimplements the published algorithmic skeleton of the two
// dynamic baselines the paper compares against:
//   - ScalaTrace (Noeth et al., IPDPS'07): greedy bottom-up loop
//     compression over the event stream; an RSD is (member list,
//     iteration count), and nested RSDs form power-RSDs.
//   - ScalaTrace-2 (Wu & Mueller, ICS'13): "elastic" value aggregation —
//     events with the same operation/call site fold even when their
//     parameters differ, the parameter values being collected into
//     stride-compressed sequences.
//
// One Element type serves both flavors: every parameter is a SectionSeq
// holding the per-occurrence values in chronological order. Under the V1
// matching rule two elements are equal only if their parameter values
// are constant and identical; under V2 they match on (op, call site,
// comm, peer kind) alone.
#pragma once

#include <cstdint>
#include <vector>

#include "cypress/record.hpp"  // PeerRef
#include "support/section_seq.hpp"
#include "support/stats.hpp"
#include "trace/event.hpp"

namespace cypress::scalatrace {

using core::PeerRef;

enum class Flavor : uint8_t { V1, V2 };

/// STR1 / STM1 version, written after the magic. Version 2: elements
/// carry exact integer time statistics (RunningStats).
inline constexpr uint64_t kFormatVersion = 2;

struct Element {
  bool isRsd = false;

  // --- event payload ---
  ir::MpiOp op = ir::MpiOp::Barrier;
  int32_t callSiteId = -1;
  int32_t comm = 0;
  PeerRef::Kind peerKind = PeerRef::Kind::None;
  // Per-occurrence values (relative-encoded peers; kNoPeer omitted).
  SectionSeq peerVals, bytesVals, tagVals, reqSiteVals;
  SectionSeq matchedVals;  // wildcard matches only, relative-encoded
  uint64_t occurrences = 0;
  RunningStats duration, compute;

  // --- RSD payload ---
  std::vector<Element> members;
  /// Iteration counts per visit of this RSD (a PRSD iteration vector):
  /// a top-level RSD is visited once; an RSD nested as a member is
  /// visited once per parent iteration. `openCount` is the count of the
  /// still-growing latest visit; normalize() flushes it.
  SectionSeq closedVisits;
  uint64_t openCount = 0;

  static Element fromEvent(const trace::Event& e, int32_t myRank);

  /// Flush the open visit into closedVisits (recursively).
  void normalize();

  /// Flush only this RSD's open visit (non-recursive).
  void normalizeSelfVisits();

  /// Flavor-dependent foldability test (recursive for RSDs).
  bool canFold(const Element& later, Flavor flavor) const;

  /// Absorb `later` (which chronologically follows this element). For
  /// RSDs this is the member-fold: visit vectors concatenate.
  void fold(Element&& later);

  /// Total number of raw events this element represents.
  uint64_t eventCount() const;

  /// Strict content equality (including all value sequences): the V1
  /// inter-process merge criterion.
  bool sameContent(const Element& o) const;

  void mergeStats(const Element& o);

  void serialize(ByteWriter& w) const;
  static Element deserialize(ByteReader& r);

  size_t memoryBytes() const;
};

/// Expand a compressed element list back into the raw event sequence
/// (timing filled from means). Exact for V1 and for per-rank V2 data.
std::vector<trace::Event> expandElements(const std::vector<Element>& elems,
                                         int32_t myRank);

}  // namespace cypress::scalatrace
