#include "scalatrace/element.hpp"

#include <map>

#include "support/error.hpp"

namespace cypress::scalatrace {

namespace {

/// Both sequences constant with the same value (or both empty): the V1
/// "identical parameters" test.
bool constEq(const SectionSeq& a, const SectionSeq& b) {
  if (a.empty() || b.empty()) return a.empty() && b.empty();
  const int64_t va = a.at(0);
  return a.isConstant(va) && b.isConstant(va);
}

void appendAll(SectionSeq& dst, const SectionSeq& src) {
  for (const Section& s : src.sections()) dst.appendSection(s);
}

}  // namespace

Element Element::fromEvent(const trace::Event& e, int32_t myRank) {
  Element el;
  el.op = e.op;
  el.callSiteId = e.callSiteId;
  el.comm = e.comm;
  const PeerRef pr = PeerRef::encode(e.op, e.peer, myRank);
  el.peerKind = pr.kind;
  if (pr.kind == PeerRef::Kind::Absolute || pr.kind == PeerRef::Kind::Relative)
    el.peerVals.append(pr.value);
  el.bytesVals.append(e.bytes);
  el.tagVals.append(e.tag);
  el.reqSiteVals.append(e.reqId);
  if (e.matchedSource >= 0) el.matchedVals.append(e.matchedSource - myRank);
  el.occurrences = 1;
  el.duration.add(e.durationNs);
  el.compute.add(e.computeNs);
  return el;
}

void Element::normalize() {
  if (isRsd) {
    if (openCount > 0) {
      closedVisits.append(static_cast<int64_t>(openCount));
      openCount = 0;
    }
    for (Element& m : members) m.normalize();
  }
}

bool Element::canFold(const Element& later, Flavor flavor) const {
  if (isRsd != later.isRsd) return false;
  if (isRsd) {
    // Iteration-count vectors concatenate on fold, so counts need not
    // match — only the member structure must.
    if (members.size() != later.members.size()) return false;
    for (size_t i = 0; i < members.size(); ++i)
      if (!members[i].canFold(later.members[i], flavor)) return false;
    return true;
  }
  if (op != later.op || callSiteId != later.callSiteId || comm != later.comm ||
      peerKind != later.peerKind) {
    return false;
  }
  if (flavor == Flavor::V2) return true;  // elastic value aggregation
  // V1: parameters must be identical constants.
  return constEq(peerVals, later.peerVals) && constEq(bytesVals, later.bytesVals) &&
         constEq(tagVals, later.tagVals) && constEq(reqSiteVals, later.reqSiteVals) &&
         constEq(matchedVals, later.matchedVals);
}

void Element::fold(Element&& later) {
  CYP_CHECK(isRsd == later.isRsd, "fold of mismatched elements");
  if (isRsd) {
    // Member-fold: this RSD's current visit closes, the later RSD's
    // visit counts are appended.
    normalizeSelfVisits();
    later.normalizeSelfVisits();
    for (const Section& s : later.closedVisits.sections())
      closedVisits.appendSection(s);
    for (size_t i = 0; i < members.size(); ++i)
      members[i].fold(std::move(later.members[i]));
    return;
  }
  occurrences += later.occurrences;
  appendAll(peerVals, later.peerVals);
  appendAll(bytesVals, later.bytesVals);
  appendAll(tagVals, later.tagVals);
  appendAll(reqSiteVals, later.reqSiteVals);
  appendAll(matchedVals, later.matchedVals);
  duration.merge(later.duration);
  compute.merge(later.compute);
}

void Element::normalizeSelfVisits() {
  if (openCount > 0) {
    closedVisits.append(static_cast<int64_t>(openCount));
    openCount = 0;
  }
}

uint64_t Element::eventCount() const {
  if (!isRsd) return occurrences;
  uint64_t n = 0;
  for (const Element& m : members) n += m.eventCount();
  return n;
}

bool Element::sameContent(const Element& o) const {
  if (isRsd != o.isRsd) return false;
  if (isRsd) {
    if (closedVisits != o.closedVisits || openCount != o.openCount ||
        members.size() != o.members.size()) {
      return false;
    }
    for (size_t i = 0; i < members.size(); ++i)
      if (!members[i].sameContent(o.members[i])) return false;
    return true;
  }
  return op == o.op && callSiteId == o.callSiteId && comm == o.comm &&
         peerKind == o.peerKind && occurrences == o.occurrences &&
         peerVals == o.peerVals && bytesVals == o.bytesVals &&
         tagVals == o.tagVals && reqSiteVals == o.reqSiteVals &&
         matchedVals == o.matchedVals;
}

void Element::mergeStats(const Element& o) {
  if (isRsd) {
    for (size_t i = 0; i < members.size(); ++i) members[i].mergeStats(o.members[i]);
    return;
  }
  duration.merge(o.duration);
  compute.merge(o.compute);
}

void Element::serialize(ByteWriter& w) const {
  w.u8(isRsd ? 1 : 0);
  if (isRsd) {
    CYP_CHECK(openCount == 0, "serialize of un-normalized RSD");
    closedVisits.serialize(w);
    w.uv(members.size());
    for (const Element& m : members) m.serialize(w);
    return;
  }
  w.u8(static_cast<uint8_t>(op));
  w.sv(callSiteId);
  w.sv(comm);
  w.u8(static_cast<uint8_t>(peerKind));
  w.uv(occurrences);
  peerVals.serialize(w);
  bytesVals.serialize(w);
  tagVals.serialize(w);
  reqSiteVals.serialize(w);
  matchedVals.serialize(w);
  duration.serialize(w);
  compute.serialize(w);
}

namespace {

/// Defense against RSD nesting bombs: real traces nest as deep as the
/// program's loop structure (single digits); a serialized stream deeper
/// than this is corrupt and would otherwise risk stack exhaustion.
constexpr int kMaxRsdDepth = 256;

Element deserializeElement(ByteReader& r, int depth) {
  CYP_CHECK(depth < kMaxRsdDepth, "scalatrace: RSD nesting deeper than "
                                      << kMaxRsdDepth);
  Element el;
  el.isRsd = r.u8() != 0;
  if (el.isRsd) {
    el.closedVisits = SectionSeq::deserialize(r);
    // A member is at least 3 bytes (RSD flag + empty visit sequence +
    // zero member count).
    const uint64_t n = r.checkedCount(r.uv(), 3);
    r.chargeAlloc(n * sizeof(Element));
    el.members.reserve(n);
    for (uint64_t i = 0; i < n; ++i)
      el.members.push_back(deserializeElement(r, depth + 1));
    return el;
  }
  const uint8_t op = r.u8();
  CYP_CHECK(ir::isValidMpiOp(op), "scalatrace: bad op byte " << int(op));
  el.op = static_cast<ir::MpiOp>(op);
  el.callSiteId = static_cast<int32_t>(r.sv());
  el.comm = static_cast<int32_t>(r.sv());
  const uint8_t peerKind = r.u8();
  CYP_CHECK(peerKind <= static_cast<uint8_t>(PeerRef::Kind::Relative),
            "scalatrace: bad peer-ref kind " << int(peerKind));
  el.peerKind = static_cast<PeerRef::Kind>(peerKind);
  el.occurrences = r.uv();
  el.peerVals = SectionSeq::deserialize(r);
  el.bytesVals = SectionSeq::deserialize(r);
  el.tagVals = SectionSeq::deserialize(r);
  el.reqSiteVals = SectionSeq::deserialize(r);
  el.matchedVals = SectionSeq::deserialize(r);
  el.duration = RunningStats::deserialize(r);
  el.compute = RunningStats::deserialize(r);
  return el;
}

}  // namespace

Element Element::deserialize(ByteReader& r) {
  return deserializeElement(r, 0);
}

size_t Element::memoryBytes() const {
  size_t t = sizeof(Element);
  t += peerVals.memoryBytes() - sizeof(SectionSeq);
  t += bytesVals.memoryBytes() - sizeof(SectionSeq);
  t += tagVals.memoryBytes() - sizeof(SectionSeq);
  t += reqSiteVals.memoryBytes() - sizeof(SectionSeq);
  t += matchedVals.memoryBytes() - sizeof(SectionSeq);
  for (const Element& m : members) t += m.memoryBytes();
  return t;
}

namespace {

struct EventCursor {
  SectionSeq::Cursor peer, bytes, tag, reqSite, matched;
  bool hasMatched;
  explicit EventCursor(const Element& e)
      : peer(e.peerVals.cursor()),
        bytes(e.bytesVals.cursor()),
        tag(e.tagVals.cursor()),
        reqSite(e.reqSiteVals.cursor()),
        matched(e.matchedVals.cursor()),
        hasMatched(!e.matchedVals.empty()) {}
};

class Expander {
 public:
  Expander(int32_t rank) : rank_(rank) {}

  void walk(const std::vector<Element>& elems) {
    for (const Element& e : elems) visit(e);
  }

  void visit(const Element& e) {
    if (e.isRsd) {
      CYP_CHECK(e.openCount == 0, "expansion of un-normalized RSD");
      auto [it, inserted] = rsdCursors_.try_emplace(&e, e.closedVisits.cursor());
      (void)inserted;
      const int64_t iters = it->second.next();
      for (int64_t k = 0; k < iters; ++k)
        for (const Element& m : e.members) visit(m);
      return;
    }
    auto [it, inserted] = cursors_.try_emplace(&e, e);
    EventCursor& c = it->second;
    (void)inserted;
    trace::Event ev;
    ev.op = e.op;
    ev.callSiteId = e.callSiteId;
    ev.comm = e.comm;
    switch (e.peerKind) {
      case PeerRef::Kind::None: ev.peer = trace::kNoPeer; break;
      case PeerRef::Kind::Any: ev.peer = trace::kAnySource; break;
      case PeerRef::Kind::Absolute:
        ev.peer = static_cast<int32_t>(c.peer.next());
        break;
      case PeerRef::Kind::Relative:
        ev.peer = static_cast<int32_t>(c.peer.next()) + rank_;
        break;
    }
    ev.bytes = c.bytes.next();
    ev.tag = static_cast<int32_t>(c.tag.next());
    ev.reqId = c.reqSite.next();
    if (c.hasMatched) ev.matchedSource = static_cast<int32_t>(c.matched.next()) + rank_;
    ev.durationNs = e.duration.mean();
    ev.computeNs = e.compute.mean();
    out_.push_back(ev);
  }

  std::vector<trace::Event> take() {
    // Every cursor must be fully consumed, or the structure is corrupt.
    for (const auto& [el, c] : cursors_) {
      CYP_CHECK(c.bytes.done(), "scalatrace expansion left values unconsumed at "
                                    << ir::mpiOpName(el->op) << " site "
                                    << el->callSiteId);
    }
    return std::move(out_);
  }

 private:
  int32_t rank_;
  std::map<const Element*, EventCursor> cursors_;
  std::map<const Element*, SectionSeq::Cursor> rsdCursors_;
  std::vector<trace::Event> out_;
};

}  // namespace

std::vector<trace::Event> expandElements(const std::vector<Element>& elems,
                                         int32_t myRank) {
  Expander ex(myRank);
  ex.walk(elems);
  return ex.take();
}

}  // namespace cypress::scalatrace
