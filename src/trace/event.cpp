#include "trace/event.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"

namespace cypress::trace {

std::string Event::toString() const {
  std::ostringstream os;
  os << ir::mpiOpName(op);
  if (peer != kNoPeer) os << " peer=" << peer;
  if (bytes) os << " bytes=" << bytes;
  if (tag >= 0) os << " tag=" << tag;
  os << " comm=" << comm << " site=" << callSiteId;
  if (reqId >= 0) os << " req=" << reqId;
  if (matchedSource >= 0) os << " matched=" << matchedSource;
  return os.str();
}

void serializeEvent(const Event& e, ByteWriter& w) {
  w.u8(static_cast<uint8_t>(e.op));
  w.sv(e.peer);
  w.sv(e.bytes);
  w.sv(e.tag);
  w.sv(e.comm);
  w.sv(e.callSiteId);
  w.sv(e.reqId);
  w.sv(e.matchedSource);
  w.uv(e.computeNs);
  w.uv(e.durationNs);
}

Event deserializeEvent(ByteReader& r) {
  Event e;
  const uint8_t op = r.u8();
  CYP_CHECK(ir::isValidMpiOp(op), "raw trace: bad op byte " << int(op));
  e.op = static_cast<ir::MpiOp>(op);
  e.peer = static_cast<int32_t>(r.sv());
  e.bytes = r.sv();
  e.tag = static_cast<int32_t>(r.sv());
  e.comm = static_cast<int32_t>(r.sv());
  e.callSiteId = static_cast<int32_t>(r.sv());
  e.reqId = r.sv();
  e.matchedSource = static_cast<int32_t>(r.sv());
  e.computeNs = r.uv();
  e.durationNs = r.uv();
  return e;
}

size_t RawTrace::totalEvents() const {
  size_t n = 0;
  for (const auto& r : ranks) n += r.events.size();
  return n;
}

void RawTrace::serializeTo(ByteWriter& w) const {
  w.str("CYTR");
  w.uv(ranks.size());
  for (const auto& r : ranks) {
    w.sv(r.rank);
    w.uv(r.events.size());
    for (const Event& e : r.events) serializeEvent(e, w);
  }
}

std::vector<uint8_t> RawTrace::serialize() const {
  ByteWriter w;
  serializeTo(w);
  return w.take();
}

size_t RawTrace::serializedBytes() const {
  // Size accounting without materializing the stream: a discarding
  // sink, counted by the writer.
  NullSink null;
  ByteWriter w(null);
  serializeTo(w);
  w.flush();
  return w.size();
}

RawTrace RawTrace::deserialize(std::span<const uint8_t> data) {
  // Every count below passes checkedCount, which already bounds the
  // allocation to sizeof(Event)/10 bytes per input byte; size the budget
  // to match, so a legitimate trace of any length parses while a tiny
  // hostile input still cannot allocate more than a small multiple of
  // itself.
  ByteReader r(data, std::max(ByteReader::kDefaultAllocBudget,
                              data.size() * sizeof(Event)));
  CYP_CHECK(r.str() == "CYTR", "raw trace: bad magic");
  RawTrace t;
  // Per rank: sv rank + uv eventCount = 2 bytes minimum.
  const uint64_t n = r.checkedCount(r.uv(), 2);
  r.chargeAlloc(n * sizeof(RankTrace));
  t.ranks.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    t.ranks[i].rank = static_cast<int32_t>(r.sv());
    // A serialized event is at least 10 bytes (u8 op + 7 varints + 2
    // varint times, one byte each).
    const uint64_t ne = r.checkedCount(r.uv(), 10);
    r.chargeAlloc(ne * sizeof(Event));
    t.ranks[i].events.reserve(ne);
    for (uint64_t k = 0; k < ne; ++k) t.ranks[i].events.push_back(deserializeEvent(r));
  }
  CYP_CHECK(r.atEnd(), "raw trace: trailing bytes");
  return t;
}

}  // namespace cypress::trace
