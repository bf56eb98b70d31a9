#include "scalatrace/inter.hpp"

#include "support/error.hpp"

namespace cypress::scalatrace {

namespace {

/// ScalaTrace-2's loop-agnostic signature: operation identity without
/// parameter values or iteration counts.
bool sameSignature(const Element& a, const Element& b) {
  if (a.isRsd != b.isRsd) return false;
  if (a.isRsd) {
    if (a.members.size() != b.members.size()) return false;
    for (size_t i = 0; i < a.members.size(); ++i)
      if (!sameSignature(a.members[i], b.members[i])) return false;
    return true;
  }
  return a.op == b.op && a.callSiteId == b.callSiteId && a.comm == b.comm &&
         a.peerKind == b.peerKind;
}

bool matches(const MElement& a, const Element& b, Flavor flavor) {
  return flavor == Flavor::V1 ? a.elem.sameContent(b) : sameSignature(a.elem, b);
}

/// Align the running merged sequence with one more rank's sequence via
/// longest-common-subsequence dynamic programming — the O(n·m) pairwise
/// cost the paper attributes to dynamic methods.
std::vector<MElement> align(std::vector<MElement>&& A,
                            const std::vector<Element>& B, int rank,
                            Flavor flavor) {
  const size_t n = A.size();
  const size_t m = B.size();
  // dp[i][j] = LCS length of A[i..] vs B[j..].
  std::vector<uint32_t> dp((n + 1) * (m + 1), 0);
  auto at = [&](size_t i, size_t j) -> uint32_t& { return dp[i * (m + 1) + j]; };
  for (size_t i = n; i-- > 0;) {
    for (size_t j = m; j-- > 0;) {
      uint32_t best = std::max(at(i + 1, j), at(i, j + 1));
      if (matches(A[i], B[j], flavor)) best = std::max(best, at(i + 1, j + 1) + 1);
      at(i, j) = best;
    }
  }

  std::vector<MElement> out;
  out.reserve(n + m);
  size_t i = 0, j = 0;
  while (i < n && j < m) {
    if (matches(A[i], B[j], flavor) && at(i, j) == at(i + 1, j + 1) + 1) {
      MElement merged = std::move(A[i]);
      merged.ranks.insert(rank);
      if (flavor == Flavor::V2) {
        merged.elem.mergeStats(B[j]);
        merged.countByRank[rank] = B[j].eventCount();
      } else {
        merged.elem.mergeStats(B[j]);
      }
      out.push_back(std::move(merged));
      ++i;
      ++j;
    } else if (at(i + 1, j) >= at(i, j + 1)) {
      out.push_back(std::move(A[i]));
      ++i;
    } else {
      MElement fresh;
      fresh.elem = B[j];
      fresh.ranks = RankSet(rank);
      if (flavor == Flavor::V2) fresh.countByRank[rank] = B[j].eventCount();
      out.push_back(std::move(fresh));
      ++j;
    }
  }
  for (; i < n; ++i) out.push_back(std::move(A[i]));
  for (; j < m; ++j) {
    MElement fresh;
    fresh.elem = B[j];
    fresh.ranks = RankSet(rank);
    if (flavor == Flavor::V2) fresh.countByRank[rank] = B[j].eventCount();
    out.push_back(std::move(fresh));
  }
  return out;
}

}  // namespace

MergedSeq mergeSequences(const std::vector<const std::vector<Element>*>& seqs,
                         Flavor flavor, CostMeter* interCost) {
  CYP_CHECK(!seqs.empty(), "mergeSequences with no ranks");
  Stopwatch watch;
  MergedSeq out;
  out.flavor = flavor;
  out.elems.reserve(seqs[0]->size());
  for (const Element& e : *seqs[0]) {
    MElement m;
    m.elem = e;
    m.ranks = RankSet(0);
    if (flavor == Flavor::V2) m.countByRank[0] = e.eventCount();
    out.elems.push_back(std::move(m));
  }
  for (size_t r = 1; r < seqs.size(); ++r) {
    out.elems = align(std::move(out.elems), *seqs[r], static_cast<int>(r), flavor);
  }
  if (interCost) interCost->add(watch.ns());
  return out;
}

std::vector<trace::Event> decompressRank(const MergedSeq& m, int rank) {
  CYP_CHECK(m.flavor == Flavor::V1,
            "ScalaTrace-2 merged traces are lossy; exact per-rank "
            "decompression is not available (by design)");
  std::vector<Element> mine;
  for (const MElement& e : m.elems)
    if (e.ranks.contains(rank)) mine.push_back(e.elem);
  return expandElements(mine, rank);
}

uint64_t eventCountForRank(const MergedSeq& m, int rank) {
  uint64_t total = 0;
  for (const MElement& e : m.elems) {
    if (!e.ranks.contains(rank)) continue;
    if (m.flavor == Flavor::V1) {
      total += e.elem.eventCount();
    } else {
      auto it = e.countByRank.find(rank);
      if (it != e.countByRank.end()) total += it->second;
    }
  }
  return total;
}

void MergedSeq::serializeTo(ByteWriter& w) const {
  w.str("STM1");
  w.uv(kFormatVersion);
  w.u8(flavor == Flavor::V1 ? 1 : 2);
  w.uv(elems.size());
  for (const MElement& e : elems) {
    e.elem.serialize(w);
    e.ranks.serialize(w);
    if (flavor == Flavor::V2) {
      // Per-rank counts, stride-compressed in rank order (usually one
      // constant section in SPMD programs).
      SectionSeq counts;
      for (int32_t r : e.ranks.ranks()) {
        auto it = e.countByRank.find(r);
        counts.append(it == e.countByRank.end()
                          ? 0
                          : static_cast<int64_t>(it->second));
      }
      counts.serialize(w);
    }
  }
}

std::vector<uint8_t> MergedSeq::serialize() const {
  ByteWriter w;
  serializeTo(w);
  return w.take();
}

size_t MergedSeq::serializedBytes() const {
  NullSink null;
  ByteWriter w(null);
  serializeTo(w);
  w.flush();
  return w.size();
}

MergedSeq MergedSeq::deserialize(std::span<const uint8_t> data) {
  ByteReader r(data);
  CYP_CHECK(r.str() == "STM1", "merged scalatrace trace: bad magic");
  r.expectVersion(kFormatVersion, "merged scalatrace trace");
  const uint8_t flavorByte = r.u8();
  CYP_CHECK(flavorByte == 1 || flavorByte == 2,
            "merged scalatrace trace: bad flavor byte " << int(flavorByte));
  MergedSeq m;
  m.flavor = flavorByte == 1 ? Flavor::V1 : Flavor::V2;
  // An element is at least 4 bytes: non-RSD flag, op, two varints, ...
  // plus the rank set — 3 is a safe floor.
  const uint64_t n = r.checkedCount(r.uv(), 3);
  r.chargeAlloc(n * sizeof(MElement));
  m.elems.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    MElement e;
    e.elem = Element::deserialize(r);
    e.ranks = RankSet::deserialize(r);
    if (m.flavor == Flavor::V2) {
      const SectionSeq counts = SectionSeq::deserialize(r);
      const std::vector<int32_t> ranks = e.ranks.ranks();
      CYP_CHECK(counts.size() == ranks.size(),
                "merged scalatrace trace: per-rank count vector has "
                    << counts.size() << " entries for " << ranks.size()
                    << " ranks");
      auto cur = counts.cursor();
      for (int32_t rk : ranks) {
        const int64_t v = cur.next();
        CYP_CHECK(v >= 0, "merged scalatrace trace: negative event count");
        e.countByRank[rk] = static_cast<uint64_t>(v);
      }
    }
    m.elems.push_back(std::move(e));
  }
  CYP_CHECK(r.atEnd(), "merged scalatrace trace: trailing bytes");
  return m;
}

size_t MergedSeq::memoryBytes() const {
  size_t t = sizeof(*this) + elems.capacity() * sizeof(MElement);
  for (const MElement& e : elems) {
    t += e.elem.memoryBytes() - sizeof(Element);
    t += e.ranks.memoryBytes() - sizeof(RankSet);
    t += e.countByRank.size() * (sizeof(int32_t) + sizeof(uint64_t) + 32);
  }
  return t;
}

}  // namespace cypress::scalatrace
