#include "cypress/merge.hpp"

#include <algorithm>
#include <cstddef>

#include "flate/flate.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace cypress::core {

MergedCtt MergedCtt::fromCtt(const Ctt& ctt, int rank) {
  MergedCtt m(ctt.cst());
  const int n = ctt.cst().numNodes();
  for (int gid = 0; gid < n; ++gid) {
    const auto g = static_cast<size_t>(gid);
    if (!ctt.loopCounts(gid).empty())
      m.loops_[g].push_back(SeqEntry{ctt.loopCounts(gid), RankSet(rank)});
    if (!ctt.taken(gid).empty())
      m.taken_[g].push_back(SeqEntry{ctt.taken(gid), RankSet(rank)});
    if (!ctt.records(gid).empty())
      m.leaves_[g].push_back(
          LeafEntry{ctt.records(gid), ctt.leafExec(gid), RankSet(rank)});
  }
  return m;
}

namespace {

/// Timing class of a mean (ns): class j is [t_j, t_{j+1}) with t_0 = 0
/// and t_{j+1} = (t_j + c)·13/10 − c, c = 166 667 — a [0, 50 µs) class,
/// then classes 1.3x wider each. Rank groups whose means differ in
/// class stay separate, so replay-based prediction keeps per-group
/// timing fidelity (cf. Ratn et al. on preserving time in merged
/// ScalaTrace traces, cited in §VIII). The edges are integers, so a
/// pooled mean stays in its members' class.
size_t timingClass(uint64_t meanNs) {
  static const std::vector<uint64_t> edges = [] {
    constexpr unsigned __int128 c = 166667;
    std::vector<uint64_t> t;
    for (unsigned __int128 edge = 0; edge <= UINT64_MAX;
         edge = (edge + c) * 13 / 10 - c)
      t.push_back(static_cast<uint64_t>(edge));
    return t;
  }();
  return static_cast<size_t>(
      std::upper_bound(edges.begin(), edges.end(), meanNs) - edges.begin() - 1);
}

bool sameClass(const SeqEntry& a, const SeqEntry& b) { return a.seq == b.seq; }

bool sameContent(const LeafEntry& a, const LeafEntry& b) {
  return a.execOrdinals == b.execOrdinals &&
         std::equal(a.records.begin(), a.records.end(), b.records.begin(),
                    b.records.end(), [](const CommRecord& x, const CommRecord& y) {
                      return x.sameContent(y);
                    });
}

/// Leaf entries pool when their content is equal and, for every record
/// repeated at least 8 times per rank, the compute and duration means
/// fall in the same timing class. Means of fewer events are jitter
/// noise and never split a group.
bool sameClass(const LeafEntry& a, const LeafEntry& b) {
  if (!sameContent(a, b)) return false;
  for (size_t i = 0; i < a.records.size(); ++i) {
    const CommRecord& x = a.records[i];
    const CommRecord& y = b.records[i];
    if (x.count >= 8 &&
        (timingClass(x.compute.mean()) != timingClass(y.compute.mean()) ||
         timingClass(x.duration.mean()) != timingClass(y.duration.mean())))
      return false;
  }
  return true;
}

void pool(SeqEntry&, const SeqEntry&) {}

void pool(LeafEntry& a, const LeafEntry& b) {
  for (size_t i = 0; i < a.records.size(); ++i)
    a.records[i].mergeStats(b.records[i]);
}

/// sameClass is an equivalence that pooling preserves, and each side
/// holds at most one entry per class: the result is the union of the
/// classes. The entries of a vertex hold disjoint rank sets; ordered by
/// their lowest rank, the list is as independent of the merge plan as
/// its contents.
template <typename Entry>
void absorbEntries(std::vector<Entry>& mine, std::vector<Entry>&& theirs) {
  for (Entry& e : theirs) {
    const auto m = std::find_if(mine.begin(), mine.end(),
                                [&](const Entry& x) { return sameClass(x, e); });
    if (m == mine.end()) {
      mine.push_back(std::move(e));
      continue;
    }
    m->ranks.unite(e.ranks);
    pool(*m, e);
  }
  // A rank-order fold keeps the list sorted: check before sorting.
  const auto byLowestRank = [](const Entry& a, const Entry& b) {
    return a.ranks.ranks() < b.ranks.ranks();
  };
  if (!std::is_sorted(mine.begin(), mine.end(), byLowestRank))
    std::sort(mine.begin(), mine.end(), byLowestRank);
}

}  // namespace

void MergedCtt::absorb(MergedCtt&& other) {
  CYP_CHECK(cst_ == other.cst_, "merging CTTs with different CSTs");
  lostRanks_.unite(other.lostRanks_);
  for (size_t g = 0; g < loops_.size(); ++g) {
    absorbEntries(loops_[g], std::move(other.loops_[g]));
    absorbEntries(taken_[g], std::move(other.taken_[g]));
    absorbEntries(leaves_[g], std::move(other.leaves_[g]));
  }
}

const SectionSeq* seqFor(const std::vector<SeqEntry>& entries, int32_t rank) {
  for (const SeqEntry& e : entries)
    if (e.ranks.contains(rank)) return &e.seq;
  return nullptr;
}

const LeafEntry* leafFor(const std::vector<LeafEntry>& entries, int32_t rank) {
  for (const LeafEntry& e : entries)
    if (e.ranks.contains(rank)) return &e;
  return nullptr;
}

MergedCtt mergeAll(std::vector<const Ctt*> ctts, CostMeter* interCost,
                   int threads, const std::vector<int>* ranks) {
  CYP_CHECK(!ctts.empty(), "mergeAll with no processes");
  CYP_CHECK(threads >= 1, "mergeAll needs at least one thread");
  CYP_CHECK(ranks == nullptr || ranks->size() == ctts.size(),
            "mergeAll: " << ctts.size() << " CTTs but " << ranks->size()
                         << " rank labels");
  // Lane l folds its contiguous range [l·n/L, (l+1)·n/L) in rank order
  // into one running total, then the lane totals fold in order: the
  // streaming merge's loop without spills. absorb is a union of
  // equivalence classes, so the lane count does not change the bytes,
  // and in rank order each RankSet::unite appends.
  const size_t n = ctts.size();
  const size_t lanes = std::min(n, static_cast<size_t>(threads));
  Stopwatch watch;
  std::vector<MergedCtt> totals(lanes, MergedCtt(ctts.front()->cst()));
  parallelFor(lanes, threads, [&](size_t l) {
    for (size_t i = l * n / lanes; i < (l + 1) * n / lanes; ++i)
      totals[l].absorb(*ctts[i], ranks ? (*ranks)[i] : static_cast<int>(i));
  });
  for (size_t l = 1; l < lanes; ++l) totals[0].absorb(std::move(totals[l]));
  if (interCost) interCost->add(watch.ns());
  return std::move(totals[0]);
}

namespace {

/// Version 2: exact integer time statistics (RunningStats).
constexpr uint64_t kFormatVersion = 2;

void readHeader(ByteReader& r) {
  CYP_CHECK(r.str() == "CYPC", "cypress trace: bad magic");
  r.expectVersion(kFormatVersion, "cypress trace");
}

void writeSeqEntries(ByteWriter& w, const std::vector<SeqEntry>& entries) {
  w.uv(entries.size());
  for (const SeqEntry& e : entries) {
    e.seq.serialize(w);
    e.ranks.serialize(w);
  }
}

std::vector<SeqEntry> readSeqEntries(ByteReader& r) {
  // Each entry is at least 2 bytes (empty sequence + empty rank set);
  // validate the count before constructing a single element.
  const uint64_t n = r.checkedCount(r.uv(), 2);
  r.chargeAlloc(n * sizeof(SeqEntry));
  std::vector<SeqEntry> out(n);
  for (auto& e : out) {
    e.seq = SectionSeq::deserialize(r);
    e.ranks = RankSet::deserialize(r);
  }
  return out;
}

/// Timing classes of one content share a single copy of it. Each entry
/// starts with h: an even h = 2·(record count) is followed by new
/// content (records and exec ordinals); an odd h reuses the content of
/// the vertex's ((h − 1) / 2)-th new-content entry. Then its ranks and
/// record times.
void writeLeafEntries(ByteWriter& w, const std::vector<LeafEntry>& entries) {
  std::vector<const LeafEntry*> contents;
  w.uv(entries.size());
  for (const LeafEntry& e : entries) {
    const auto c = std::find_if(contents.begin(), contents.end(),
                                [&](const LeafEntry* x) { return sameContent(*x, e); });
    if (c != contents.end()) {
      w.uv(2 * static_cast<uint64_t>(c - contents.begin()) + 1);
    } else {
      contents.push_back(&e);
      w.uv(2 * e.records.size());
      for (const CommRecord& rec : e.records) rec.serializeContent(w);
      e.execOrdinals.serialize(w);
    }
    e.ranks.serialize(w);
    for (const CommRecord& rec : e.records) rec.serializeTimes(w);
  }
}

std::vector<LeafEntry> readLeafEntries(ByteReader& r) {
  // An entry is at least 2 bytes: h and an empty rank set.
  const uint64_t n = r.checkedCount(r.uv(), 2);
  r.chargeAlloc(n * sizeof(LeafEntry));
  std::vector<LeafEntry> out(n);
  std::vector<size_t> contents;
  for (size_t i = 0; i < n; ++i) {
    LeafEntry& e = out[i];
    const uint64_t h = r.uv();
    if (h % 2 == 1) {
      CYP_CHECK(h / 2 < contents.size(),
                "cypress trace: leaf entry reuses content " << h / 2 << " of "
                                                            << contents.size());
      const LeafEntry& shared = out[contents[h / 2]];
      r.chargeAlloc(shared.records.size() * sizeof(CommRecord));
      e = shared;
    } else {
      contents.push_back(i);
      const uint64_t nr = r.checkedCount(h / 2, CommRecord::kMinContentBytes);
      r.chargeAlloc(nr * sizeof(CommRecord));
      e.records.reserve(nr);
      for (uint64_t k = 0; k < nr; ++k)
        e.records.push_back(CommRecord::deserializeContent(r));
      e.execOrdinals = SectionSeq::deserialize(r);
    }
    e.ranks = RankSet::deserialize(r);
    for (CommRecord& rec : e.records) rec.deserializeTimes(r);
  }
  return out;
}

}  // namespace

void MergedCtt::serializeTo(ByteWriter& w) const {
  w.str("CYPC");
  w.uv(kFormatVersion);
  // The CST ships inside the trace as a flate-compressed text file
  // (paper §III: "stores the resulting program communication structure
  // in a compressed text file").
  {
    const auto cstBytes = flate::compressString(cst_->toText());
    w.uv(cstBytes.size());
    w.raw(cstBytes);
  }
  // Ranks whose traces were lost (empty for a complete run).
  lostRanks_.serialize(w);
  const size_t n = loops_.size();
  w.uv(n);
  for (size_t g = 0; g < n; ++g) {
    writeSeqEntries(w, loops_[g]);
    writeSeqEntries(w, taken_[g]);
    writeLeafEntries(w, leaves_[g]);
  }
}

std::vector<uint8_t> MergedCtt::serialize() const {
  ByteWriter w;
  serializeTo(w);
  return w.take();
}

MergedCtt MergedCtt::deserialize(std::span<const uint8_t> data,
                                 const cst::Tree& cst) {
  ByteReader r(data);
  readHeader(r);
  r.raw(r.uv());  // skip the embedded CST (caller supplied the tree)
  MergedCtt m(cst);
  m.lostRanks_ = RankSet::deserialize(r);
  const uint64_t n = r.uv();
  CYP_CHECK(n == static_cast<uint64_t>(cst.numNodes()),
            "cypress trace: node count mismatch");
  for (uint64_t g = 0; g < n; ++g) {
    m.loops_[g] = readSeqEntries(r);
    m.taken_[g] = readSeqEntries(r);
    m.leaves_[g] = readLeafEntries(r);
  }
  CYP_CHECK(r.atEnd(), "cypress trace: trailing bytes");
  return m;
}

MergedCtt MergedCtt::deserializeWithTree(std::span<const uint8_t> data,
                                         cst::Tree& treeOut) {
  ByteReader r(data);
  readHeader(r);
  treeOut = cst::Tree::fromText(flate::decompressToString(r.raw(r.uv())));
  return deserialize(data, treeOut);
}

size_t MergedCtt::memoryBytes() const {
  size_t total = sizeof(*this);
  auto seqBytes = [](const std::vector<SeqEntry>& v) {
    size_t t = v.capacity() * sizeof(SeqEntry);
    for (const auto& e : v)
      t += e.seq.memoryBytes() - sizeof(SectionSeq) + e.ranks.memoryBytes() -
           sizeof(RankSet);
    return t;
  };
  for (const auto& v : loops_) total += seqBytes(v);
  for (const auto& v : taken_) total += seqBytes(v);
  for (const auto& v : leaves_) {
    total += v.capacity() * sizeof(LeafEntry);
    for (const auto& e : v) {
      total += e.records.capacity() * sizeof(CommRecord);
      total += e.ranks.memoryBytes() - sizeof(RankSet);
    }
  }
  return total;
}

}  // namespace cypress::core
