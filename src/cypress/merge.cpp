#include "cypress/merge.hpp"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>

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

template <typename Entry, typename SamePred, typename MergeFn>
void MergedCtt::absorbEntries(std::vector<Entry>& mine,
                              std::vector<Entry>&& theirs, SamePred same,
                              MergeFn mergeStats) {
  for (Entry& e : theirs) {
    bool merged = false;
    for (Entry& m : mine) {
      if (same(m, e)) {
        m.ranks.unite(e.ranks);
        mergeStats(m, e);
        merged = true;
        break;
      }
    }
    if (!merged) mine.push_back(std::move(e));
  }
  // mergeStats can widen an entry's timing statistics enough that two
  // entries already in `mine` become mergeable; coalesce to a fixpoint
  // so the merged tree is independent of absorb order (and therefore of
  // the reduction shape / thread count in mergeAll).
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < mine.size(); ++i) {
      for (size_t j = i + 1; j < mine.size(); ++j) {
        if (!same(mine[i], mine[j])) continue;
        mine[i].ranks.unite(mine[j].ranks);
        mergeStats(mine[i], mine[j]);
        mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(j));
        --j;
        changed = true;
      }
    }
  }
}

namespace {

/// Time statistics are poolable when their means are statistically
/// close; otherwise the rank groups stay separate so replay-based
/// prediction keeps per-group timing fidelity (cf. Ratn et al. on
/// preserving time in merged ScalaTrace traces, cited in §VIII).
bool statsCompatible(const RunningStats& a, const RunningStats& b) {
  // Means of small samples are jitter noise; only split rank groups when
  // both sides have enough observations for the difference to be real.
  if (a.count() < 8 || b.count() < 8) return true;
  const double hi = std::max(a.mean(), b.mean());
  const double lo = std::min(a.mean(), b.mean());
  return hi - lo <= 50e3 /* 50us */ || (lo > 0 && hi / lo <= 1.3);
}

bool timingCompatible(const LeafEntry& a, const LeafEntry& b) {
  for (size_t i = 0; i < a.records.size(); ++i) {
    if (!statsCompatible(a.records[i].compute, b.records[i].compute)) return false;
    if (!statsCompatible(a.records[i].duration, b.records[i].duration)) return false;
  }
  return true;
}

}  // namespace

void MergedCtt::absorb(MergedCtt&& other) {
  CYP_CHECK(cst_ == other.cst_, "merging CTTs with different CSTs");
  lostRanks_.unite(other.lostRanks_);
  const size_t n = loops_.size();
  for (size_t g = 0; g < n; ++g) {
    absorbEntries(
        loops_[g], std::move(other.loops_[g]),
        [](const SeqEntry& a, const SeqEntry& b) { return a.seq == b.seq; },
        [](SeqEntry&, const SeqEntry&) {});
    absorbEntries(
        taken_[g], std::move(other.taken_[g]),
        [](const SeqEntry& a, const SeqEntry& b) { return a.seq == b.seq; },
        [](SeqEntry&, const SeqEntry&) {});
    absorbEntries(
        leaves_[g], std::move(other.leaves_[g]),
        [](const LeafEntry& a, const LeafEntry& b) {
          if (a.records.size() != b.records.size()) return false;
          if (a.execOrdinals != b.execOrdinals) return false;
          for (size_t i = 0; i < a.records.size(); ++i)
            if (!a.records[i].sameContent(b.records[i])) return false;
          return timingCompatible(a, b);
        },
        [](LeafEntry& a, const LeafEntry& b) {
          for (size_t i = 0; i < a.records.size(); ++i)
            a.records[i].mergeStats(b.records[i]);
        });
  }
}

MergedCtt mergeAll(std::vector<const Ctt*> ctts, CostMeter* interCost,
                   int threads, const std::vector<int>* ranks) {
  CYP_CHECK(!ctts.empty(), "mergeAll with no processes");
  CYP_CHECK(threads >= 1, "mergeAll needs at least one thread");
  CYP_CHECK(ranks == nullptr || ranks->size() == ctts.size(),
            "mergeAll: " << ctts.size() << " CTTs but " << ranks->size()
                         << " rank labels");
  // The reduction tree is fixed (the paper's O(n log P) parallel merge):
  // level k+1 node i = node(k, 2i) ⊕ node(k, 2i+1), and an odd last node
  // is carried up. So node i of level k covers leaves [i·2^k, (i+1)·2^k)
  // ∩ [0, P), and since absorb is a pure function of its two operands,
  // any evaluation order yields the same tree for every P and thread
  // count. It is evaluated depth-first, wrapping each process's CTT
  // only when its leaf is reached: one lane holds at most one pending
  // left operand per level, O(log P) trees instead of all P.
  const size_t n = ctts.size();
  const std::function<MergedCtt(size_t, size_t)> node =
      [&](size_t first, size_t width) {
        if (width == 1)
          return MergedCtt::fromCtt(
              *ctts[first], ranks ? (*ranks)[first] : static_cast<int>(first));
        const size_t half = width / 2;
        if (first + half >= n) return node(first, half);  // carried up
        MergedCtt left = node(first, half);
        left.absorb(node(first + half, half));
        return left;
      };

  Stopwatch watch;
  // One subtree per lane at the highest level that still has >= threads
  // nodes; the few levels above it reduce a level at a time.
  const auto lanes = static_cast<size_t>(threads);
  size_t width = 1;
  while (width < n && (n + 2 * width - 1) / (2 * width) >= lanes) width *= 2;
  std::vector<std::optional<MergedCtt>> level((n + width - 1) / width);
  parallelFor(level.size(), threads,
              [&](size_t i) { level[i].emplace(node(i * width, width)); });
  while (level.size() > 1) {
    const size_t pairs = level.size() / 2;
    parallelFor(pairs, threads, [&](size_t p) {
      level[2 * p]->absorb(std::move(*level[2 * p + 1]));
    });
    std::vector<std::optional<MergedCtt>> next;
    next.reserve(pairs + 1);
    for (size_t p = 0; p < pairs; ++p) next.push_back(std::move(level[2 * p]));
    if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
    level = std::move(next);
  }
  if (interCost) interCost->add(watch.ns());
  return std::move(*level.front());
}

namespace {

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

}  // namespace

void MergedCtt::serializeTo(ByteWriter& w) const {
  w.str("CYPC");
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
    w.uv(leaves_[g].size());
    for (const LeafEntry& e : leaves_[g]) {
      w.uv(e.records.size());
      for (const CommRecord& rec : e.records) rec.serialize(w);
      e.execOrdinals.serialize(w);
      e.ranks.serialize(w);
    }
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
  CYP_CHECK(r.str() == "CYPC", "cypress trace: bad magic");
  r.raw(r.uv());  // skip the embedded CST (caller supplied the tree)
  MergedCtt m(cst);
  m.lostRanks_ = RankSet::deserialize(r);
  const uint64_t n = r.uv();
  CYP_CHECK(n == static_cast<uint64_t>(cst.numNodes()),
            "cypress trace: node count mismatch");
  for (uint64_t g = 0; g < n; ++g) {
    m.loops_[g] = readSeqEntries(r);
    m.taken_[g] = readSeqEntries(r);
    // A leaf entry is at least 3 bytes: record count, empty exec
    // ordinals, empty rank set.
    const uint64_t nl = r.checkedCount(r.uv(), 3);
    r.chargeAlloc(nl * sizeof(LeafEntry));
    m.leaves_[g].resize(nl);
    for (auto& e : m.leaves_[g]) {
      const uint64_t nr =
          r.checkedCount(r.uv(), CommRecord::kMinSerializedBytes);
      r.chargeAlloc(nr * sizeof(CommRecord));
      e.records.reserve(nr);
      for (uint64_t k = 0; k < nr; ++k)
        e.records.push_back(CommRecord::deserialize(r));
      e.execOrdinals = SectionSeq::deserialize(r);
      e.ranks = RankSet::deserialize(r);
    }
  }
  CYP_CHECK(r.atEnd(), "cypress trace: trailing bytes");
  return m;
}

MergedCtt MergedCtt::deserializeWithTree(std::span<const uint8_t> data,
                                         cst::Tree& treeOut) {
  ByteReader r(data);
  CYP_CHECK(r.str() == "CYPC", "cypress trace: bad magic");
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
