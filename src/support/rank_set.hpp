// RankSet: the set of MPI ranks that share a merged trace record.
//
// During inter-process CTT merging (paper §IV-B, Figure 13) identical
// records from many processes collapse into one record annotated with
// the set of ranks it covers.  Sets are serialized as stride ranges
// (SectionSeq over the sorted ranks), so the common cases — a single
// rank, "ranks 1..P-2", "even ranks" — cost O(1) tuples.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/section_seq.hpp"

namespace cypress {

class RankSet {
 public:
  /// Cap on deserialized set sizes (4M ranks ≈ 16 MiB expanded) — far
  /// above any simulated job, far below an OOM.
  static constexpr uint64_t kMaxSerializedRanks = 1u << 22;

  RankSet() = default;
  explicit RankSet(int32_t rank) : ranks_{rank} {}

  static RankSet range(int32_t first, int32_t lastInclusive) {
    RankSet s;
    for (int32_t r = first; r <= lastInclusive; ++r) s.ranks_.push_back(r);
    return s;
  }

  void insert(int32_t rank) {
    auto it = std::lower_bound(ranks_.begin(), ranks_.end(), rank);
    if (it == ranks_.end() || *it != rank) ranks_.insert(it, rank);
  }

  /// Set union (the other set's ranks are absorbed). A rank-order fold
  /// unites sets that lie wholly above this one: that case appends, so
  /// adding one rank at a time stays amortized O(1) per rank.
  void unite(const RankSet& o) {
    if (o.ranks_.empty()) return;
    if (ranks_.empty() || o.ranks_.front() >= ranks_.back()) {
      const auto from = o.ranks_.begin() +
                        (!ranks_.empty() && o.ranks_.front() == ranks_.back());
      ranks_.insert(ranks_.end(), from, o.ranks_.end());
      return;
    }
    std::vector<int32_t> out;
    out.reserve(ranks_.size() + o.ranks_.size());
    std::set_union(ranks_.begin(), ranks_.end(), o.ranks_.begin(), o.ranks_.end(),
                   std::back_inserter(out));
    ranks_ = std::move(out);
  }

  bool contains(int32_t rank) const {
    return std::binary_search(ranks_.begin(), ranks_.end(), rank);
  }

  size_t size() const { return ranks_.size(); }
  bool empty() const { return ranks_.empty(); }
  const std::vector<int32_t>& ranks() const { return ranks_; }

  bool operator==(const RankSet&) const = default;

  void serialize(ByteWriter& w) const {
    SectionSeq seq;
    for (int32_t r : ranks_) seq.append(r);
    seq.serialize(w);
  }

  static RankSet deserialize(ByteReader& r) {
    SectionSeq seq = SectionSeq::deserialize(r);
    // The stride sections are tiny on disk but expand to one int32 per
    // rank; bound the logical size before materializing so a corrupt
    // (start, stride, hugeCount) tuple cannot demand gigabytes.
    CYP_CHECK(seq.size() <= kMaxSerializedRanks,
              "rank set: implausible member count " << seq.size());
    r.chargeAlloc(seq.size() * (sizeof(int64_t) + sizeof(int32_t)));
    RankSet s;
    auto vals = seq.expand();
    s.ranks_.reserve(vals.size());
    for (int64_t v : vals) {
      CYP_CHECK(v >= 0 && v <= INT32_MAX, "rank set: rank " << v << " out of range");
      s.ranks_.push_back(static_cast<int32_t>(v));
    }
    CYP_CHECK(std::is_sorted(s.ranks_.begin(), s.ranks_.end()), "rank set not sorted");
    return s;
  }

  /// Counts the members, not the slack an appending unite leaves, so a
  /// budget measured with it (the streaming merge's batch cut) does not
  /// depend on the vector's growth policy.
  size_t memoryBytes() const {
    return sizeof(*this) + ranks_.size() * sizeof(int32_t);
  }

 private:
  std::vector<int32_t> ranks_;  // sorted, unique
};

}  // namespace cypress
