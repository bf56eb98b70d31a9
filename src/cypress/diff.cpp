#include "cypress/diff.hpp"

#include <algorithm>
#include <sstream>

namespace cypress::core {

namespace {

std::string rankSetStr(const RankSet& s) {
  std::ostringstream os;
  os << "{";
  const auto& r = s.ranks();
  for (size_t i = 0; i < r.size(); ++i) {
    if (i == 4 && r.size() > 6) {
      os << ", ... " << r.size() - i << " more";
      break;
    }
    if (i) os << ", ";
    os << r[i];
  }
  os << "}";
  return os.str();
}

std::string seqSummary(const SectionSeq& s) {
  std::ostringstream os;
  os << s.size() << " values";
  if (!s.empty()) {
    os << " [" << s.at(0);
    if (s.size() > 1) os << " .. " << s.at(s.size() - 1);
    os << "]";
  }
  return os.str();
}

/// Pairs entries by rank set in O(E log E), not O(E²): DT has one entry
/// per rank. `sorted` holds a vertex's entries stably ordered by rank
/// set, i.e. by lowest rank for the disjoint sets of a valid trace, so
/// the first entry with equal ranks is found.
template <typename Entry>
const Entry* findRanks(const std::vector<const Entry*>& sorted,
                       const RankSet& ranks) {
  const auto it = std::lower_bound(
      sorted.begin(), sorted.end(), ranks,
      [](const Entry* e, const RankSet& r) { return e->ranks.ranks() < r.ranks(); });
  return it != sorted.end() && (*it)->ranks == ranks ? *it : nullptr;
}

template <typename Entry>
std::vector<const Entry*> sortedByRanks(const std::vector<Entry>& entries) {
  std::vector<const Entry*> out;
  for (const Entry& e : entries) out.push_back(&e);
  std::stable_sort(out.begin(), out.end(), [](const Entry* a, const Entry* b) {
    return a->ranks.ranks() < b->ranks.ranks();
  });
  return out;
}

void diffSeqEntries(int gid, const char* kind, const std::vector<SeqEntry>& a,
                    const std::vector<SeqEntry>& b, TraceDiff* out) {
  // Pair entries by rank set; report content changes and rank moves.
  const auto sorted = sortedByRanks(b);
  for (const SeqEntry& ea : a) {
    const SeqEntry* eb = findRanks(sorted, ea.ranks);
    std::ostringstream os;
    if (eb == nullptr)
      os << kind << " rank grouping changed (was " << rankSetStr(ea.ranks) << ")";
    else if (!(ea.seq == eb->seq))
      os << kind << " for ranks " << rankSetStr(ea.ranks) << " changed: "
         << seqSummary(ea.seq) << " -> " << seqSummary(eb->seq);
    else
      continue;
    out->entries.push_back(DiffEntry{gid, os.str()});
  }
  if (a.size() != b.size()) {
    std::ostringstream os;
    os << kind << " entry count changed: " << a.size() << " -> " << b.size();
    out->entries.push_back(DiffEntry{gid, os.str()});
  }
}

std::string recordSummary(const CommRecord& r) {
  std::ostringstream os;
  os << ir::mpiOpName(r.op) << " x" << r.count << " bytes=" << r.bytes
     << " tag=" << r.tag;
  return os.str();
}

void diffLeafEntries(int gid, const std::vector<LeafEntry>& a,
                     const std::vector<LeafEntry>& b, TraceDiff* out) {
  const auto sorted = sortedByRanks(b);
  for (const LeafEntry& ea : a) {
    const LeafEntry* match = findRanks(sorted, ea.ranks);
    if (match == nullptr) {
      out->entries.push_back(
          DiffEntry{gid, "event rank grouping changed (was " +
                             rankSetStr(ea.ranks) + ")"});
      continue;
    }
    if (ea.records.size() != match->records.size()) {
      std::ostringstream os;
      os << "record count for ranks " << rankSetStr(ea.ranks) << " changed: "
         << ea.records.size() << " -> " << match->records.size();
      out->entries.push_back(DiffEntry{gid, os.str()});
      continue;
    }
    for (size_t i = 0; i < ea.records.size(); ++i) {
      if (!ea.records[i].sameContent(match->records[i])) {
        std::ostringstream os;
        os << "record " << i << " for ranks " << rankSetStr(ea.ranks)
           << " changed: " << recordSummary(ea.records[i]) << " -> "
           << recordSummary(match->records[i]);
        out->entries.push_back(DiffEntry{gid, os.str()});
      }
    }
  }
  if (a.size() != b.size()) {
    std::ostringstream os;
    os << "event entry count changed: " << a.size() << " -> " << b.size();
    out->entries.push_back(DiffEntry{gid, os.str()});
  }
}

}  // namespace

TraceDiff diffTraces(const MergedCtt& a, const MergedCtt& b) {
  TraceDiff d;
  if (a.cst().toText() != b.cst().toText()) {
    d.sameStructure = false;
    d.entries.push_back(
        DiffEntry{-1, "communication structure trees differ (different "
                      "programs or versions)"});
    return d;
  }
  d.sameStructure = true;
  const int n = a.cst().numNodes();
  for (int g = 0; g < n; ++g) {
    diffSeqEntries(g, "loop counts", a.loopEntries(g), b.loopEntries(g), &d);
    diffSeqEntries(g, "branch outcomes", a.takenEntries(g), b.takenEntries(g), &d);
    diffLeafEntries(g, a.leafEntries(g), b.leafEntries(g), &d);
  }
  return d;
}

std::string TraceDiff::toString() const {
  if (identical()) return "traces are identical\n";
  std::ostringstream os;
  if (!sameStructure) {
    os << entries.front().what << "\n";
    return os.str();
  }
  os << entries.size() << " difference(s):\n";
  for (const DiffEntry& e : entries)
    os << "  gid " << e.gid << ": " << e.what << "\n";
  return os.str();
}

}  // namespace cypress::core
