#include "cypress/decompress.hpp"

#include "support/error.hpp"

namespace cypress::core {

CompressedCursor::CompressedCursor(const MergedCtt& m, int rank)
    : m_(&m), rank_(rank) {
  const cst::Tree& tree = m.cst();
  const int n = tree.numNodes();
  loopCur_.resize(static_cast<size_t>(tree.kindCount(cst::NodeKind::Loop)));
  takenCur_.resize(static_cast<size_t>(tree.kindCount(cst::NodeKind::Branch)));
  leaf_.resize(static_cast<size_t>(tree.kindCount(cst::NodeKind::Comm)));
  execCount_.assign(static_cast<size_t>(n), 0);
  for (int g = 0; g < n; ++g) {
    const cst::NodeKind kind = tree.byGid(g)->kind;
    const auto s = static_cast<size_t>(tree.slot(g));
    const SectionSeq* loops = seqFor(m.loopEntries(g), rank);
    const SectionSeq* taken = seqFor(m.takenEntries(g), rank);
    const LeafEntry* leaf = leafFor(m.leafEntries(g), rank);
    // A payload on a vertex whose kind cannot carry it has no cursor
    // and would never be walked: reject it instead of dropping it.
    auto expect = [&](bool ok, const char* what) {
      CYP_CHECK(ok, "decompress: " << what << " on gid " << g << " ("
                                   << cst::nodeKindName(kind) << ")");
    };
    expect(!loops || loops->empty() || kind == cst::NodeKind::Loop,
           "loop activations");
    expect(!taken || taken->empty() || kind == cst::NodeKind::Branch,
           "branch outcomes");
    expect(!leaf || (leaf->execOrdinals.empty() && leaf->records.empty()) ||
               kind == cst::NodeKind::Comm,
           "leaf records");
    switch (kind) {
      case cst::NodeKind::Loop:
        if (loops) loopCur_[s].emplace(*loops);
        break;
      case cst::NodeKind::Branch:
        if (taken) takenCur_[s].emplace(*taken);
        break;
      case cst::NodeKind::Comm:
        if (leaf) {
          LeafCursor& c = leaf_[s];
          c.entry = leaf;
          c.execCursor.emplace(leaf->execOrdinals);
          c.recs.reserve(leaf->records.size());
          for (const CommRecord& rec : leaf->records) {
            c.recs.push_back(RecState{
                rec.ordinals.cursor(),
                rec.matchedSources.empty()
                    ? std::optional<SectionSeq::Cursor>()
                    : std::optional<SectionSeq::Cursor>(
                          rec.matchedSources.cursor()),
                &rec});
          }
        }
        break;
      case cst::NodeKind::Root:
      case cst::NodeKind::Call:
        break;
    }
  }
  push(tree.root());
}

void CompressedCursor::push(const cst::Node* n) {
  Frame f;
  f.node = n;
  f.exec = execCount_[static_cast<size_t>(n->gid)]++;
  stack_.push_back(f);
}

void CompressedCursor::fillEvent(const cst::Node* leaf) {
  LeafCursor& c = leaf_[slotOf(leaf)];
  CYP_CHECK(c.entry != nullptr, "decompress: rank "
                                    << rank_ << " has no records at gid "
                                    << leaf->gid);
  const int64_t n = static_cast<int64_t>(c.nextOrdinal++);
  RecState* state = nullptr;
  for (RecState& rs : c.recs) {
    if (!rs.ord.done() && rs.ord.peek() == n) {
      state = &rs;
      break;
    }
  }
  CYP_CHECK(state != nullptr, "decompress: no record covers occurrence "
                                  << n << " at gid " << leaf->gid);
  state->ord.next();
  const CommRecord& rec = *state->rec;

  trace::Event& e = buf_;
  e = trace::Event{};
  e.op = rec.op;
  e.peer = rec.peer.decode(rank_);
  e.bytes = rec.bytes;
  e.tag = rec.tag;
  e.comm = rec.comm;
  e.callSiteId = rec.callSiteId;
  e.reqId = rec.reqSite;
  if (state->matched.has_value()) {
    e.matchedSource = static_cast<int32_t>(state->matched->next()) + rank_;
  }
  e.durationNs = rec.duration.mean();
  e.computeNs = rec.compute.mean();
  hasEvent_ = true;
  ++emitted_;
}

void CompressedCursor::advance() {
  while (!stack_.empty()) {
    Frame& f = stack_.back();
    const cst::Node* n = f.node;
    if (f.child >= n->children.size()) {
      stack_.pop_back();
      continue;
    }
    const cst::Node* child = n->children[f.child].get();
    switch (child->kind) {
      case cst::NodeKind::Comm: {
        LeafCursor& lc = leaf_[slotOf(child)];
        if (lc.execCursor.has_value() && !lc.execCursor->done() &&
            lc.execCursor->peek() == static_cast<int64_t>(f.exec)) {
          lc.execCursor->next();
          fillEvent(child);
          return;  // pause: one event buffered
        }
        ++f.child;
        break;
      }
      case cst::NodeKind::Loop: {
        if (!f.pendingValid) {
          auto& cur = loopCur_[slotOf(child)];
          CYP_CHECK(cur.has_value() && !cur->done(),
                    "decompress: missing loop activation at gid "
                        << child->gid);
          const int64_t iters = cur->next();
          CYP_CHECK(iters >= 0, "decompress: negative iteration count at gid "
                                    << child->gid);
          f.pending = static_cast<uint64_t>(iters);
          f.pendingValid = true;
        }
        if (f.pending > 0) {
          --f.pending;
          push(child);  // invalidates f; loop re-reads stack_.back()
        } else {
          f.pendingValid = false;
          ++f.child;
        }
        break;
      }
      case cst::NodeKind::Branch: {
        auto& cur = takenCur_[slotOf(child)];
        if (cur.has_value() && !cur->done() &&
            cur->peek() == static_cast<int64_t>(f.exec)) {
          cur->next();
          push(child);
        } else {
          ++f.child;
        }
        break;
      }
      case cst::NodeKind::Call:
        // Visited exactly once: step past it before descending.
        ++f.child;
        push(child);  // invalidates f
        break;
      case cst::NodeKind::Root:
        CYP_FAIL("nested root in CST");
    }
  }
  checkDrained();
  finished_ = true;
}

void CompressedCursor::checkDrained() const {
  const cst::Tree& tree = m_->cst();
  const int n = tree.numNodes();
  for (int g = 0; g < n; ++g) {
    const auto s = static_cast<size_t>(tree.slot(g));
    switch (tree.byGid(g)->kind) {
      case cst::NodeKind::Loop: {
        const auto& lc = loopCur_[s];
        CYP_CHECK(!lc.has_value() || lc->done(),
                  "decompress: loop activations left over at gid " << g);
        break;
      }
      case cst::NodeKind::Branch: {
        const auto& tc = takenCur_[s];
        CYP_CHECK(!tc.has_value() || tc->done(),
                  "decompress: branch outcomes left over at gid " << g);
        break;
      }
      case cst::NodeKind::Comm: {
        const LeafCursor& c = leaf_[s];
        CYP_CHECK(!c.execCursor.has_value() || c.execCursor->done(),
                  "decompress: leaf occurrences left over at gid " << g);
        for (const RecState& rs : c.recs) {
          CYP_CHECK(rs.ord.done(), "decompress: records left over at gid " << g);
          CYP_CHECK(!rs.matched.has_value() || rs.matched->done(),
                    "decompress: matched sources left over at gid " << g);
        }
        break;
      }
      case cst::NodeKind::Root:
      case cst::NodeKind::Call:
        break;
    }
  }
}

size_t CompressedCursor::memoryBytes() const {
  size_t bytes = sizeof(*this);
  bytes += loopCur_.capacity() * sizeof(loopCur_[0]);
  bytes += takenCur_.capacity() * sizeof(takenCur_[0]);
  bytes += execCount_.capacity() * sizeof(uint64_t);
  bytes += stack_.capacity() * sizeof(Frame);
  bytes += leaf_.capacity() * sizeof(LeafCursor);
  for (const LeafCursor& c : leaf_)
    bytes += c.recs.capacity() * sizeof(RecState);
  return bytes;
}

std::vector<trace::Event> decompressRank(const MergedCtt& m, int rank) {
  std::vector<trace::Event> out;
  CompressedCursor c(m, rank);
  while (!c.done()) {
    out.push_back(c.peek());
    c.next();
  }
  return out;
}

trace::RawTrace decompressAll(const MergedCtt& m, int numRanks) {
  trace::RawTrace t;
  t.ranks.resize(static_cast<size_t>(numRanks));
  for (int r = 0; r < numRanks; ++r) {
    t.ranks[static_cast<size_t>(r)].rank = r;
    t.ranks[static_cast<size_t>(r)].events = decompressRank(m, r);
  }
  return t;
}

}  // namespace cypress::core
