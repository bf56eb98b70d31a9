#include "analysis/loops.hpp"

#include <algorithm>
#include <map>

#include "support/error.hpp"

namespace cypress::analysis {

bool Loop::contains(int block) const {
  return std::binary_search(blocks.begin(), blocks.end(), block);
}

LoopInfo LoopInfo::build(const ir::Function& f, const DomTree& dom) {
  CfgView cfg(f);
  const int n = cfg.numBlocks();

  // Collect back edges grouped by header.
  std::map<int, std::vector<int>> latchesByHeader;
  for (int b = 0; b < n; ++b) {
    if (!dom.reachable(b)) continue;
    for (int s : cfg.succs[static_cast<size_t>(b)]) {
      if (dom.dominates(s, b)) latchesByHeader[s].push_back(b);
    }
  }

  LoopInfo li;

  for (auto& [header, latches] : latchesByHeader) {
    Loop loop;
    loop.header = header;
    loop.latches = latches;
    // Natural loop body: reverse reachability from latches, stopping at
    // the header.
    std::vector<uint8_t> inLoop(static_cast<size_t>(n), 0);
    inLoop[static_cast<size_t>(header)] = 1;
    std::vector<int> work;
    for (int l : latches) {
      if (!inLoop[static_cast<size_t>(l)]) {
        inLoop[static_cast<size_t>(l)] = 1;
        work.push_back(l);
      }
    }
    while (!work.empty()) {
      int b = work.back();
      work.pop_back();
      for (int p : cfg.preds[static_cast<size_t>(b)]) {
        if (!inLoop[static_cast<size_t>(p)] && dom.reachable(p)) {
          inLoop[static_cast<size_t>(p)] = 1;
          work.push_back(p);
        }
      }
    }
    for (int b = 0; b < n; ++b)
      if (inLoop[static_cast<size_t>(b)]) loop.blocks.push_back(b);
    // Exit edges.
    for (int b : loop.blocks) {
      for (int s : cfg.succs[static_cast<size_t>(b)]) {
        if (!inLoop[static_cast<size_t>(s)]) loop.exitEdges.emplace_back(b, s);
      }
    }
    li.loops_.push_back(std::move(loop));
  }

  // Nesting: loop A is inside loop B iff B contains A's header and A != B.
  // Parent = smallest enclosing loop.
  const size_t numLoops = li.loops_.size();
  for (size_t a = 0; a < numLoops; ++a) {
    int best = -1;
    size_t bestSize = 0;
    for (size_t b = 0; b < numLoops; ++b) {
      if (a == b) continue;
      const Loop& outer = li.loops_[b];
      if (outer.contains(li.loops_[a].header) && outer.header != li.loops_[a].header) {
        if (best == -1 || outer.blocks.size() < bestSize) {
          best = static_cast<int>(b);
          bestSize = outer.blocks.size();
        }
      }
    }
    li.loops_[a].parent = best;
  }
  for (size_t a = 0; a < numLoops; ++a) {
    int depth = 1;
    int p = li.loops_[a].parent;
    while (p != -1) {
      ++depth;
      p = li.loops_[static_cast<size_t>(p)].parent;
      CYP_CHECK(depth <= static_cast<int>(numLoops) + 1, "loop nesting cycle");
    }
    li.loops_[a].depth = depth;
  }
  return li;
}

bool LoopInfo::isHeader(int block) const { return loopAtHeader(block) != -1; }

int LoopInfo::loopAtHeader(int block) const {
  for (size_t i = 0; i < loops_.size(); ++i)
    if (loops_[i].header == block) return static_cast<int>(i);
  return -1;
}

}  // namespace cypress::analysis
