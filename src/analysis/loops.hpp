// Natural-loop detection over the dominator tree (paper §III-A).
//
// A back edge is an edge n→h where h dominates n; the natural loop of h
// is h plus every block that reaches a latch without passing through h.
// Loops sharing a header are merged (classic Muchnick treatment). The
// result is a loop forest with explicit nesting, exit edges and latches —
// exactly what the CST builder and the instrumentation pass consume.
#pragma once

#include <vector>

#include "analysis/dominators.hpp"
#include "ir/ir.hpp"

namespace cypress::analysis {

struct Loop {
  int header = -1;
  std::vector<int> blocks;       // sorted; includes header
  std::vector<int> latches;      // sources of back edges into header
  /// Exit edges (fromBlock, toBlock) leaving the loop body.
  std::vector<std::pair<int, int>> exitEdges;
  int parent = -1;               // index of enclosing loop, -1 for top level
  int depth = 1;                 // 1 = outermost

  bool contains(int block) const;
};

class LoopInfo {
 public:
  static LoopInfo build(const ir::Function& f, const DomTree& dom);
  static LoopInfo build(const ir::Function& f) { return build(f, DomTree::build(f)); }

  const std::vector<Loop>& loops() const { return loops_; }

  /// True when `block` is some loop's header.
  bool isHeader(int block) const;

  /// Loop index whose header is `block`, or -1.
  int loopAtHeader(int block) const;

 private:
  std::vector<Loop> loops_;
};

}  // namespace cypress::analysis
