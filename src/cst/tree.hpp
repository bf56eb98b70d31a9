// The Communication Structure Tree (CST), paper §III.
//
// An ordered tree whose pre-order traversal matches the static program
// structure. Leaf nodes are MPI communication invocations; interior
// nodes are loops, branch paths, inlined function instances (created by
// the inter-procedural pass) and the virtual root. Every vertex carries
// a pre-order GID.
//
// Runtime navigation contract: the dynamic module tracks a "current
// context" vertex. Structure markers in the IR carry *function-local*
// structure ids; entering a structure resolves that id among the direct
// children of the current context, entering a user function resolves the
// Call instruction's id the same way. This is how one static program
// location maps onto the correct CST instance even when a function is
// inlined at many call sites.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/ir.hpp"

namespace cypress::cst {

enum class NodeKind : uint8_t {
  Root,      // virtual root
  Loop,      // natural loop, or the pseudo-loop of a recursive function
  Branch,    // one path (arm) of a conditional
  Call,      // inlined user-function instance
  Comm,      // MPI communication invocation (leaf)
};
inline constexpr size_t kNodeKinds = 5;

const char* nodeKindName(NodeKind k);

struct Node {
  NodeKind kind = NodeKind::Root;
  int gid = -1;  // pre-order id over the final tree

  // Loop / Branch: function-local structure id (matches the IR's
  // struct_enter/struct_exit markers in `func`).
  int structId = -1;
  // Branch: successor index of the conditional (0 = taken, 1 = not).
  int pathIndex = -1;
  // Comm: module-unique MPI call-site id and operation.
  int callSiteId = -1;
  ir::MpiOp op = ir::MpiOp::Barrier;
  // Call: module-unique id of the Call instruction this instance inlines.
  int callInstrId = -1;
  // Loop: true when this is the pseudo-loop of a recursive function
  // (paper Figure 8); recursive re-entry counts as an iteration.
  bool recursionLoop = false;

  std::string func;   // defining function (diagnostics + marker scoping)
  std::string label;  // human-readable provenance, e.g. "loop@main#1"

  Node* parent = nullptr;
  std::vector<std::unique_ptr<Node>> children;

  Node* addChild(std::unique_ptr<Node> c) {
    c->parent = this;
    children.push_back(std::move(c));
    return children.back().get();
  }
};

/// A finalized program CST with pre-order GIDs and per-node child lookup
/// indexes for O(log c) runtime navigation.
class Tree {
 public:
  Tree() = default;
  explicit Tree(std::unique_ptr<Node> root) { reset(std::move(root)); }

  Tree(Tree&&) = default;
  Tree& operator=(Tree&&) = default;

  /// Re-root and recompute GIDs + lookup tables.
  void reset(std::unique_ptr<Node> root);

  const Node* root() const { return root_.get(); }
  Node* root() { return root_.get(); }
  int numNodes() const { return static_cast<int>(byGid_.size()); }
  const Node* byGid(int gid) const { return byGid_[static_cast<size_t>(gid)]; }

  /// Pre-order index of vertex `gid` among the vertices of its own
  /// kind: per-kind payload arrays (a CTT's loop counts, branch
  /// outcomes, leaf records) are indexed by it and sized by kindCount.
  int slot(int gid) const { return slot_[static_cast<size_t>(gid)]; }
  int kindCount(NodeKind k) const { return kindCount_[static_cast<size_t>(k)]; }

  /// Direct child of `ctx` that is the Loop/Branch structure with the
  /// given function-local id (entered path disambiguated by pathIndex for
  /// branches). Returns nullptr when the structure was pruned.
  static const Node* childByStruct(const Node* ctx, int structId, int pathIndex);

  /// Direct child Comm leaf for an MPI call site; nullptr if pruned.
  static const Node* childByCallSite(const Node* ctx, int callSiteId);

  /// Direct child Call instance for a Call instruction; nullptr if pruned.
  static const Node* childByCallInstr(const Node* ctx, int callInstrId);

  /// Nearest ancestor (including ctx) that is the recursion pseudo-loop
  /// of function `func`; nullptr when not currently inside it.
  static const Node* enclosingRecursionLoop(const Node* ctx, const std::string& func);

  /// Human-readable dump (indented, one node per line), for tests.
  std::string toString() const;

  /// Compact text serialization ("compressed text file" of the paper when
  /// combined with flate); parse with fromText.
  std::string toText() const;
  static Tree fromText(const std::string& text);

  /// Approximate heap footprint, for memory-overhead accounting.
  size_t memoryBytes() const;

 private:
  std::unique_ptr<Node> root_;
  std::vector<Node*> byGid_;
  std::vector<int> slot_;
  std::array<int, kNodeKinds> kindCount_{};
};

}  // namespace cypress::cst
