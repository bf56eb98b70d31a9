#include "cst/tree.hpp"

#include <cctype>
#include <cstdint>
#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace cypress::cst {

const char* nodeKindName(NodeKind k) {
  switch (k) {
    case NodeKind::Root: return "root";
    case NodeKind::Loop: return "loop";
    case NodeKind::Branch: return "branch";
    case NodeKind::Call: return "call";
    case NodeKind::Comm: return "comm";
  }
  return "?";
}

void Tree::reset(std::unique_ptr<Node> root) {
  root_ = std::move(root);
  byGid_.clear();
  slot_.clear();
  kindCount_.fill(0);
  CYP_CHECK(root_ != nullptr, "CST reset with null root");
  // Pre-order GID assignment (paper §III-A).
  std::vector<Node*> stack = {root_.get()};
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    n->gid = static_cast<int>(byGid_.size());
    byGid_.push_back(n);
    slot_.push_back(kindCount_[static_cast<size_t>(n->kind)]++);
    for (auto it = n->children.rbegin(); it != n->children.rend(); ++it) {
      (*it)->parent = n;
      stack.push_back(it->get());
    }
  }
}

const Node* Tree::childByStruct(const Node* ctx, int structId, int pathIndex) {
  for (const auto& c : ctx->children) {
    if ((c->kind == NodeKind::Loop || c->kind == NodeKind::Branch) &&
        c->structId == structId &&
        (pathIndex < 0 || c->kind == NodeKind::Loop ||
         c->pathIndex == pathIndex)) {
      return c.get();
    }
  }
  return nullptr;
}

const Node* Tree::childByCallSite(const Node* ctx, int callSiteId) {
  for (const auto& c : ctx->children)
    if (c->kind == NodeKind::Comm && c->callSiteId == callSiteId) return c.get();
  return nullptr;
}

const Node* Tree::childByCallInstr(const Node* ctx, int callInstrId) {
  for (const auto& c : ctx->children)
    if (c->kind == NodeKind::Call && c->callInstrId == callInstrId) return c.get();
  return nullptr;
}

const Node* Tree::enclosingRecursionLoop(const Node* ctx, const std::string& func) {
  for (const Node* n = ctx; n != nullptr; n = n->parent)
    if (n->kind == NodeKind::Loop && n->recursionLoop && n->func == func) return n;
  return nullptr;
}

namespace {

void dump(const Node& n, int depth, std::ostringstream& os) {
  for (int i = 0; i < depth; ++i) os << "  ";
  os << n.gid << ":" << nodeKindName(n.kind);
  switch (n.kind) {
    case NodeKind::Loop:
      os << " s" << n.structId;
      if (n.recursionLoop) os << " rec";
      break;
    case NodeKind::Branch:
      os << " s" << n.structId << " path" << n.pathIndex;
      break;
    case NodeKind::Comm:
      os << " " << ir::mpiOpName(n.op) << " site" << n.callSiteId;
      break;
    case NodeKind::Call:
      os << " ci" << n.callInstrId;
      break;
    case NodeKind::Root:
      break;
  }
  if (!n.label.empty()) os << " (" << n.label << ")";
  os << "\n";
  for (const auto& c : n.children) dump(*c, depth + 1, os);
}

void writeText(const Node& n, std::ostringstream& os) {
  os << '(' << static_cast<int>(n.kind) << ' ' << n.structId << ' '
     << n.pathIndex << ' ' << n.callSiteId << ' ' << static_cast<int>(n.op)
     << ' ' << n.callInstrId << ' ' << (n.recursionLoop ? 1 : 0) << ' '
     << n.func << '|' << n.label << '|';
  for (const auto& c : n.children) writeText(*c, os);
  os << ')';
}

struct TextParser {
  /// Nesting bound: legitimate CSTs are as deep as the program's loop
  /// and call structure; a parenthesis bomb in a corrupt stream would
  /// otherwise recurse until the stack overflows. 256 is far above any
  /// real program and shallow enough to be safe even under sanitizer
  /// builds with oversized stack frames.
  static constexpr int kMaxDepth = 256;

  const std::string& s;
  size_t pos = 0;
  int depth = 0;

  char peek() const { return pos < s.size() ? s[pos] : '\0'; }
  void expect(char c) {
    CYP_CHECK(peek() == c, "CST text: expected '" << c << "' at " << pos);
    ++pos;
  }
  int64_t integer() {
    bool neg = false;
    if (peek() == '-') {
      neg = true;
      ++pos;
    }
    CYP_CHECK(isdigit(static_cast<unsigned char>(peek())), "CST text: bad int at " << pos);
    int64_t v = 0;
    while (isdigit(static_cast<unsigned char>(peek()))) {
      const int64_t d = s[pos++] - '0';
      CYP_CHECK(v <= (INT64_MAX - d) / 10, "CST text: integer overflow at " << pos);
      v = v * 10 + d;
    }
    return neg ? -v : v;
  }
  void skipSpace() {
    while (peek() == ' ') ++pos;
  }
  std::string untilPipe() {
    std::string out;
    while (peek() != '|') {
      CYP_CHECK(peek() != '\0', "CST text: unterminated string at " << pos);
      out.push_back(s[pos++]);
    }
    ++pos;
    return out;
  }

  std::unique_ptr<Node> node() {
    CYP_CHECK(depth < kMaxDepth, "CST text: nesting deeper than " << kMaxDepth);
    ++depth;
    expect('(');
    auto n = std::make_unique<Node>();
    const int64_t kind = integer();
    CYP_CHECK(kind >= 0 && kind <= static_cast<int64_t>(NodeKind::Comm),
              "CST text: bad node kind " << kind << " at " << pos);
    n->kind = static_cast<NodeKind>(kind);
    skipSpace();
    n->structId = static_cast<int>(integer());
    skipSpace();
    n->pathIndex = static_cast<int>(integer());
    skipSpace();
    n->callSiteId = static_cast<int>(integer());
    skipSpace();
    const int64_t op = integer();
    CYP_CHECK(op >= 0 && op <= 255 && ir::isValidMpiOp(static_cast<uint8_t>(op)),
              "CST text: bad op " << op << " at " << pos);
    n->op = static_cast<ir::MpiOp>(op);
    skipSpace();
    n->callInstrId = static_cast<int>(integer());
    skipSpace();
    n->recursionLoop = integer() != 0;
    skipSpace();
    n->func = untilPipe();
    n->label = untilPipe();
    while (peek() == '(') n->addChild(node());
    expect(')');
    --depth;
    return n;
  }
};

size_t nodeBytes(const Node& n) {
  size_t total = sizeof(Node) + n.func.capacity() + n.label.capacity() +
                 n.children.capacity() * sizeof(std::unique_ptr<Node>);
  for (const auto& c : n.children) total += nodeBytes(*c);
  return total;
}

}  // namespace

std::string Tree::toString() const {
  std::ostringstream os;
  if (root_) dump(*root_, 0, os);
  return os.str();
}

std::string Tree::toText() const {
  std::ostringstream os;
  os << "CST1 ";
  if (root_) writeText(*root_, os);
  return os.str();
}

Tree Tree::fromText(const std::string& text) {
  CYP_CHECK(text.rfind("CST1 ", 0) == 0, "CST text: bad header");
  TextParser p{text, 5};
  Tree t;
  t.reset(p.node());
  CYP_CHECK(p.pos == text.size(), "CST text: trailing bytes at " << p.pos);
  return t;
}

size_t Tree::memoryBytes() const {
  size_t total = sizeof(*this) + byGid_.capacity() * sizeof(Node*) +
                 slot_.capacity() * sizeof(int);
  if (root_) total += nodeBytes(*root_);
  return total;
}

}  // namespace cypress::cst
