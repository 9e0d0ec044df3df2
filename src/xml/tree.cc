#include "xml/tree.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "xml/serializer.h"

namespace paxml {

Tree::Tree(std::shared_ptr<SymbolTable> symbols)
    : symbols_(symbols ? std::move(symbols) : SymbolTable::Shared()),
      sizes_(std::make_unique<SizeTable>()) {}

Tree Tree::Clone() const {
  Tree copy(symbols_);
  copy.nodes_ = nodes_;
  copy.texts_ = texts_;
  copy.attributes_ = attributes_;
  copy.in_document_order_ = in_document_order_;
  return copy;
}

void Tree::DropSizes() {
  // A moved-from tree has no table; a built one no longer fits the tree.
  if (sizes_ == nullptr || sizes_->built) {
    sizes_ = std::make_unique<SizeTable>();
  }
}

NodeId Tree::NewNode(NodeId parent, NodeKind kind) {
  if (parent == kNullNode) {
    PAXML_CHECK(nodes_.empty());  // only the first node may be parentless
  } else {
    PAXML_CHECK_LT(static_cast<size_t>(parent), nodes_.size());
    PAXML_CHECK(nodes_[static_cast<size_t>(parent)].kind == NodeKind::kElement);
  }
  DropSizes();
  const NodeId id = static_cast<NodeId>(nodes_.size());
  if (parent != kNullNode && in_document_order_) {
    // The new node follows `parent`'s whole subtree iff `parent` is the
    // last node or one of its ancestors. Ids fall along an ancestor chain,
    // and each node walked past leaves the rightmost path for good, so a
    // document-order build walks each node at most once.
    NodeId u = id - 1;
    while (u > parent) u = nodes_[static_cast<size_t>(u)].parent;
    in_document_order_ = u == parent;
  }
  Node n;
  n.parent = parent;
  n.kind = kind;
  nodes_.push_back(n);
  if (parent != kNullNode) {
    Node& p = nodes_[static_cast<size_t>(parent)];
    if (p.last_child == kNullNode) {
      p.first_child = p.last_child = id;
    } else {
      nodes_[static_cast<size_t>(p.last_child)].next_sibling = id;
      p.last_child = id;
    }
  }
  return id;
}

NodeId Tree::AddElement(NodeId parent, std::string_view label) {
  return AddElement(parent, symbols_->Intern(label));
}

NodeId Tree::AddElement(NodeId parent, Symbol label) {
  const NodeId id = NewNode(parent, NodeKind::kElement);
  nodes_[static_cast<size_t>(id)].label = label;
  return id;
}

NodeId Tree::AddText(NodeId parent, std::string_view text) {
  PAXML_CHECK_NE(parent, kNullNode);
  const NodeId id = NewNode(parent, NodeKind::kText);
  nodes_[static_cast<size_t>(id)].text_index = static_cast<int32_t>(texts_.size());
  texts_.emplace_back(text);
  return id;
}

NodeId Tree::AddVirtual(NodeId parent, FragmentId ref) {
  PAXML_CHECK_NE(parent, kNullNode);
  const NodeId id = NewNode(parent, NodeKind::kVirtual);
  nodes_[static_cast<size_t>(id)].fragment_ref = ref;
  // Up to the first ancestor already marked: its own ancestors are too.
  for (NodeId v = id; v != kNullNode;) {
    Node& n = nodes_[static_cast<size_t>(v)];
    if (n.virtual_below) break;
    n.virtual_below = true;
    v = n.parent;
  }
  return id;
}

void Tree::AddAttribute(NodeId node, std::string_view name,
                        std::string_view value) {
  PAXML_CHECK(IsElement(node));
  DropSizes();
  attributes_[node].push_back(
      Attribute{symbols_->Intern(name), std::string(value)});
}

const std::vector<uint64_t>& Tree::SerializedSizes() const {
  static const std::vector<uint64_t> kEmpty;
  if (nodes_.empty()) return kEmpty;  // also a moved-from tree
  SizeTable& table = *sizes_;
  std::call_once(table.once, [&] {
    table.bytes = ComputeSerializedSizes(*this);
    table.built = true;
  });
  return table.bytes;
}

const std::string& Tree::LabelName(NodeId id) const {
  PAXML_CHECK(IsElement(id));
  return symbols_->Name(label(id));
}

std::string_view Tree::text(NodeId id) const {
  PAXML_CHECK(IsText(id));
  return texts_[static_cast<size_t>(node(id).text_index)];
}

const std::vector<Attribute>& Tree::attributes(NodeId node) const {
  static const std::vector<Attribute> kNone;
  auto it = attributes_.find(node);
  return it == attributes_.end() ? kNone : it->second;
}

bool Tree::HasAttributes(NodeId node) const {
  return attributes_.find(node) != attributes_.end();
}

std::string Tree::DirectText(NodeId id) const {
  std::string out;
  for (NodeId c : children(id)) {
    if (IsText(c)) out.append(text(c));
  }
  return out;
}

bool Tree::HasTextChild(NodeId id, std::string_view value) const {
  for (NodeId c : children(id)) {
    if (IsText(c) && text(c) == value) return true;
  }
  return false;
}

std::optional<double> Tree::NumericValue(NodeId id) const {
  for (NodeId c : children(id)) {
    if (!IsText(c)) continue;
    if (auto v = ParseNumber(text(c))) return v;
  }
  return std::nullopt;
}

NodeId Tree::SubtreeEnd(NodeId id) const {
  PAXML_CHECK(in_document_order_);
  for (NodeId u = id; u != kNullNode; u = parent(u)) {
    if (next_sibling(u) != kNullNode) return next_sibling(u);
  }
  return static_cast<NodeId>(nodes_.size());
}

size_t Tree::ChildCount(NodeId id) const {
  size_t n = 0;
  for (NodeId c = first_child(id); c != kNullNode; c = next_sibling(c)) ++n;
  return n;
}

std::vector<NodeId> Tree::SubtreeIds(NodeId id) const {
  std::vector<NodeId> out;
  std::vector<NodeId> stack = {id};
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    out.push_back(v);
    // Push children reversed so they pop in document order.
    std::vector<NodeId> kids;
    for (NodeId c : children(v)) kids.push_back(c);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  return out;
}

size_t Tree::SubtreeSize(NodeId id) const {
  size_t n = 0;
  std::vector<NodeId> stack = {id};
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    ++n;
    for (NodeId c : children(v)) stack.push_back(c);
  }
  return n;
}

int Tree::Depth(NodeId id) const {
  int d = 0;
  for (NodeId p = parent(id); p != kNullNode; p = parent(p)) ++d;
  return d;
}

std::string Tree::LabelPath(NodeId id, bool inclusive) const {
  std::vector<std::string> steps;
  NodeId v = inclusive ? id : parent(id);
  for (; v != kNullNode; v = parent(v)) {
    if (IsElement(v)) steps.push_back(LabelName(v));
  }
  std::reverse(steps.begin(), steps.end());
  return Join(steps, "/");
}

std::vector<NodeId> Tree::VirtualNodes() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
    if (IsVirtual(id)) out.push_back(id);
  }
  return out;
}

Status Tree::Validate() const {
  if (nodes_.empty()) return Status::OK();
  size_t reachable = 0;
  std::vector<NodeId> stack = {root()};
  std::vector<bool> seen(nodes_.size(), false);
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    if (v < 0 || static_cast<size_t>(v) >= nodes_.size()) {
      return Status::Internal("node id out of range");
    }
    if (seen[static_cast<size_t>(v)]) {
      return Status::Internal("cycle or shared node detected");
    }
    seen[static_cast<size_t>(v)] = true;
    ++reachable;
    const Node& n = node(v);
    if (n.kind != NodeKind::kElement && n.first_child != kNullNode) {
      return Status::Internal("non-element node has children");
    }
    if (n.kind == NodeKind::kElement && n.label == kInvalidSymbol) {
      return Status::Internal("element without label");
    }
    for (NodeId c = n.first_child; c != kNullNode; c = next_sibling(c)) {
      if (parent(c) != v) return Status::Internal("parent/child mismatch");
      stack.push_back(c);
    }
  }
  if (reachable != nodes_.size()) {
    return Status::Internal("unreachable nodes in arena");
  }
  if (node(root()).parent != kNullNode) {
    return Status::Internal("root has a parent");
  }
  return Status::OK();
}

}  // namespace paxml
