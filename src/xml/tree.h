// The XML tree data model.
//
// A Tree is an arena of nodes addressed by dense NodeIds. Node kinds:
//   * element  — labeled interior node (label interned in a SymbolTable),
//   * text     — leaf carrying a character-data string,
//   * virtual  — placeholder standing for a missing sub-fragment of a
//                distributed document (Section 2.1 of the paper). A virtual
//                node records the id of the fragment it stands for.
//
// The arena layout (contiguous structs, first-child/next-sibling links) keeps
// traversals cache-friendly. A node is always created after its parent, so a
// parent's id is smaller than its children's in every tree: one reverse pass
// over the arena folds children into parents (SerializedSizes).
//
// Document order. A tree whose nodes were appended in document order has
// ids that *are* document order: every node's subtree is the id range that
// starts at it, and a forward scan of the arena is a pre-order walk. The
// tree keeps this as a checked property (InDocumentOrder), cleared by the
// first append that breaks it. The parser, TreeBuilder, the fragmenter's
// copy, FragmentedDocument::Assemble and LoadDocument (which parses) all
// append in document order. A hand-built tree need not: adding a child to x
// once a node after x but outside its subtree exists breaks it. PaX2's site
// pass scans fragment arenas and checks the property.

#ifndef PAXML_XML_TREE_H_
#define PAXML_XML_TREE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "xml/symbol_table.h"

namespace paxml {

// NodeId / FragmentId live in common/ids.h (shared with the graph
// workload; the runtime layer routes by them without this header).

enum class NodeKind : uint8_t {
  kElement = 0,
  kText = 1,
  kVirtual = 2,
};

/// One attribute on an element. Class-X queries do not address attributes,
/// but the parser/serializer preserve them so real XML round-trips.
struct Attribute {
  Symbol name;
  std::string value;
};

/// POD node record. 32 bytes; members ordered to avoid padding waste.
struct Node {
  NodeId parent = kNullNode;
  NodeId first_child = kNullNode;
  NodeId last_child = kNullNode;
  NodeId next_sibling = kNullNode;
  Symbol label = kInvalidSymbol;       ///< element label; unused otherwise
  int32_t text_index = -1;             ///< text pool index for text nodes
  FragmentId fragment_ref = kNullFragment;  ///< for virtual nodes
  NodeKind kind = NodeKind::kElement;
  /// The node or one of its descendants is virtual. Kept by AddVirtual,
  /// the only way a virtual node enters a tree.
  bool virtual_below = false;
};
static_assert(sizeof(Node) == 32, "Node must stay 32 bytes");

/// A rooted ordered tree of elements, text and virtual nodes.
class Tree {
 public:
  /// Creates an empty tree sharing `symbols` (nullptr -> process-wide table).
  explicit Tree(std::shared_ptr<SymbolTable> symbols = nullptr);

  Tree(Tree&&) = default;
  Tree& operator=(Tree&&) = default;
  Tree(const Tree&) = delete;
  Tree& operator=(const Tree&) = delete;

  /// Deep copy (same symbol table).
  Tree Clone() const;

  // ---- Construction ------------------------------------------------------

  /// Appends a new element labeled `label` under `parent`
  /// (parent == kNullNode makes it the root; the tree must then be empty).
  NodeId AddElement(NodeId parent, std::string_view label);
  NodeId AddElement(NodeId parent, Symbol label);

  /// Appends a new text node under `parent` (must not be kNullNode).
  NodeId AddText(NodeId parent, std::string_view text);

  /// Appends a virtual node standing for fragment `ref` under `parent`,
  /// marking it and its ancestors HasVirtualBelow.
  NodeId AddVirtual(NodeId parent, FragmentId ref);

  /// Adds an attribute to element `node`.
  void AddAttribute(NodeId node, std::string_view name, std::string_view value);

  // ---- Accessors ---------------------------------------------------------

  /// Root node id; kNullNode for an empty tree.
  NodeId root() const { return nodes_.empty() ? kNullNode : 0; }

  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  const Node& node(NodeId id) const { return nodes_[static_cast<size_t>(id)]; }

  NodeKind kind(NodeId id) const { return node(id).kind; }
  bool IsElement(NodeId id) const { return kind(id) == NodeKind::kElement; }
  bool IsText(NodeId id) const { return kind(id) == NodeKind::kText; }
  bool IsVirtual(NodeId id) const { return kind(id) == NodeKind::kVirtual; }

  /// True iff `id` or one of its descendants is virtual: below a node
  /// without it, partial evaluation has no unknowns.
  bool HasVirtualBelow(NodeId id) const { return node(id).virtual_below; }

  /// True iff every node was appended in document order, so node ids are
  /// document order and the subtree of `id` is [id, SubtreeEnd(id)). Kept
  /// by every append (an empty tree has it); Clone copies it.
  bool InDocumentOrder() const { return in_document_order_; }

  /// The first id after the subtree of `id` (size() if none): the next
  /// sibling of the nearest ancestor-or-self that has one. Precondition:
  /// InDocumentOrder().
  NodeId SubtreeEnd(NodeId id) const;

  NodeId parent(NodeId id) const { return node(id).parent; }
  NodeId first_child(NodeId id) const { return node(id).first_child; }
  NodeId next_sibling(NodeId id) const { return node(id).next_sibling; }

  /// Element label symbol (kInvalidSymbol for non-elements).
  Symbol label(NodeId id) const { return node(id).label; }

  /// Element label as a string. Precondition: IsElement(id).
  const std::string& LabelName(NodeId id) const;

  /// Text content of a text node. Precondition: IsText(id).
  std::string_view text(NodeId id) const;

  /// Fragment referenced by a virtual node. Precondition: IsVirtual(id).
  FragmentId fragment_ref(NodeId id) const { return node(id).fragment_ref; }

  /// Attributes of `node` (empty span if none).
  const std::vector<Attribute>& attributes(NodeId node) const;
  bool HasAttributes(NodeId node) const;

  /// Concatenated text of the node's direct text children.
  std::string DirectText(NodeId id) const;

  /// True iff some direct text child equals `value`.
  bool HasTextChild(NodeId id, std::string_view value) const;

  /// Numeric value of the first parseable direct text child, if any.
  std::optional<double> NumericValue(NodeId id) const;

  const std::shared_ptr<SymbolTable>& symbols() const { return symbols_; }

  /// Serialized size of every node's subtree, indexed by NodeId: what
  /// SerializeXml(*this, v) emits for an element or virtual node, the
  /// escaped text for a text node (see xml/serializer.h SerializedSize).
  /// Built on first use in one pass over the arena, once even when many
  /// threads ask at the same time; any Add* drops it and Clone does not
  /// copy it. A side array, so Node stays 32 bytes.
  const std::vector<uint64_t>& SerializedSizes() const;

  // ---- Iteration ---------------------------------------------------------

  /// Range over the children of `id`, usable in range-for.
  class ChildRange {
   public:
    class Iterator {
     public:
      Iterator(const Tree* tree, NodeId cur) : tree_(tree), cur_(cur) {}
      NodeId operator*() const { return cur_; }
      Iterator& operator++() {
        cur_ = tree_->next_sibling(cur_);
        return *this;
      }
      bool operator!=(const Iterator& o) const { return cur_ != o.cur_; }

     private:
      const Tree* tree_;
      NodeId cur_;
    };
    ChildRange(const Tree* tree, NodeId parent) : tree_(tree), parent_(parent) {}
    Iterator begin() const {
      return Iterator(tree_, parent_ == kNullNode ? kNullNode
                                                  : tree_->first_child(parent_));
    }
    Iterator end() const { return Iterator(tree_, kNullNode); }

   private:
    const Tree* tree_;
    NodeId parent_;
  };

  ChildRange children(NodeId id) const { return ChildRange(this, id); }

  /// Number of children of `id`.
  size_t ChildCount(NodeId id) const;

  /// Ids of all nodes in the subtree rooted at `id`, in document order.
  std::vector<NodeId> SubtreeIds(NodeId id) const;

  /// Number of nodes in the subtree rooted at `id`.
  size_t SubtreeSize(NodeId id) const;

  /// Depth of `id` (root has depth 0).
  int Depth(NodeId id) const;

  /// Label path root -> id, e.g. "clientele/client/broker". Virtual and text
  /// nodes contribute no step. Excludes `id` itself when `inclusive` is false.
  std::string LabelPath(NodeId id, bool inclusive = true) const;

  /// All virtual nodes of this tree, in document order.
  std::vector<NodeId> VirtualNodes() const;

  // ---- Integrity ---------------------------------------------------------

  /// Verifies structural invariants (parent/child symmetry, acyclicity,
  /// single root, text/virtual leaves). Used by tests and debug assertions.
  Status Validate() const;

 private:
  friend std::vector<uint64_t> ComputeSerializedSizes(const Tree& tree);

  /// The lazily built SerializedSizes table. Behind a pointer because
  /// std::once_flag cannot move, and Tree must.
  struct SizeTable {
    std::once_flag once;
    bool built = false;
    std::vector<uint64_t> bytes;
  };

  NodeId NewNode(NodeId parent, NodeKind kind);
  void DropSizes();

  std::shared_ptr<SymbolTable> symbols_;
  std::vector<Node> nodes_;
  std::vector<std::string> texts_;
  // Sparse: most elements carry no attributes.
  std::unordered_map<NodeId, std::vector<Attribute>> attributes_;
  std::unique_ptr<SizeTable> sizes_;
  bool in_document_order_ = true;
};

}  // namespace paxml

#endif  // PAXML_XML_TREE_H_
