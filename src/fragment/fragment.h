// Fragments and fragmented documents (Section 2.1 of the paper).
//
// An XML tree T is decomposed into disjoint subtrees (fragments). Inside a
// fragment, each missing sub-fragment F_k is represented by a *virtual node*
// labeled F_k; traversals that reach a virtual node know control passes to
// the site holding F_k. The fragmentation induces the *fragment tree* FT,
// whose edges we annotate with the label path between fragment roots — the
// XPath annotations driving the Section 5 optimization.
//
// No constraints are imposed on the fragmentation: fragments nest to any
// depth, at any level, with any sizes (the paper's "most generic possible"
// setting). The only requirement here is that fragment roots are element
// nodes (XPath annotations are label paths).

#ifndef PAXML_FRAGMENT_FRAGMENT_H_
#define PAXML_FRAGMENT_FRAGMENT_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/workload_data.h"
#include "xml/tree.h"

namespace paxml {

/// A node in a fragmented document: (fragment, local node id).
struct GlobalNodeId {
  FragmentId fragment;
  NodeId node;

  bool operator==(const GlobalNodeId& o) const {
    return fragment == o.fragment && node == o.node;
  }
  bool operator<(const GlobalNodeId& o) const {
    return fragment != o.fragment ? fragment < o.fragment : node < o.node;
  }
};

/// One fragment of a fragmented document.
struct Fragment {
  FragmentId id = kNullFragment;

  /// The fragment's local tree; virtual nodes reference child fragment ids.
  Tree tree;

  /// Parent fragment in the fragment tree (kNullFragment for the root).
  FragmentId parent = kNullFragment;

  /// XPath annotation of the edge (parent -> this): labels of the nodes on
  /// the path from the parent fragment's root (exclusive) to this fragment's
  /// root (inclusive), e.g. {"client", "broker"} for the paper's F0 -> F1.
  /// Empty for the root fragment.
  std::vector<Symbol> annotation;

  /// Maps local node ids to node ids of the original (unfragmented) tree.
  /// Virtual nodes map to the root of the referenced fragment's subtree.
  std::vector<NodeId> source_ids;

  /// Child fragments in document order (derived; kept for navigation).
  std::vector<FragmentId> children;

  /// Number of non-virtual nodes.
  size_t PayloadSize() const;

  /// Annotation rendered as "client/broker".
  std::string AnnotationString(const SymbolTable& symbols) const;
};

/// A fragmented document: the fragment list plus the induced fragment tree.
/// Fragment 0 is always the root fragment (contains the original root).
/// The WorkloadData base is the placement layer's view of it: a Cluster
/// holds any workload's fragments; XML-aware code downcasts back via
/// Cluster::doc() after the family check.
class FragmentedDocument : public WorkloadData {
 public:
  FragmentedDocument() = default;
  FragmentedDocument(FragmentedDocument&&) = default;
  FragmentedDocument& operator=(FragmentedDocument&&) = default;

  std::string_view family() const override { return kXmlFamily; }
  size_t fragment_count() const override { return fragments_.size(); }

  const std::vector<Fragment>& fragments() const { return fragments_; }
  std::vector<Fragment>& fragments() { return fragments_; }

  const Fragment& fragment(FragmentId id) const {
    return fragments_[static_cast<size_t>(id)];
  }
  size_t size() const { return fragments_.size(); }

  const std::shared_ptr<SymbolTable>& symbols() const { return symbols_; }
  void set_symbols(std::shared_ptr<SymbolTable> s) { symbols_ = std::move(s); }

  /// Total nodes over all fragments, excluding virtual placeholders
  /// (== node count of the original tree).
  size_t TotalPayloadNodes() const;

  /// Label path from the global root (exclusive) to the root of `id`
  /// (inclusive): the concatenation of annotations along the fragment tree.
  std::vector<Symbol> PathFromGlobalRoot(FragmentId id) const;

  /// Reconstructs the original tree by splicing fragments together.
  /// (What NaiveCentralized does after shipping everything to one site.)
  /// When `mapping` is non-null, it receives, per assembled node id, the
  /// (fragment, local node) the node came from.
  Tree Assemble(std::vector<GlobalNodeId>* mapping = nullptr) const;

  /// Structural integrity: exactly one root fragment; virtual refs resolve;
  /// parent/children symmetry; annotations consistent with the trees;
  /// source_ids populated.
  Status Validate() const;

  /// Human-readable fragment table (id, parent, annotation, nodes, bytes).
  std::string DebugString() const;

  void AddFragment(Fragment f) { fragments_.push_back(std::move(f)); }

 private:
  std::vector<Fragment> fragments_;
  std::shared_ptr<SymbolTable> symbols_;
};

}  // namespace paxml

#endif  // PAXML_FRAGMENT_FRAGMENT_H_
