// The bottom-up qualifier pass (extended ParBoX, Section 3.1).
//
// One post-order traversal computes, for every node v and every QVect entry
// e, the vectors
//    QV_v(e)  — e matches at v (see query_plan.h for the exact semantics),
//    QDV_v(e) — e matches at v or at some descendant of v,
// using only the children's vectors (locality is what makes per-fragment
// partial evaluation possible). Virtual nodes take their (QV, QDV) rows from
// a hook — constants in a centralized run, fresh variables in a partial run.
//
// The per-node step, ComputeQualRowsAtNode, is the one place this work is
// done. It reads the children's rows through a callback and writes the
// node's rows to caller-given storage, so callers choose where rows live:
// RunQualifierPass (PaX3, ParBoX, the centralized evaluator) keeps a full
// |T| x |E| matrix, PaX2's combined pass (core/pax2.cc) a stack holding only
// the rows of finished nodes whose parent is still open. The children
// aggregates go to caller-owned QualScratch, reused from node to node, so
// the step itself never allocates.
//
// Cost: O(|E| * |T|) domain operations, |E| = number of QVect entries.

#ifndef PAXML_EVAL_QUALIFIER_PASS_H_
#define PAXML_EVAL_QUALIFIER_PASS_H_

#include <functional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "eval/domain.h"
#include "xml/tree.h"
#include "xpath/query_plan.h"

namespace paxml {

/// Flat per-node qualifier vectors (row-major: node * entry_count + entry).
template <typename D>
struct QualVectors {
  using Value = typename D::Value;

  size_t entry_count = 0;
  std::vector<Value> qv;
  std::vector<Value> qdv;

  Value QV(NodeId v, int e) const {
    return qv[static_cast<size_t>(v) * entry_count + static_cast<size_t>(e)];
  }
  Value QDV(NodeId v, int e) const {
    return qdv[static_cast<size_t>(v) * entry_count + static_cast<size_t>(e)];
  }
  Value* QVRow(NodeId v) { return qv.data() + static_cast<size_t>(v) * entry_count; }
  Value* QDVRow(NodeId v) { return qdv.data() + static_cast<size_t>(v) * entry_count; }
  const Value* QVRow(NodeId v) const {
    return qv.data() + static_cast<size_t>(v) * entry_count;
  }
  const Value* QDVRow(NodeId v) const {
    return qdv.data() + static_cast<size_t>(v) * entry_count;
  }
};

/// Supplies (QV, QDV) rows for virtual nodes. Entry index is the second
/// argument. When absent, virtual nodes contribute all-false rows (inert).
template <typename V>
using VirtualQualHook = std::function<std::pair<V, V>(NodeId, int)>;

namespace eval_internal {

/// Does the entry's node test hold at v? Always a concrete boolean.
inline bool EntryTestMatches(const Tree& tree, NodeId v,
                             const CompiledQuery::Entry& e) {
  switch (e.test) {
    case TestKind::kLabel:
      return tree.IsElement(v) && tree.label(v) == e.label;
    case TestKind::kWildcard:
      return tree.IsElement(v);
    case TestKind::kAnyNode:
      return true;
    case TestKind::kTextEq:
      return tree.IsText(v) && tree.text(v) == e.text;
    case TestKind::kValCmp: {
      if (!tree.IsText(v)) return false;
      auto num = ParseNumber(tree.text(v));
      return num && EvalCmp(e.op, *num, e.number);
    }
  }
  return false;
}

}  // namespace eval_internal

/// Caller-owned scratch of the per-node qualifier step: the children
/// aggregates it computes before the node's own rows,
///   qcv[e]  = OR_child QV_child(e)      (some child matches)
///   qadv[e] = OR_child QDV_child(e)     (some proper descendant matches).
/// One scratch reused across a traversal keeps the step allocation-free.
template <typename D>
struct QualScratch {
  std::vector<typename D::Value> qcv;
  std::vector<typename D::Value> qadv;
};

/// Evaluates qualifier expression `qual_id` at a node from its children
/// aggregates (`agg`, filled by ComputeQualRowsAtNode) and its own rows.
/// Atom lookups on the self/descendant-or-self axes read `qv_row` and
/// `qdv_row`; ComputeQualRowsAtNode calls this while filling them, which is
/// sound because an entry's qualifier only names entries with smaller
/// indices (topological order), already final by then.
template <typename D>
typename D::Value EvalQualFromRows(const CompiledQuery& query, D* domain,
                                   const QualScratch<D>& agg,
                                   const typename D::Value* qv_row,
                                   const typename D::Value* qdv_row,
                                   int qual_id) {
  const CompiledQuery::QualNode& n =
      query.qual_nodes()[static_cast<size_t>(qual_id)];
  switch (n.kind) {
    case QualNodeKind::kTrue:
      return domain->True();
    case QualNodeKind::kAtom:
      switch (n.axis) {
        case Axis::kChild:
          return agg.qcv[static_cast<size_t>(n.entry)];
        case Axis::kProperDescendant:
          return agg.qadv[static_cast<size_t>(n.entry)];
        case Axis::kDescendantOrSelf:
          return qdv_row[static_cast<size_t>(n.entry)];
        case Axis::kSelf:
          return qv_row[static_cast<size_t>(n.entry)];
        case Axis::kNone:
          break;
      }
      PAXML_CHECK(false);
      return domain->False();
    case QualNodeKind::kAnd:
      return domain->And(
          EvalQualFromRows(query, domain, agg, qv_row, qdv_row, n.left),
          EvalQualFromRows(query, domain, agg, qv_row, qdv_row, n.right));
    case QualNodeKind::kOr:
      return domain->Or(
          EvalQualFromRows(query, domain, agg, qv_row, qdv_row, n.left),
          EvalQualFromRows(query, domain, agg, qv_row, qdv_row, n.right));
    case QualNodeKind::kNot:
      return domain->Not(
          EvalQualFromRows(query, domain, agg, qv_row, qdv_row, n.left));
  }
  PAXML_CHECK(false);
  return domain->False();
}

/// Computes the QV/QDV rows of a single node from its (already computed)
/// children rows: the post-order step of the bottom-up pass, exposed so that
/// PaX2 can interleave it with its pre-order selection computation.
///
/// `child_rows(k, c)` returns the (QV, QDV) row pointers of `c`, the k-th
/// child of `v` in document order; RunQualifierPass reads them from its
/// per-node matrix, PaX2 from its stack of finished rows. The node's rows
/// are written to `qv_row` / `qdv_row` (entry_count values each), which
/// must not alias a child's rows. `scratch` is sized here and holds the
/// children aggregates on return (see QualScratch).
template <typename D, typename ChildRows>
void ComputeQualRowsAtNode(
    const Tree& tree, const CompiledQuery& query, D* domain, NodeId v,
    const VirtualQualHook<typename D::Value>& virtual_hook,
    const ChildRows& child_rows, typename D::Value* qv_row,
    typename D::Value* qdv_row, QualScratch<D>* scratch,
    uint64_t* counter = nullptr) {
  using Value = typename D::Value;
  const std::vector<CompiledQuery::Entry>& entries = query.entries();
  const size_t ec = entries.size();
  if (ec == 0) return;

  if (tree.IsVirtual(v)) {
    for (size_t e = 0; e < ec; ++e) {
      if (virtual_hook) {
        auto [qv, qdv] = virtual_hook(v, static_cast<int>(e));
        qv_row[e] = qv;
        qdv_row[e] = qdv;
      } else {
        qv_row[e] = domain->False();
        qdv_row[e] = domain->False();
      }
      if (counter) ++*counter;
    }
    return;
  }

  // Aggregates over children, shared by all entries of this node.
  std::vector<Value>& qcv = scratch->qcv;
  std::vector<Value>& qadv = scratch->qadv;
  qcv.assign(ec, domain->False());
  qadv.assign(ec, domain->False());
  size_t k = 0;
  for (NodeId c : tree.children(v)) {
    const auto [cqv, cqdv] = child_rows(k++, c);
    for (size_t e = 0; e < ec; ++e) {
      qcv[e] = domain->Or(qcv[e], cqv[e]);
      qadv[e] = domain->Or(qadv[e], cqdv[e]);
    }
  }

  for (size_t e = 0; e < ec; ++e) {
    const CompiledQuery::Entry& entry = entries[e];
    Value value =
        domain->FromBool(eval_internal::EntryTestMatches(tree, v, entry));
    if (!domain->IsFalse(value)) {
      if (entry.qual >= 0) {
        value = domain->And(value, EvalQualFromRows(query, domain, *scratch,
                                                    qv_row, qdv_row,
                                                    entry.qual));
      }
      switch (entry.rest_axis) {
        case Axis::kNone:
          break;
        case Axis::kChild:
          value = domain->And(value, qcv[static_cast<size_t>(entry.rest)]);
          break;
        case Axis::kProperDescendant:
          value = domain->And(value, qadv[static_cast<size_t>(entry.rest)]);
          break;
        case Axis::kDescendantOrSelf:
          // QDV of the rest at v = QV_v(rest) OR qadv(rest); rest < e, so
          // qdv_row[rest] is already final.
          value = domain->And(value, qdv_row[static_cast<size_t>(entry.rest)]);
          break;
        case Axis::kSelf:
          PAXML_CHECK(false);
          break;
      }
    }
    qv_row[e] = value;
    qdv_row[e] = domain->Or(value, qadv[e]);
    if (counter) ++*counter;
  }
}

/// Computes QualVectors for (a fragment of) `tree` bottom-up.
///
/// `counter`, when non-null, is incremented once per (node, entry) domain
/// operation group — the unit in which the paper states computation costs.
template <typename D>
QualVectors<D> RunQualifierPass(
    const Tree& tree, const CompiledQuery& query, D* domain,
    const VirtualQualHook<typename D::Value>& virtual_hook = {},
    uint64_t* counter = nullptr) {
  const size_t ec = query.entries().size();

  QualVectors<D> out;
  out.entry_count = ec;
  out.qv.assign(tree.size() * ec, domain->False());
  out.qdv.assign(tree.size() * ec, domain->False());
  if (tree.empty() || ec == 0) return out;

  const auto child_rows = [&out](size_t, NodeId c) {
    return std::make_pair(out.QVRow(c), out.QDVRow(c));
  };
  QualScratch<D> scratch;

  // Post-order traversal: children are fully processed before their parent.
  struct Item {
    NodeId v;
    bool expanded;
  };
  std::vector<Item> stack = {{tree.root(), false}};
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    if (!item.expanded) {
      stack.push_back({item.v, true});
      for (NodeId c : tree.children(item.v)) stack.push_back({c, false});
      continue;
    }
    ComputeQualRowsAtNode(tree, query, domain, item.v, virtual_hook,
                          child_rows, out.QVRow(item.v), out.QDVRow(item.v),
                          &scratch, counter);
  }
  return out;
}

/// Evaluates qualifier expression `qual_id` at node `v` from final vectors.
/// Used by the selection pass (Stage 2 of PaX3), where all qualifier values
/// are known (or residual formulas).
template <typename D>
typename D::Value EvalQualAtNode(const Tree& tree, const CompiledQuery& query,
                                 D* domain, const QualVectors<D>& vectors,
                                 NodeId v, int qual_id) {
  using Value = typename D::Value;
  const CompiledQuery::QualNode& n = query.qual_nodes()[static_cast<size_t>(qual_id)];
  switch (n.kind) {
    case QualNodeKind::kTrue:
      return domain->True();
    case QualNodeKind::kAtom: {
      switch (n.axis) {
        case Axis::kChild: {
          Value acc = domain->False();
          for (NodeId c : tree.children(v)) {
            acc = domain->Or(acc, vectors.QV(c, n.entry));
          }
          return acc;
        }
        case Axis::kProperDescendant: {
          Value acc = domain->False();
          for (NodeId c : tree.children(v)) {
            acc = domain->Or(acc, vectors.QDV(c, n.entry));
          }
          return acc;
        }
        case Axis::kDescendantOrSelf:
          return vectors.QDV(v, n.entry);
        case Axis::kSelf:
          return vectors.QV(v, n.entry);
        case Axis::kNone:
          break;
      }
      PAXML_CHECK(false);
      return domain->False();
    }
    case QualNodeKind::kAnd:
      return domain->And(
          EvalQualAtNode(tree, query, domain, vectors, v, n.left),
          EvalQualAtNode(tree, query, domain, vectors, v, n.right));
    case QualNodeKind::kOr:
      return domain->Or(EvalQualAtNode(tree, query, domain, vectors, v, n.left),
                        EvalQualAtNode(tree, query, domain, vectors, v, n.right));
    case QualNodeKind::kNot:
      return domain->Not(
          EvalQualAtNode(tree, query, domain, vectors, v, n.left));
  }
  PAXML_CHECK(false);
  return domain->False();
}

/// Evaluates qualifier expression `qual_id` at the *document node* whose only
/// child is the root, given the root's final rows. Child atoms look at the
/// root element itself; descendant atoms at its descendant-or-self closure;
/// self atoms are false (the document node is not a real node).
template <typename D>
typename D::Value EvalQualAtDoc(const CompiledQuery& query, D* domain,
                                const typename D::Value* root_qv,
                                const typename D::Value* root_qdv,
                                int qual_id) {
  const CompiledQuery::QualNode& n = query.qual_nodes()[static_cast<size_t>(qual_id)];
  switch (n.kind) {
    case QualNodeKind::kTrue:
      return domain->True();
    case QualNodeKind::kAtom:
      switch (n.axis) {
        case Axis::kChild:
          return root_qv[static_cast<size_t>(n.entry)];
        case Axis::kProperDescendant:
        case Axis::kDescendantOrSelf:
          return root_qdv[static_cast<size_t>(n.entry)];
        case Axis::kSelf:
          return domain->False();
        case Axis::kNone:
          break;
      }
      PAXML_CHECK(false);
      return domain->False();
    case QualNodeKind::kAnd:
      return domain->And(
          EvalQualAtDoc(query, domain, root_qv, root_qdv, n.left),
          EvalQualAtDoc(query, domain, root_qv, root_qdv, n.right));
    case QualNodeKind::kOr:
      return domain->Or(
          EvalQualAtDoc(query, domain, root_qv, root_qdv, n.left),
          EvalQualAtDoc(query, domain, root_qv, root_qdv, n.right));
    case QualNodeKind::kNot:
      return domain->Not(
          EvalQualAtDoc(query, domain, root_qv, root_qdv, n.left));
  }
  PAXML_CHECK(false);
  return domain->False();
}

/// EvalQualAtDoc over full vectors, `root` being the tree's root.
template <typename D>
typename D::Value EvalQualAtDoc(const CompiledQuery& query, D* domain,
                                const QualVectors<D>& vectors, NodeId root,
                                int qual_id) {
  return EvalQualAtDoc(query, domain, vectors.QVRow(root),
                       vectors.QDVRow(root), qual_id);
}

}  // namespace paxml

#endif  // PAXML_EVAL_QUALIFIER_PASS_H_
