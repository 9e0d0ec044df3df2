#include "core/pax2.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/answer_stream.h"
#include "core/eval_ft.h"
#include "core/parbox.h"
#include "core/site_eval.h"
#include "core/site_program.h"
#include "core/xml_handlers.h"
#include "fragment/pruning.h"
#include "runtime/coordinator.h"

namespace paxml {
namespace {

/// Result of the combined (single-traversal) pass over one fragment.
struct Pax2FragmentState {
  std::unique_ptr<FormulaArena> arena;

  /// The fragment root's qualifier rows (residuals over x variables): the
  /// only rows the pass keeps, shipped in the QualUp reply.
  std::vector<Formula> root_qv;
  std::vector<Formula> root_qdv;

  /// Nodes whose final selection entry did not collapse to false, with their
  /// residuals over x (qualifiers) and z (ancestors) variables; qz locals
  /// are already substituted out.
  std::vector<std::pair<NodeId, Formula>> finals;

  std::vector<SelUpMessage::VirtualTop> virtual_tops;

  /// Settled during the pass / kept for the final visit.
  std::vector<NodeId> answers;
  std::vector<std::pair<NodeId, Formula>> candidates;

  /// Resolved values received for the final visit (delivered before the
  /// answer request in the same envelope).
  std::optional<SelDownMessage> sel_down;
  std::optional<QualDownMessage> qual_down;
};

/// One node's pre-order selection step (Procedure topDown, Fig. 4): writes
/// SV_v into `vec` from its parent's `parent_vec`, m entries each.
/// `qual_var(qual_id)` supplies the placeholder conjoined wherever a
/// qualifier applies to a live value — a fresh qz local in the combined
/// pass. The one selection step of both the combined pass and the split
/// walk, so the two cannot compute different vectors.
template <typename QualVar>
void SelStep(const Tree& tree, const CompiledQuery& query,
             FormulaDomain* domain, NodeId v, const Formula* parent_vec,
             Formula* vec, const QualVar& qual_var) {
  const auto& sel = query.selection();
  const size_t m = sel.size();
  vec[0] = kFalseFormula;  // the document-node entry is false at real nodes
  for (size_t i = 1; i < m; ++i) {
    const CompiledQuery::SelEntry& e = sel[i];
    switch (e.kind) {
      case SelKind::kLabel:
      case SelKind::kWildcard: {
        const bool term =
            tree.IsElement(v) &&
            (e.kind == SelKind::kWildcard || tree.label(v) == e.label);
        Formula val = term ? parent_vec[i - 1] : kFalseFormula;
        if (term && e.qual >= 0 && !domain->IsFalse(val)) {
          val = domain->And(val, qual_var(e.qual));
        }
        vec[i] = val;
        break;
      }
      case SelKind::kDescend:
        vec[i] = domain->Or(vec[i - 1], parent_vec[i]);
        break;
      case SelKind::kSelfFilter: {
        Formula val = vec[i - 1];
        if (e.qual >= 0 && !domain->IsFalse(val)) {
          val = domain->And(val, qual_var(e.qual));
        }
        vec[i] = val;
        break;
      }
      case SelKind::kRoot:
        PAXML_CHECK(false);
        break;
    }
  }
}

/// The pre-order selection stack, flat: level d holds the selection vector
/// of a depth-d node's parent (level 0 is the fragment's init vector). A
/// node at depth d reads level d and writes its own vector in place at
/// level d+1, so a walk allocates only when it first reaches a new depth.
class SelLevels {
 public:
  explicit SelLevels(std::vector<Formula> init)
      : m_(init.size()), levels_(std::move(init)) {}

  /// The parent vector of a depth-`depth` node.
  const Formula* Parent(uint32_t depth) const {
    return levels_.data() + depth * m_;
  }

  /// The slot of a depth-`depth` node's own vector. Call before Parent:
  /// growing the stack moves it.
  Formula* Own(uint32_t depth) {
    const size_t end = (static_cast<size_t>(depth) + 2) * m_;
    if (levels_.size() < end) levels_.resize(end);
    return levels_.data() + (depth + 1) * m_;
  }

 private:
  size_t m_;
  std::vector<Formula> levels_;
};

/// True iff every entry of an `m`-entry selection vector is false. Every
/// vector below such a node is then all false too (SelStep only carries or
/// ORs its parent's entries, and conjoins a qualifier only onto a live
/// value), so its subtree holds no final and creates no qz local.
bool AllFalse(const Formula* vec, size_t m) {
  return std::all_of(vec, vec + m,
                     [](Formula f) { return f == kFalseFormula; });
}

/// The qualifier step of a node with no virtual node below it. Every value
/// there is a constant, so its QV and QDV rows are bit sets, W =
/// ceil(|QVect| / 64) words each: entry e is bit e % 64 of word e / 64. The
/// step mirrors ComputeQualRowsAtNode and EvalQualFromRows with one word
/// operation covering 64 entries where it can:
///  * qcv / qadv are the word-wise OR of the children's QV / QDV rows;
///  * the node test is a per-label match mask (built once per pass, with
///    the wildcard and any-node entries folded in) for an element, and the
///    any-node mask plus the text tests for a text node;
///  * the matched entries are then visited in ascending order, so an
///    entry's qualifier and rest read only final smaller entries.
class BitQualStep {
 public:
  explicit BitQualStep(const CompiledQuery& query)
      : query_(query),
        entries_(query.entries()),
        words_((entries_.size() + 63) / 64),
        qcv_(words_),
        qadv_(words_),
        element_(words_),
        any_node_(words_),
        text_match_(words_) {
    for (size_t e = 0; e < entries_.size(); ++e) {
      switch (entries_[e].test) {
        case TestKind::kLabel: {
          const Symbol label = entries_[e].label;
          if (label >= label_slot_.size()) label_slot_.resize(label + 1, -1);
          if (label_slot_[label] < 0) {
            label_slot_[label] = static_cast<int32_t>(label_masks_.size());
            label_masks_.resize(label_masks_.size() + words_);
          }
          Set(&label_masks_[static_cast<size_t>(label_slot_[label])], e);
          break;
        }
        case TestKind::kWildcard:
          Set(element_.data(), e);
          break;
        case TestKind::kAnyNode:
          Set(element_.data(), e);
          Set(any_node_.data(), e);
          break;
        case TestKind::kTextEq:
        case TestKind::kValCmp:
          text_entries_.push_back(e);
          break;
      }
    }
    for (size_t at = 0; at < label_masks_.size(); at += words_) {
      for (size_t w = 0; w < words_; ++w) {
        label_masks_[at + w] |= element_[w];
      }
    }
  }

  size_t words() const { return words_; }

  /// Writes v's [QV | QDV] (2W words) to `own` from its children's rows,
  /// the `count` rows at `children` in any order. `own` may be `children`:
  /// the rows are read before it is written. The children aggregates stay
  /// for EvalQual.
  void Compute(const Tree& tree, NodeId v, const uint64_t* children,
               size_t count, uint64_t* own) {
    std::fill(qcv_.begin(), qcv_.end(), 0);
    std::fill(qadv_.begin(), qadv_.end(), 0);
    for (size_t k = 0; k < count; ++k, children += 2 * words_) {
      for (size_t w = 0; w < words_; ++w) {
        qcv_[w] |= children[w];
        qadv_[w] |= children[words_ + w];
      }
    }

    uint64_t* qv = own;
    uint64_t* qdv = own + words_;
    std::fill(qv, qv + words_, 0);
    const uint64_t* match;
    if (tree.IsElement(v)) {
      const Symbol label = tree.label(v);
      match = label < label_slot_.size() && label_slot_[label] >= 0
                  ? &label_masks_[static_cast<size_t>(label_slot_[label])]
                  : element_.data();
    } else {
      PAXML_CHECK(tree.IsText(v));
      std::copy(any_node_.begin(), any_node_.end(), text_match_.begin());
      for (size_t e : text_entries_) {
        if (eval_internal::EntryTestMatches(tree, v, entries_[e])) {
          Set(text_match_.data(), e);
        }
      }
      match = text_match_.data();
    }
    for (size_t w = 0; w < words_; ++w) {
      for (uint64_t m = match[w]; m != 0; m &= m - 1) {
        const size_t e = w * 64 + static_cast<size_t>(__builtin_ctzll(m));
        if (Holds(e, qv)) qv[w] |= uint64_t{1} << (e % 64);
      }
    }
    for (size_t w = 0; w < words_; ++w) qdv[w] = qv[w] | qadv_[w];
  }

  /// Appends the row `own` to `rows` as handles: QV then QDV, one
  /// constant per entry.
  void AppendFormulas(const uint64_t* own, std::vector<Formula>* rows) const {
    for (const uint64_t* row : {own, own + words_}) {
      for (size_t e = 0; e < entries_.size(); ++e) {
        rows->push_back(Get(row, e) ? kTrueFormula : kFalseFormula);
      }
    }
  }

  /// Qualifier `qual_id` at the node whose rows Compute last wrote to
  /// `own`: EvalQualFromRows over bits.
  bool EvalQual(int qual_id, const uint64_t* own) const {
    const CompiledQuery::QualNode& n =
        query_.qual_nodes()[static_cast<size_t>(qual_id)];
    switch (n.kind) {
      case QualNodeKind::kTrue:
        return true;
      case QualNodeKind::kAtom:
        return Reach(n.axis, static_cast<size_t>(n.entry), own);
      case QualNodeKind::kAnd:
        return EvalQual(n.left, own) && EvalQual(n.right, own);
      case QualNodeKind::kOr:
        return EvalQual(n.left, own) || EvalQual(n.right, own);
      case QualNodeKind::kNot:
        return !EvalQual(n.left, own);
    }
    PAXML_CHECK(false);
    return false;
  }

 private:
  static bool Get(const uint64_t* row, size_t e) {
    return (row[e / 64] >> (e % 64)) & 1;
  }
  static void Set(uint64_t* row, size_t e) {
    row[e / 64] |= uint64_t{1} << (e % 64);
  }

  /// Entry `e` holds through `axis` at the node (QV row `qv`, final below
  /// the entry being computed).
  bool Reach(Axis axis, size_t e, const uint64_t* qv) const {
    switch (axis) {
      case Axis::kChild:
        return Get(qcv_.data(), e);
      case Axis::kProperDescendant:
        return Get(qadv_.data(), e);
      case Axis::kDescendantOrSelf:
        return Get(qv, e) || Get(qadv_.data(), e);
      case Axis::kSelf:
        return Get(qv, e);
      case Axis::kNone:
        break;
    }
    PAXML_CHECK(false);
    return false;
  }

  /// QV(e) at the node, given that e's node test matches it.
  bool Holds(size_t e, const uint64_t* qv) const {
    const CompiledQuery::Entry& entry = entries_[e];
    if (entry.qual >= 0 && !EvalQual(entry.qual, qv)) return false;
    return entry.rest_axis == Axis::kNone ||
           Reach(entry.rest_axis, static_cast<size_t>(entry.rest), qv);
  }

  const CompiledQuery& query_;
  const std::vector<CompiledQuery::Entry>& entries_;
  const size_t words_;
  std::vector<uint64_t> qcv_;
  std::vector<uint64_t> qadv_;
  std::vector<int32_t> label_slot_;   ///< Symbol -> W-word slot, -1: none
  std::vector<uint64_t> label_masks_;  ///< per label, element_ folded in
  std::vector<uint64_t> element_;      ///< wildcard and any-node entries
  std::vector<uint64_t> any_node_;     ///< any-node entries
  std::vector<uint64_t> text_match_;   ///< a text node's match mask
  std::vector<size_t> text_entries_;   ///< text and value tests, ascending
};

/// Walks the subtree of `start` in document order as one forward scan of
/// its id range, with no work list (the tree's ids are document order,
/// checked). `open` holds the entered nodes on the path to the current one,
/// each entry with members `v` and `dead`. Before a node is visited, the
/// entries that are not its ancestors are closed (`close(entry)`, innermost
/// first) and popped, so `open->size()` is the node's depth below `start`.
/// A virtual-free child of a dead entry is not visited: `skip(c, end)` gets
/// its subtree's id range [c, end) instead. `visit(v, depth)` pushes an
/// entry for v if the walk is to enter v's children.
template <typename Open, typename Visit, typename Skip, typename Close>
void ScanSubtree(const Tree& tree, NodeId start, std::vector<Open>* open,
                 const Visit& visit, const Skip& skip, const Close& close) {
  PAXML_CHECK(tree.InDocumentOrder());
  const NodeId end = tree.SubtreeEnd(start);
  for (NodeId v = start; v < end;) {
    while (!open->empty() && open->back().v != tree.parent(v)) {
      close(open->back());
      open->pop_back();
    }
    if (!open->empty() && open->back().dead && !tree.HasVirtualBelow(v)) {
      const NodeId next = tree.SubtreeEnd(v);
      skip(v, next);
      v = next;
      continue;
    }
    visit(v, static_cast<uint32_t>(open->size()));
    ++v;
  }
  for (; !open->empty(); open->pop_back()) close(open->back());
}

/// The combined pre/post-order traversal (Procedure evalXPath of Fig. 5),
/// as one document-order scan of the fragment arena (ScanSubtree): a
/// node's pre-order step runs when the scan reaches it, its post-order
/// step when the scan leaves its subtree.
///
/// It skips the work whose result is already a constant:
///  * with no QVect entries, a node whose selection vector is all false
///    enters only the children with a virtual node below them
///    (Tree::HasVirtualBelow), so each virtual top is still reported, all
///    false and in order, and nothing else below it is visited;
///  * with QVect entries, a virtual-free child of such a node owes its
///    parent only its qualifier row: one reverse scan of its subtree's id
///    range runs the post-order bit steps alone, with no selection step;
///  * a node gets a post-order step only when the query has QVect entries
///    (it owes its parent a row) or the node created qz locals;
///  * below a node with no virtual node under it every QV/QDV value, and
///    every qz local resolved from them, is a constant: its rows are bit
///    sets computed by BitQualStep, and become constant handles only where
///    a formula step reads them.
/// None of these interns a formula: the arena folds constants without
/// interning, so every handle is created in the same order as by the full
/// walk, and the shipped bytes are the same.
///
/// Working memory is five stacks, so the pass allocates nothing per node
/// once they have reached their peak size:
///  * `open`, the entered nodes on the current path, each with the heights
///    of `pending` and of its children's row stack when it was entered;
///  * SelLevels, the selection vectors of the current ancestor path;
///  * `pending`, the qz locals not yet resolved. A node's locals are pushed
///    in its pre-order step above its recorded height, and resolved (in
///    creation order) and popped in its post-order step. The root's
///    recorded height is 0, below the leading-qualifier local;
///  * `rows`, the [QV | QDV] handle rows of finished nodes whose parent is
///    still open and has a virtual node below it (and, at the end, the
///    fragment root's). A node's children leave their rows on top in
///    document order; its post-order step folds them into the aggregates,
///    replaces them with its own row, and the root's row is all that
///    remains;
///  * `bits`, the [QV | QDV] bit rows of finished nodes whose parent is
///    still open and virtual-free; a parent ORs them in any order.
/// Every formula is interned in the same order as a pass over full QV/QDV
/// matrices would, so the handles — and the wire bytes — do not depend on
/// where the rows live.
Pax2FragmentState RunCombinedPass(const Fragment& frag,
                                  const CompiledQuery& query,
                                  const std::vector<uint8_t>* concrete_init) {
  Pax2FragmentState st;
  st.arena = std::make_unique<FormulaArena>();
  FormulaArena* arena = st.arena.get();
  FormulaDomain domain(arena);
  const Tree& tree = frag.tree;
  const auto& sel = query.selection();
  const size_t last = sel.size() - 1;
  const size_t ec = query.entries().size();
  const size_t row_width = 2 * ec;

  VirtualQualHook<Formula> virtual_hook = [&](NodeId v, int entry) {
    const FragmentId child = tree.fragment_ref(v);
    return std::make_pair(arena->Var(MakeQVVar(child, entry)),
                          arena->Var(MakeQDVVar(child, entry)));
  };

  // Local qz variables: fresh per (node, qualifier) use, numbered in
  // creation order; resolved at the node's post-order step once its
  // subtree's qualifier rows exist. qz_values[n] is local n's value.
  constexpr Formula kUnbound = -1;
  const VarId first_local = MakeLocalVar(0);
  std::vector<Formula> qz_values;
  auto new_local = [&] {
    qz_values.push_back(kUnbound);
    return MakeLocalVar(static_cast<uint32_t>(qz_values.size() - 1));
  };
  auto qz_binding = [&](VarId var) -> std::optional<Formula> {
    if (KindOfVar(var) != VarKind::kLocal) return std::nullopt;
    const Formula value = qz_values[var - first_local];
    if (value == kUnbound) return std::nullopt;
    return value;
  };
  // Pending qz resolutions, (qual_id, var), innermost node's on top.
  std::vector<std::pair<int, VarId>> pending;

  // Traversal-scoped list of document-node qualifier placeholders (the
  // corner case of a self-filter right after a leading '//'). Lives on this
  // pass's stack frame, so concurrent fragment evaluations on reused pool
  // threads cannot observe each other's entries.
  std::vector<std::pair<int, VarId>> doc_quals;

  auto fresh_qual_var = [&](int qual_id) {
    const VarId var = new_local();
    pending.emplace_back(qual_id, var);
    return arena->Var(var);
  };

  // ---- Stack initialization -------------------------------------------------
  std::vector<Formula> init;
  if (frag.id == 0) {
    Formula root_qual = kTrueFormula;
    if (sel[0].qual >= 0) {
      // Unknown until the root's post-order step: a local variable, bound
      // against the root element (the paper's convention for leading
      // qualifiers). It sits at the bottom of the pending stack.
      root_qual = fresh_qual_var(sel[0].qual);
    }
    auto qual_at_doc = [&](int qual_id) {
      // Resolved after the traversal via EvalQualAtDoc (axis handling
      // differs from node-anchored qualifiers, hence the dedicated list).
      const VarId var = new_local();
      doc_quals.emplace_back(qual_id, var);
      return arena->Var(var);
    };
    init = MakeDocVector(query, &domain, root_qual,
                         query.has_qualifiers()
                             ? std::function<Formula(int)>(qual_at_doc)
                             : std::function<Formula(int)>());
  } else if (concrete_init != nullptr) {
    init = ConstStackInit(*concrete_init);
  } else {
    init = VariableStackInit(query, frag.id, arena);
  }

  // ---- Combined scan ---------------------------------------------------------
  struct Open {
    NodeId v;
    bool dead;         ///< the selection vector is all false
    uint32_t pending;  ///< pending-stack height below this node's locals
    uint32_t rows;     ///< height of `rows` (`bits` for a virtual-free
                       ///< node) below its children's rows
  };
  std::vector<Open> open;
  SelLevels levels(std::move(init));
  std::vector<Formula> rows;
  QualScratch<FormulaDomain> scratch;
  BitQualStep bit_step(query);
  const size_t bit_width = 2 * bit_step.words();
  // The bit-row stack: `bits_top` words in use; `bits` only grows.
  std::vector<uint64_t> bits;
  size_t bits_top = 0;

  // Post-order step of a node with a virtual node below it: v's row from
  // its children's (the rows above height `children`, in document order)
  // replaces them on `rows`, and the qz locals above pending height
  // `locals` resolve from it.
  auto finish_formula_node = [&](NodeId v, size_t children, size_t locals) {
    const size_t at = rows.size();
    rows.resize(at + row_width);
    Formula* own = rows.data() + at;
    const Formula* first = rows.data() + children;
    ComputeQualRowsAtNode(
        tree, query, &domain, v, virtual_hook,
        [first, row_width, ec](size_t k, NodeId) {
          const Formula* row = first + k * row_width;
          return std::make_pair(row, row + ec);
        },
        own, own + ec, &scratch);
    for (size_t p = locals; p < pending.size(); ++p) {
      qz_values[pending[p].second - first_local] = EvalQualFromRows(
          query, &domain, scratch, own, own + ec, pending[p].first);
    }
    pending.resize(locals);
    if (at > children) {
      std::copy(own, own + row_width, rows.begin() + children);
      rows.resize(children + row_width);
    }
  };

  // Post-order step of a virtual-free node: its bit row from its
  // children's (the bit rows above height `children`), and its qz locals
  // above `locals` resolved to constants. The row replaces the children's
  // on `bits`; where a formula row is expected instead (v is the fragment
  // root, or its parent has a virtual node below), it goes on `rows` as
  // 2·|QVect| constants.
  auto finish_bit_node = [&](NodeId v, size_t children, size_t locals) {
    if (bits.size() < children + bit_width) {
      bits.resize(2 * (children + bit_width));
    }
    const size_t count =
        bit_width == 0 ? 0 : (bits_top - children) / bit_width;
    uint64_t* own = bits.data() + children;  // over the children's rows
    bit_step.Compute(tree, v, own, count, own);
    for (size_t p = locals; p < pending.size(); ++p) {
      qz_values[pending[p].second - first_local] =
          bit_step.EvalQual(pending[p].first, own) ? kTrueFormula
                                                   : kFalseFormula;
    }
    pending.resize(locals);
    const NodeId parent = tree.parent(v);
    if (parent == kNullNode || tree.HasVirtualBelow(parent)) {
      bit_step.AppendFormulas(own, &rows);
      bits_top = children;
    } else {
      bits_top = children + bit_width;
    }
  };

  auto visit = [&](NodeId v, uint32_t depth) {
    if (tree.IsVirtual(v)) {
      const Formula* parent_vec = levels.Parent(depth);
      st.virtual_tops.push_back(SelUpMessage::VirtualTop{
          tree.fragment_ref(v),
          std::vector<Formula>(parent_vec, parent_vec + sel.size())});
      // Virtual nodes still need their rows (variables).
      finish_formula_node(v, rows.size(), pending.size());
      return;
    }
    // The root's recorded height is 0, below the leading-qualifier local.
    const auto locals =
        static_cast<uint32_t>(open.empty() ? 0 : pending.size());
    // Pre-order: selection vector with qz placeholders for qualifiers.
    Formula* vec = levels.Own(depth);
    SelStep(tree, query, &domain, v, levels.Parent(depth), vec,
            fresh_qual_var);
    if (!domain.IsFalse(vec[last])) st.finals.emplace_back(v, vec[last]);
    open.push_back(
        {v, AllFalse(vec, sel.size()), locals,
         static_cast<uint32_t>(tree.HasVirtualBelow(v) ? rows.size()
                                                       : bits_top)});
  };

  // A dead subtree [r, end) holds no final and creates no qz local, and
  // owes its parent only r's row. Its bit steps run in reverse document
  // order, so each node's children are the rows on top of `bits`.
  auto skip = [&](NodeId r, NodeId end) {
    if (ec == 0) return;
    for (NodeId u = end - 1; u >= r; --u) {
      finish_bit_node(u, bits_top - tree.ChildCount(u) * bit_width,
                      pending.size());
    }
  };

  auto close = [&](const Open& o) {
    if (ec == 0 && pending.size() == o.pending) return;  // owes nothing
    if (tree.HasVirtualBelow(o.v)) {
      finish_formula_node(o.v, o.rows, o.pending);
    } else {
      finish_bit_node(o.v, o.rows, o.pending);
    }
  };

  ScanSubtree(tree, tree.root(), &open, visit, skip, close);

  // The root's rows are all that is left on the row stack.
  PAXML_CHECK_EQ(rows.size(), row_width);
  st.root_qv.assign(rows.begin(), rows.begin() + ec);
  st.root_qdv.assign(rows.begin() + ec, rows.begin() + row_width);

  // ---- Resolve document-node qualifiers (leading '//ε[q]' corner) ----------
  for (auto [qual_id, var] : doc_quals) {
    qz_values[var - first_local] = EvalQualAtDoc(
        query, &domain, st.root_qv.data(), st.root_qdv.data(), qual_id);
  }

  // ---- Substitute qz locals; classify finals --------------------------------
  // Substitution cannot change a constant, and without locals (every
  // qualifier-free query) it rebuilds the same hash-consed nodes; both
  // cases skip it. The scan met the finals in document order, so answers
  // and candidates ascend.
  auto resolve = [&](Formula f) {
    return qz_values.empty() || arena->IsConst(f)
               ? f
               : arena->Substitute(f, qz_binding);
  };
  for (auto& [node, formula] : st.finals) {
    formula = resolve(formula);
    auto c = arena->ConstValue(formula);
    if (!c) {
      st.candidates.emplace_back(node, formula);
    } else if (*c) {
      st.answers.push_back(node);
    }
  }
  st.finals.clear();
  for (auto& top : st.virtual_tops) {
    for (Formula& f : top.stack_top) f = resolve(f);
  }
  return st;
}

/// One subtree's share of the combined pass, restricted to the
/// concrete-init case (annotations on, qualifier-free): the stack holds
/// only constants, so every selection value constant-folds — the walk
/// never interns a formula, touches no shared arena, and its outputs
/// (answers in document order, virtual tops of constants) concatenate to
/// the serial pass's byte for byte. This is the gate that makes the PaX2
/// split sound: with variables in play, And/Or canonicalize operands by
/// arena handle order, so a privately built formula may differ
/// *structurally* from the serial one even when it is equivalent.
struct ConstSubtreeResult {
  std::vector<NodeId> answers;  ///< finals that folded to true, in order
  std::vector<SelUpMessage::VirtualTop> virtual_tops;
};

/// SelStep under the split gate: no qualifier can apply, and the gate's
/// invariant is enforced loudly — a non-constant value would mean the
/// split produced different bytes than the serial pass.
void ConstSelStep(const Tree& tree, const CompiledQuery& query,
                  FormulaDomain* domain, NodeId v, const Formula* parent_vec,
                  Formula* vec) {
  SelStep(tree, query, domain, v, parent_vec, vec,
          [](int) -> Formula {
            PAXML_CHECK(false);  // the gate excludes qualifiers
            return kFalseFormula;
          });
  const Formula final_value = vec[query.selection().size() - 1];
  PAXML_CHECK(final_value == kFalseFormula || final_value == kTrueFormula);
}

void WalkConstSubtree(const Tree& tree, const CompiledQuery& query,
                      NodeId start, const std::vector<Formula>& parent_init,
                      ConstSubtreeResult* out) {
  FormulaArena arena;  // never interns: all values are kFalse/kTrue
  FormulaDomain domain(&arena);
  const size_t m = query.selection().size();

  // Pre-order only: with no qualifiers the post-order step is inert. As in
  // the combined pass, below an all-false vector only the virtual tops
  // still report.
  struct Open {
    NodeId v;
    bool dead;
  };
  std::vector<Open> open;
  SelLevels levels(parent_init);
  auto visit = [&](NodeId v, uint32_t depth) {
    if (tree.IsVirtual(v)) {
      const Formula* parent_vec = levels.Parent(depth);
      out->virtual_tops.push_back(SelUpMessage::VirtualTop{
          tree.fragment_ref(v),
          std::vector<Formula>(parent_vec, parent_vec + m)});
      return;
    }
    Formula* vec = levels.Own(depth);
    ConstSelStep(tree, query, &domain, v, levels.Parent(depth), vec);
    if (vec[m - 1] == kTrueFormula) out->answers.push_back(v);
    open.push_back({v, AllFalse(vec, m)});
  };
  ScanSubtree(tree, start, &open, visit, [](NodeId, NodeId) {},
              [](const Open&) {});
}

/// PaX2's two visits as runtime handlers: kSelRequest runs the combined
/// pass and replies with QualUp + SelUp in one envelope; kAnswerRequest
/// settles candidates against the resolved values delivered just before it
/// and ships the answers.
class Pax2Program : public XmlMessageHandlers {
 public:
  /// Owns its options and prune state (by value) so the same program type
  /// serves both roles: borrowed by EvaluatePaX2's stack frame and owned by
  /// a remote peer's SiteProgram, where nothing outlives the handler set
  /// but the cluster and the query.
  Pax2Program(const Cluster& cluster, const CompiledQuery& query,
              const PaxOptions& options, PruneResult prune,
              bool concrete_init)
      : doc_(cluster.doc()),
        query_(query),
        options_(options),
        prune_(std::move(prune)),
        concrete_init_(concrete_init),
        unifier_(&doc_, &query),
        state_(doc_.size()) {}

  FormulaArena* DecodeArena() override { return unifier_.arena(); }

  // ---- Visit 1 (site): the combined pass -----------------------------------

  Status OnSelRequest(SiteContext& ctx, FragmentId f) override {
    const Fragment& frag = doc_.fragment(f);
    const std::vector<uint8_t>* init =
        (concrete_init_ && f != 0)
            ? &prune_.parent_vector[static_cast<size_t>(f)]
            : nullptr;
    state_[static_cast<size_t>(f)] =
        std::make_unique<Pax2FragmentState>(RunCombinedPass(frag, query_, init));
    return SendCombinedReply(ctx, f);
  }

  /// The split path's join (runtime/site_runtime.h SplitTask::Finish):
  /// adopts the state a Pax2SplitTask assembled from its subtree walks and
  /// sends the exact reply OnSelRequest would have.
  Status CompleteSplit(SiteContext& ctx, FragmentId f,
                       std::unique_ptr<Pax2FragmentState> st) {
    state_[static_cast<size_t>(f)] = std::move(st);
    return SendCombinedReply(ctx, f);
  }

  std::unique_ptr<SplitTask> MakeSplitTask(const Envelope& env,
                                           const WirePart& part) override;

  Status OnSelDown(SiteContext&, SelDownMessage message) override {
    state_[static_cast<size_t>(message.fragment)]->sel_down =
        std::move(message);
    return Status::OK();
  }

  Status OnQualDown(SiteContext&, QualDownMessage message) override {
    state_[static_cast<size_t>(message.fragment)]->qual_down =
        std::move(message);
    return Status::OK();
  }

  // ---- Visit 2 (site): resolve candidates, ship answers ---------------------

  Status OnAnswerRequest(SiteContext& ctx, FragmentId f) override {
    Pax2FragmentState& st = *state_[static_cast<size_t>(f)];

    if (!st.candidates.empty()) {
      // Assignment: z variables of this fragment from the resolved stack;
      // x variables of the virtual children from the resolved rows.
      const std::vector<uint8_t>* z =
          st.sel_down ? &st.sel_down->stack_init : nullptr;
      std::unordered_map<FragmentId, const QualDownMessage::ResolvedChild*>
          rows;
      if (st.qual_down) {
        for (const auto& c : st.qual_down->children) rows[c.child] = &c;
      }
      auto assignment = [&](VarId var) -> std::optional<bool> {
        switch (KindOfVar(var)) {
          case VarKind::kSV:
            if (FragmentOfVar(var) != f || z == nullptr) return std::nullopt;
            return (*z)[IndexOfVar(var)] != 0;
          case VarKind::kQV:
          case VarKind::kQDV: {
            auto it = rows.find(FragmentOfVar(var));
            if (it == rows.end()) return std::nullopt;
            const uint32_t e = IndexOfVar(var);
            return KindOfVar(var) == VarKind::kQV ? it->second->qv[e] != 0
                                                  : it->second->qdv[e] != 0;
          }
          case VarKind::kLocal:
            return std::nullopt;  // substituted out before shipping
        }
        return std::nullopt;
      };
      for (const auto& [node, formula] : st.candidates) {
        PAXML_ASSIGN_OR_RETURN(bool value,
                               st.arena->Evaluate(formula, assignment));
        if (value) st.answers.push_back(node);
      }
      std::sort(st.answers.begin(), st.answers.end());
    }

    SendAnswers(ctx, f, st.answers);
    return Status::OK();
  }

  // ---- Coordinator side ------------------------------------------------------

  Status OnQualUp(SiteContext&, QualUpMessage message) override {
    unifier_.AddQualReport(std::move(message));
    return Status::OK();
  }

  Status OnSelUp(SiteContext&, SelUpMessage message) override {
    unifier_.AddSelReport(std::move(message));
    return Status::OK();
  }

  Status OnAnswerUp(SiteContext&, AnswerUpMessage message) override {
    for (NodeId v : message.answers) {
      answers_.push_back(GlobalNodeId{message.fragment, v});
    }
    return Status::OK();
  }

  FragmentTreeUnifier& unifier() { return unifier_; }
  std::vector<GlobalNodeId> TakeAnswers() { return std::move(answers_); }

 private:
  friend class Pax2SplitTask;

  /// The combined pass's one reply envelope (qualifier roots + selection
  /// stack tops + answer counts), built from state_[f] — shared by the
  /// serial handler and the split join, so the wire bytes cannot drift
  /// between the two paths.
  Status SendCombinedReply(SiteContext& ctx, FragmentId f) {
    Pax2FragmentState& st = *state_[static_cast<size_t>(f)];

    QualUpMessage qual_reply;
    qual_reply.fragment = f;
    qual_reply.root_qv = st.root_qv;
    qual_reply.root_qdv = st.root_qdv;
    SelUpMessage sel_reply;
    sel_reply.fragment = f;
    sel_reply.virtual_tops = st.virtual_tops;
    sel_reply.answer_count = static_cast<uint32_t>(st.answers.size());
    sel_reply.candidate_count = static_cast<uint32_t>(st.candidates.size());

    Envelope env;
    env.to = ctx.query_site();
    ByteWriter qual_bytes;
    qual_reply.Encode(*st.arena, &qual_bytes);
    env.parts.push_back(
        {MessageKind::kQualUp, f, std::move(qual_bytes).Take(), true});
    ByteWriter sel_bytes;
    sel_reply.Encode(*st.arena, &sel_bytes);
    env.parts.push_back(
        {MessageKind::kSelUp, f, std::move(sel_bytes).Take(), true});
    ctx.Send(std::move(env));

    if (concrete_init_) {
      // Single visit: every reported answer is final (no candidates
      // possible); they ship with this reply.
      SendAnswers(ctx, f, st.answers);
    }
    return Status::OK();
  }

  /// One streamed answer shipment: id list chunks appended to the open
  /// frame, answer payload as phantom bytes. In the concrete-init path
  /// only the phantom XML is accounted (the id list duplicates it); the
  /// final visit accounts both, as the O(|ans|) term of the communication
  /// bound.
  void SendAnswers(SiteContext& ctx, FragmentId f,
                   const std::vector<NodeId>& answers) {
    ShipAnswersStreamed(ctx, doc_.fragment(f).tree, f, answers,
                        options_.ship_mode, /*account_ids=*/!concrete_init_);
  }

  const FragmentedDocument& doc_;
  const CompiledQuery& query_;
  const PaxOptions options_;
  const PruneResult prune_;
  const bool concrete_init_;
  FragmentTreeUnifier unifier_;
  std::vector<std::unique_ptr<Pax2FragmentState>> state_;
  std::vector<GlobalNodeId> answers_;
};

/// The split form of one fragment's kSelRequest under the concrete-init
/// gate: items are the fragment root's child subtrees in document order,
/// the serial scan's order, each walked by WalkConstSubtree into a private
/// slot; Finish concatenates [the root's own contributions] + the slots
/// and replies through Pax2Program::CompleteSplit — the same state and
/// send path the serial handler uses.
class Pax2SplitTask : public SplitTask {
 public:
  /// The visitor pass: the init vector and the root's pre-order step,
  /// exactly as RunCombinedPass would compute them. Null when the
  /// fragment has fewer than two root-child subtrees to fan out.
  static std::unique_ptr<Pax2SplitTask> Make(Pax2Program* program,
                                             FragmentId f) {
    const Tree& tree = program->doc_.fragment(f).tree;
    const NodeId root = tree.root();
    if (tree.IsVirtual(root)) return nullptr;  // degenerate fragment
    std::vector<NodeId> items;
    for (NodeId c : tree.children(root)) items.push_back(c);
    if (items.size() < 2) return nullptr;

    auto task = std::unique_ptr<Pax2SplitTask>(new Pax2SplitTask());
    task->program_ = program;
    task->f_ = f;
    task->items_ = std::move(items);
    task->slots_.resize(task->items_.size());

    FormulaArena arena;  // constants only, like WalkConstSubtree's
    FormulaDomain domain(&arena);
    const CompiledQuery& query = program->query_;
    std::vector<Formula> init;
    if (f == 0) {
      // Leading qualifiers are excluded by the gate, so the root qual is
      // constant true and no doc-qualifier hook is needed.
      init = MakeDocVector(query, &domain, kTrueFormula,
                           std::function<Formula(int)>());
    } else {
      init = ConstStackInit(
          program->prune_.parent_vector[static_cast<size_t>(f)]);
    }
    task->vec_root_.resize(init.size());
    ConstSelStep(tree, query, &domain, root, init.data(),
                 task->vec_root_.data());
    task->root_answer_ = task->vec_root_.back() == kTrueFormula;
    return task;
  }

  size_t item_count() const override { return items_.size(); }

  void RunItem(size_t item) override {
    const Tree& tree = program_->doc_.fragment(f_).tree;
    WalkConstSubtree(tree, program_->query_, items_[item], vec_root_,
                     &slots_[item]);
  }

  Status Finish(SiteContext& ctx) override {
    const Tree& tree = program_->doc_.fragment(f_).tree;
    auto st = std::make_unique<Pax2FragmentState>();
    st->arena = std::make_unique<FormulaArena>();  // root rows empty: no
                                                   // entries, by the gate
    if (root_answer_) st->answers.push_back(tree.root());
    for (ConstSubtreeResult& slot : slots_) {
      st->answers.insert(st->answers.end(), slot.answers.begin(),
                         slot.answers.end());
      st->virtual_tops.insert(
          st->virtual_tops.end(),
          std::make_move_iterator(slot.virtual_tops.begin()),
          std::make_move_iterator(slot.virtual_tops.end()));
    }
    return program_->CompleteSplit(ctx, f_, std::move(st));
  }

 private:
  Pax2SplitTask() = default;

  Pax2Program* program_ = nullptr;
  FragmentId f_ = kNullFragment;
  std::vector<Formula> vec_root_;  ///< constants: valid in every arena
  bool root_answer_ = false;
  std::vector<NodeId> items_;  ///< root children, document order
  std::vector<ConstSubtreeResult> slots_;  ///< one slot per item
};

std::unique_ptr<SplitTask> Pax2Program::MakeSplitTask(const Envelope&,
                                                      const WirePart& part) {
  if (part.kind != MessageKind::kSelRequest) return nullptr;
  // Only the concrete-init path splits (see WalkConstSubtree): with a
  // constant stack and no qualifiers every selection value constant-folds,
  // so subtree walks share no arena and reproduce the serial bytes
  // exactly. Variable stacks hash-cons into one arena whose operand
  // canonicalization is handle-order dependent — not splittable without
  // changing the shipped encodings.
  if (!concrete_init_ || query_.has_qualifiers() ||
      !query_.entries().empty()) {
    return nullptr;
  }
  const FragmentId f = part.fragment;
  if (f < 0 || static_cast<size_t>(f) >= doc_.size()) return nullptr;
  return Pax2SplitTask::Make(this, f);
}

bool ConcreteInit(const CompiledQuery& query, const PaxOptions& options) {
  return options.use_annotations && !query.has_qualifiers();
}

}  // namespace

std::unique_ptr<MessageHandlers> MakePax2SiteHandlers(
    const Cluster& cluster, const CompiledQuery& query,
    const PaxOptions& options) {
  return std::make_unique<Pax2Program>(
      cluster, query, options,
      ComputePaxPrune(cluster.doc(), query, options),
      ConcreteInit(query, options));
}

Result<DistributedResult> EvaluatePaX2(const Cluster& cluster,
                                       const CompiledQuery& query,
                                       const PaxOptions& options,
                                       Transport* transport,
                                       RunControl* control) {
  if (transport == nullptr) {
    return Status::InvalidArgument("EvaluatePaX2: null transport");
  }
  if (query.IsBooleanQuery()) {
    PAXML_ASSIGN_OR_RETURN(ParBoXResult r,
                           EvaluateParBoX(cluster, query, transport, control));
    DistributedResult out;
    if (r.value) {
      out.answers.push_back(
          GlobalNodeId{0, cluster.doc().fragment(0).tree.root()});
    }
    out.stats = std::move(r.stats);
    return out;
  }

  const FragmentedDocument& doc = cluster.doc();
  const size_t fragment_count = doc.size();
  PruneResult prune = ComputePaxPrune(doc, query, options);

  // The combined pass must run wherever a qualifier can see (see
  // fragment/pruning.h); for qualifier-free queries that degenerates to the
  // selection-relevant set.
  std::vector<FragmentId> stage1_frags;
  std::vector<bool> participating(fragment_count, false);
  for (size_t f = 0; f < fragment_count; ++f) {
    if (prune.required[f]) {
      stage1_frags.push_back(static_cast<FragmentId>(f));
      participating[f] = true;
    }
  }

  const bool concrete_init = ConcreteInit(query, options);

  Pax2Program program(cluster, query, options, std::move(prune),
                      concrete_init);
  const RunSpec spec = MakePaxRunSpec("PaX2", query, options);
  Coordinator coord(&cluster, transport, &program, control, &spec);
  FragmentTreeUnifier& unifier = program.unifier();

  std::vector<SiteId> stage1_sites = coord.SitesOf(stage1_frags);
  for (SiteId s : stage1_sites) {
    coord.Post(MakeQueryShipEnvelope(s, query.source().size()));
  }
  for (FragmentId f : stage1_frags) {
    coord.Post(MakeRequestEnvelope(MessageKind::kSelRequest,
                                   cluster.site_of(f), f));
  }
  PAXML_RETURN_NOT_OK(coord.RunRound("pax2-combined", stage1_sites));

  DistributedResult result;
  if (concrete_init) {
    // Single visit: the answers arrived with the combined-pass replies.
    result.answers = program.TakeAnswers();
    std::sort(result.answers.begin(), result.answers.end());
    result.stats = coord.TakeStats();
    return result;
  }

  // ---- evalFT: qualifiers bottom-up, then selection top-down ----------------
  Status unify_status = Status::OK();
  coord.RunLocal([&] {
    unify_status = unifier.UnifyQualifiers(participating);
    if (unify_status.ok()) unify_status = unifier.UnifySelection(participating);
  });
  PAXML_RETURN_NOT_OK(unify_status);

  // ---- Final visit: resolve candidates, ship answers -------------------------
  std::vector<FragmentId> stage2_frags;
  for (FragmentId f : stage1_frags) {
    if (unifier.HasAnswerWork(f)) stage2_frags.push_back(f);
  }
  std::vector<SiteId> stage2_sites = coord.SitesOf(stage2_frags);

  for (FragmentId f : stage2_frags) {
    // One down envelope per fragment: resolved stack (non-root fragments)
    // plus resolved qualifier rows, then the answer request.
    Envelope env;
    env.to = cluster.site_of(f);
    if (f != 0) {
      SelDownMessage m = unifier.MakeSelDown(f);
      ByteWriter bytes;
      m.Encode(&bytes);
      env.parts.push_back(
          {MessageKind::kSelDown, f, std::move(bytes).Take(), true});
    }
    if (query.has_qualifiers()) {
      QualDownMessage m = unifier.MakeQualDown(f);
      ByteWriter bytes;
      m.Encode(&bytes);
      env.parts.push_back(
          {MessageKind::kQualDown, f, std::move(bytes).Take(), true});
    }
    env.parts.push_back({MessageKind::kAnswerRequest, f, {}, false});
    coord.Post(std::move(env));
  }
  PAXML_RETURN_NOT_OK(coord.RunRound("pax2-answers", stage2_sites));

  result.answers = program.TakeAnswers();
  std::sort(result.answers.begin(), result.answers.end());
  result.stats = coord.TakeStats();
  return result;
}

}  // namespace paxml
