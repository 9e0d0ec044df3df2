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

/// The combined pre/post-order traversal (Procedure evalXPath of Fig. 5).
///
/// Working memory is three stacks, so the pass allocates nothing per node
/// once they have reached their peak size:
///  * SelLevels, the selection vectors of the current ancestor path;
///  * `pending`, the qz locals not yet resolved. A node's locals are pushed
///    in its pre-order step above the height recorded in its work item, and
///    resolved (in creation order) and popped in its post-order step. The
///    root's recorded height is 0, below the leading-qualifier local;
///  * `rows`, the [QV | QDV] rows of finished nodes whose parent is still
///    open. The work list pops children last-first, so a node's children
///    leave their rows on top in reverse document order; its post-order
///    step folds them (in document order) into the aggregates, replaces
///    them with its own row, and the root's row is all that remains.
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

  // ---- Combined DFS ----------------------------------------------------------
  struct Item {
    NodeId v;
    uint32_t depth;    ///< pre-order: the node's depth in the fragment
    uint32_t pending;  ///< pending-stack height below this node's locals
    uint32_t rows;     ///< post-order: row-stack height below its children
    bool expanded;
  };
  std::vector<Item> work = {{tree.root(), 0, 0, 0, false}};
  SelLevels levels(std::move(init));
  std::vector<Formula> rows;
  QualScratch<FormulaDomain> scratch;
  // Pushes v's row, computed from its children's rows: the top ones, the
  // first child's topmost.
  auto push_row = [&](NodeId v) {
    const size_t at = rows.size();
    rows.resize(at + row_width);
    Formula* own = rows.data() + at;
    ComputeQualRowsAtNode(
        tree, query, &domain, v, virtual_hook,
        [own, ec](size_t k, NodeId) {
          const Formula* row = own - (k + 1) * 2 * ec;
          return std::make_pair(row, row + ec);
        },
        own, own + ec, &scratch);
    return own;
  };

  while (!work.empty()) {
    const Item item = work.back();
    work.pop_back();
    const NodeId v = item.v;

    if (item.expanded) {
      // Post-order: this node's rows from its children's (the rows above
      // item.rows), then resolve its qz locals.
      const size_t children_end = rows.size();
      const Formula* own = push_row(v);
      for (size_t p = item.pending; p < pending.size(); ++p) {
        qz_values[pending[p].second - first_local] = EvalQualFromRows(
            query, &domain, scratch, own, own + ec, pending[p].first);
      }
      pending.resize(item.pending);
      if (children_end > item.rows) {  // replace the children's rows
        std::copy(own, own + row_width, rows.begin() + item.rows);
        rows.resize(item.rows + row_width);
      }
      continue;
    }

    if (tree.IsVirtual(v)) {
      const Formula* parent_vec = levels.Parent(item.depth);
      st.virtual_tops.push_back(SelUpMessage::VirtualTop{
          tree.fragment_ref(v),
          std::vector<Formula>(parent_vec, parent_vec + sel.size())});
      push_row(v);  // virtual nodes still need their rows (variables)
      continue;
    }

    // Pre-order: selection vector with qz placeholders for qualifiers.
    Formula* vec = levels.Own(item.depth);
    SelStep(tree, query, &domain, v, levels.Parent(item.depth), vec,
            fresh_qual_var);
    if (!domain.IsFalse(vec[last])) st.finals.emplace_back(v, vec[last]);

    const auto height = static_cast<uint32_t>(pending.size());
    work.push_back(
        {v, 0, item.pending, static_cast<uint32_t>(rows.size()), true});
    for (NodeId c : tree.children(v)) {
      work.push_back({c, item.depth + 1, height, 0, false});
    }
  }

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
  // cases skip it.
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
/// (answers in traversal order, virtual tops of constants) concatenate to
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

  // Pre-order only: with no qualifiers the post-order step is inert, and
  // the flat stack needs no popping.
  struct Item {
    NodeId v;
    uint32_t depth;
  };
  std::vector<Item> work = {{start, 0}};
  SelLevels levels(parent_init);

  while (!work.empty()) {
    const Item item = work.back();
    work.pop_back();
    const NodeId v = item.v;

    if (tree.IsVirtual(v)) {
      const Formula* parent_vec = levels.Parent(item.depth);
      out->virtual_tops.push_back(SelUpMessage::VirtualTop{
          tree.fragment_ref(v),
          std::vector<Formula>(parent_vec, parent_vec + m)});
      continue;
    }

    Formula* vec = levels.Own(item.depth);
    ConstSelStep(tree, query, &domain, v, levels.Parent(item.depth), vec);
    if (vec[m - 1] == kTrueFormula) out->answers.push_back(v);

    for (NodeId c : tree.children(v)) work.push_back({c, item.depth + 1});
  }
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
/// gate: items are the fragment root's child subtrees in serial traversal
/// order (the combined DFS pops children last-first, so items hold the
/// children REVERSED), each walked by WalkConstSubtree into a private
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
    std::reverse(items.begin(), items.end());

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
  std::vector<NodeId> items_;  ///< root children, serial traversal order
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
  std::unique_ptr<Transport> owned_transport;
  transport = EnsureTransport(transport, cluster, &owned_transport);

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
