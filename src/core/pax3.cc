#include "core/pax3.h"

#include <algorithm>
#include <optional>

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

/// Per-fragment state living at its site across the three visits.
struct Pax3FragmentState {
  FragmentQualEval qual;                    // stage 1 residuals
  QualVectors<BoolDomain> resolved_qual;    // stage 2: concrete values
  std::unique_ptr<FormulaArena> sel_arena;  // stage 2 arena (z variables)
  std::vector<std::pair<NodeId, Formula>> candidates;
  std::vector<NodeId> answers;

  // Resolved values received from the coordinator (same-site, same-round
  // delivery order guarantees they precede the request that consumes them).
  std::optional<QualDownMessage> qual_down;
  std::optional<SelDownMessage> sel_down;
};

/// Boolean queries: ParBoX, then wrap the truth value as {root} / {}.
Result<DistributedResult> EvaluateBooleanViaParBoX(const Cluster& cluster,
                                                   const CompiledQuery& query,
                                                   Transport* transport,
                                                   RunControl* control) {
  PAXML_ASSIGN_OR_RETURN(ParBoXResult r,
                         EvaluateParBoX(cluster, query, transport, control));
  DistributedResult out;
  if (r.value) {
    out.answers.push_back(GlobalNodeId{0, cluster.doc().fragment(0).tree.root()});
  }
  out.stats = std::move(r.stats);
  return out;
}

/// PaX3's three stages as runtime handlers. Site-side handlers only touch
/// the state of fragments placed at the handling site; coordinator-side
/// handlers only touch the unifier and the collected answers.
class Pax3Program : public XmlMessageHandlers {
 public:
  /// Owns its options and prune state (by value) so the same program type
  /// serves both roles: borrowed by EvaluatePaX3's stack frame and owned by
  /// a remote peer's SiteProgram (core/site_program.h).
  Pax3Program(const Cluster& cluster, const CompiledQuery& query,
              const PaxOptions& options, PruneResult prune,
              bool concrete_init)
      : doc_(cluster.doc()),
        query_(query),
        options_(options),
        prune_(std::move(prune)),
        concrete_init_(concrete_init),
        unifier_(&doc_, &query),
        state_(doc_.size()) {
    for (auto& s : state_) s = std::make_unique<Pax3FragmentState>();
  }

  FormulaArena* DecodeArena() override { return unifier_.arena(); }

  // ---- Stage 1 (site): qualifier pass over one fragment -------------------

  Status OnQualRequest(SiteContext& ctx, FragmentId f) override {
    const Fragment& frag = doc_.fragment(f);
    Pax3FragmentState& st = *state_[static_cast<size_t>(f)];
    st.qual = RunFragmentQualifierStage(frag, query_);
    QualUpMessage reply = BuildQualUp(frag, query_, st.qual);
    ByteWriter bytes;
    reply.Encode(*st.qual.arena, &bytes);
    Envelope env;
    env.to = ctx.query_site();
    env.parts.push_back(
        {MessageKind::kQualUp, f, std::move(bytes).Take(), true});
    ctx.Send(std::move(env));
    return Status::OK();
  }

  Status OnQualDown(SiteContext&, QualDownMessage message) override {
    state_[static_cast<size_t>(message.fragment)]->qual_down =
        std::move(message);
    return Status::OK();
  }

  // ---- Stage 2 (site): selection pass with resolved qualifiers ------------

  Status OnSelRequest(SiteContext& ctx, FragmentId f) override {
    const Fragment& frag = doc_.fragment(f);
    Pax3FragmentState& st = *state_[static_cast<size_t>(f)];

    // Qualifier values are fully known at this point.
    if (query_.has_qualifiers()) {
      if (!st.qual_down.has_value()) {
        return Status::Internal("pax3: sel-request before qual-down");
      }
      PAXML_ASSIGN_OR_RETURN(
          st.resolved_qual,
          ResolveQualVectors(frag, query_, st.qual, *st.qual_down));
    }

    st.sel_arena = std::make_unique<FormulaArena>();
    FormulaDomain domain(st.sel_arena.get());

    BoolDomain bool_domain;
    QualAtHook<Formula> qual_at;
    if (query_.has_qualifiers()) {
      qual_at = [&, fptr = &frag, stptr = &st](NodeId v, int qual_id) {
        return domain.FromBool(bool_domain.IsTrue(
            EvalQualAtNode(fptr->tree, query_, &bool_domain,
                           stptr->resolved_qual, v, qual_id)));
      };
    }

    std::vector<Formula> init;
    if (f == 0) {
      Formula root_qual = kTrueFormula;
      if (query_.selection()[0].qual >= 0) {
        root_qual = domain.FromBool(
            RootQualifierValue(frag, query_, st.resolved_qual));
      }
      auto qual_at_doc = [&](int qual_id) {
        return domain.FromBool(bool_domain.IsTrue(EvalQualAtDoc(
            query_, &bool_domain, st.resolved_qual, frag.tree.root(),
            qual_id)));
      };
      init = MakeDocVector(query_, &domain, root_qual,
                           query_.has_qualifiers()
                               ? std::function<Formula(int)>(qual_at_doc)
                               : std::function<Formula(int)>());
    } else if (concrete_init_) {
      init = ConstStackInit(prune_.parent_vector[static_cast<size_t>(f)]);
    } else {
      init = VariableStackInit(query_, f, st.sel_arena.get());
    }

    SelectionOutput<FormulaDomain> out = RunSelectionPass(
        frag.tree, query_, &domain, std::move(init), qual_at);
    // Answers ship ascending, the order the delta coding compresses.
    st.answers = std::move(out.answers);
    std::sort(st.answers.begin(), st.answers.end());
    st.candidates = std::move(out.candidates);

    SelUpMessage reply;
    reply.fragment = f;
    reply.answer_count = static_cast<uint32_t>(st.answers.size());
    reply.candidate_count = static_cast<uint32_t>(st.candidates.size());
    for (auto& [vnode, top] : out.virtual_stack_tops) {
      reply.virtual_tops.push_back(SelUpMessage::VirtualTop{
          frag.tree.fragment_ref(vnode), std::move(top)});
    }
    ByteWriter bytes;
    reply.Encode(*st.sel_arena, &bytes);
    Envelope env;
    env.to = ctx.query_site();
    env.parts.push_back(
        {MessageKind::kSelUp, f, std::move(bytes).Take(), true});
    ctx.Send(std::move(env));

    if (concrete_init_) {
      // Certain answers ship with this reply; stage 3 is skipped. The id
      // list rides unaccounted: the answers travel as self-describing XML
      // whose modeled size is the phantom byte count.
      SendAnswers(ctx, f, st.answers);
    }
    return Status::OK();
  }

  Status OnSelDown(SiteContext&, SelDownMessage message) override {
    state_[static_cast<size_t>(message.fragment)]->sel_down =
        std::move(message);
    return Status::OK();
  }

  // ---- Stage 3 (site): settle candidates, ship answers --------------------

  Status OnAnswerRequest(SiteContext& ctx, FragmentId f) override {
    Pax3FragmentState& st = *state_[static_cast<size_t>(f)];

    if (!st.candidates.empty()) {
      if (!st.sel_down.has_value()) {
        return Status::Internal("pax3: answer-request before sel-down");
      }
      const std::vector<uint8_t>& z = st.sel_down->stack_init;
      auto assignment = [&](VarId v) -> std::optional<bool> {
        if (KindOfVar(v) != VarKind::kSV || FragmentOfVar(v) != f) {
          return std::nullopt;
        }
        return z[IndexOfVar(v)] != 0;
      };
      for (const auto& [node, formula] : st.candidates) {
        PAXML_ASSIGN_OR_RETURN(bool value,
                               st.sel_arena->Evaluate(formula, assignment));
        if (value) st.answers.push_back(node);
      }
      std::sort(st.answers.begin(), st.answers.end());
    }

    SendAnswers(ctx, f, st.answers);
    return Status::OK();
  }

  // ---- Coordinator side ----------------------------------------------------

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
  /// One streamed answer shipment: id list chunks appended to the open
  /// frame, the answer payload (subtrees or references) as phantom bytes —
  /// the O(|ans|) term. In the concrete-init path the id list duplicates
  /// the shipped XML, so only the phantom payload is accounted (matching
  /// the paper's model); stage-3 replies account the id list as today.
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
  std::vector<std::unique_ptr<Pax3FragmentState>> state_;
  std::vector<GlobalNodeId> answers_;
};

}  // namespace

PruneResult ComputePaxPrune(const FragmentedDocument& doc,
                            const CompiledQuery& query,
                            const PaxOptions& options) {
  if (options.use_annotations) return PruneFragments(doc, query);
  PruneResult prune;
  prune.selection_relevant.assign(doc.size(), true);
  prune.required.assign(doc.size(), true);
  return prune;
}

std::unique_ptr<MessageHandlers> MakePax3SiteHandlers(
    const Cluster& cluster, const CompiledQuery& query,
    const PaxOptions& options) {
  return std::make_unique<Pax3Program>(
      cluster, query, options, ComputePaxPrune(cluster.doc(), query, options),
      options.use_annotations && !query.has_qualifiers());
}

Result<DistributedResult> EvaluatePaX3(const Cluster& cluster,
                                       const CompiledQuery& query,
                                       const PaxOptions& options,
                                       Transport* transport,
                                       RunControl* control) {
  if (transport == nullptr) {
    return Status::InvalidArgument("EvaluatePaX3: null transport");
  }
  if (query.IsBooleanQuery()) {
    return EvaluateBooleanViaParBoX(cluster, query, transport, control);
  }

  const FragmentedDocument& doc = cluster.doc();
  const size_t fragment_count = doc.size();
  PruneResult prune = ComputePaxPrune(doc, query, options);

  // Stage 2's participant set depends only on the prune result; fix it
  // here, before the program takes ownership of the prune state.
  std::vector<FragmentId> stage2_frags;
  std::vector<bool> stage2_participants(fragment_count, false);
  for (size_t f = 0; f < fragment_count; ++f) {
    if (prune.selection_relevant[f]) {
      stage2_frags.push_back(static_cast<FragmentId>(f));
      stage2_participants[f] = true;
    }
  }

  // Whether this run can finish at stage 2 (Section 5: annotations give
  // concrete stack initializations for qualifier-free queries, so candidates
  // never arise and the answers ship with the stage-2 reply).
  const bool concrete_init =
      options.use_annotations && !query.has_qualifiers();

  Pax3Program program(cluster, query, options, std::move(prune),
                      concrete_init);
  const RunSpec spec = MakePaxRunSpec("PaX3", query, options);
  Coordinator coord(&cluster, transport, &program, control, &spec);
  FragmentTreeUnifier& unifier = program.unifier();

  // Sites learn the query on their first visit.
  std::vector<bool> query_shipped(cluster.site_count(), false);
  auto ship_query = [&](const std::vector<SiteId>& sites) {
    for (SiteId s : sites) {
      if (!query_shipped[static_cast<size_t>(s)]) {
        query_shipped[static_cast<size_t>(s)] = true;
        coord.Post(MakeQueryShipEnvelope(s, query.source().size()));
      }
    }
  };

  // ---- Stage 1: qualifiers over every fragment -----------------------------
  // (XPath annotations cannot skip this stage: qualifier values flow across
  // fragment boundaries regardless of where the answers are.)
  std::vector<bool> stage1_participants(fragment_count, false);
  if (query.has_qualifiers()) {
    std::vector<FragmentId> all;
    for (size_t f = 0; f < fragment_count; ++f) {
      all.push_back(static_cast<FragmentId>(f));
      stage1_participants[f] = true;
    }
    std::vector<SiteId> sites = coord.SitesOf(all);
    ship_query(sites);
    for (FragmentId f : all) {
      coord.Post(MakeRequestEnvelope(MessageKind::kQualRequest,
                                     cluster.site_of(f), f));
    }
    PAXML_RETURN_NOT_OK(coord.RunRound("pax3-stage1-qualifiers", sites));

    Status unify_status = Status::OK();
    coord.RunLocal([&] {
      unify_status = unifier.UnifyQualifiers(stage1_participants);
    });
    PAXML_RETURN_NOT_OK(unify_status);
  }

  // ---- Stage 2: selection over relevant fragments ---------------------------
  std::vector<SiteId> stage2_sites = coord.SitesOf(stage2_frags);
  ship_query(stage2_sites);

  // Resolved qualifier values travel with the stage-2 request.
  for (FragmentId f : stage2_frags) {
    Envelope env;
    env.to = cluster.site_of(f);
    env.accounted = query.has_qualifiers();
    if (query.has_qualifiers()) {
      QualDownMessage m = unifier.MakeQualDown(f);
      ByteWriter bytes;
      m.Encode(&bytes);
      env.parts.push_back(
          {MessageKind::kQualDown, f, std::move(bytes).Take(), true});
    }
    env.parts.push_back({MessageKind::kSelRequest, f, {}, false});
    coord.Post(std::move(env));
  }
  PAXML_RETURN_NOT_OK(coord.RunRound("pax3-stage2-selection", stage2_sites));

  DistributedResult result;
  if (concrete_init) {
    result.answers = program.TakeAnswers();
    std::sort(result.answers.begin(), result.answers.end());
    result.stats = coord.TakeStats();
    return result;
  }

  // ---- evalFT: resolve the z variables top-down ------------------------------
  Status unify_status = Status::OK();
  coord.RunLocal([&] {
    unify_status = unifier.UnifySelection(stage2_participants);
  });
  PAXML_RETURN_NOT_OK(unify_status);

  // ---- Stage 3: settle candidates, ship answers ------------------------------
  std::vector<FragmentId> stage3_frags;
  for (FragmentId f : stage2_frags) {
    if (unifier.HasAnswerWork(f)) stage3_frags.push_back(f);
  }
  std::vector<SiteId> stage3_sites = coord.SitesOf(stage3_frags);

  for (FragmentId f : stage3_frags) {
    Envelope env;
    env.to = cluster.site_of(f);
    // The root fragment's stack was concrete: nothing to resolve, so its
    // request carries (and costs) no bytes.
    env.accounted = (f != 0);
    if (f != 0) {
      SelDownMessage m = unifier.MakeSelDown(f);
      ByteWriter bytes;
      m.Encode(&bytes);
      env.parts.push_back(
          {MessageKind::kSelDown, f, std::move(bytes).Take(), true});
    }
    env.parts.push_back({MessageKind::kAnswerRequest, f, {}, false});
    coord.Post(std::move(env));
  }
  PAXML_RETURN_NOT_OK(coord.RunRound("pax3-stage3-answers", stage3_sites));

  result.answers = program.TakeAnswers();
  std::sort(result.answers.begin(), result.answers.end());
  result.stats = coord.TakeStats();
  return result;
}

}  // namespace paxml
