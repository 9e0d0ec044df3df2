#include "core/parbox.h"

#include "core/eval_ft.h"
#include "core/site_eval.h"
#include "core/site_program.h"
#include "core/xml_handlers.h"
#include "core/vars.h"
#include "runtime/coordinator.h"

namespace paxml {
namespace {

/// ParBoX as runtime handlers: every site answers one kQualRequest per
/// fragment with a QualUpMessage; the coordinator feeds the reports into
/// the fragment-tree unifier. ParBoX ships no answers (its result is one
/// truth value), so it has no streamed shipment — but under the framed
/// message plane a site holding k fragments sends its k replies as one
/// frame, exactly the O(|Q||FT|) coalescing the batching layer exists for.
class ParBoXProgram : public XmlMessageHandlers {
 public:
  ParBoXProgram(const FragmentedDocument* doc, const CompiledQuery* query)
      : doc_(doc), query_(query), unifier_(doc, query) {}

  FormulaArena* DecodeArena() override { return unifier_.arena(); }

  Status OnQualRequest(SiteContext& ctx, FragmentId f) override {
    const Fragment& frag = doc_->fragment(f);
    FragmentQualEval eval = RunFragmentQualifierStage(frag, *query_);
    QualUpMessage reply = BuildQualUp(frag, *query_, eval);
    ByteWriter bytes;
    reply.Encode(*eval.arena, &bytes);
    Envelope env;
    env.to = ctx.query_site();
    env.parts.push_back(
        {MessageKind::kQualUp, f, std::move(bytes).Take(), true});
    ctx.Send(std::move(env));
    return Status::OK();
  }

  Status OnQualUp(SiteContext&, QualUpMessage message) override {
    unifier_.AddQualReport(std::move(message));
    return Status::OK();
  }

  FragmentTreeUnifier& unifier() { return unifier_; }

 private:
  const FragmentedDocument* doc_;
  const CompiledQuery* query_;
  FragmentTreeUnifier unifier_;
};

}  // namespace

std::unique_ptr<MessageHandlers> MakeParBoXSiteHandlers(
    const FragmentedDocument* doc, const CompiledQuery* query) {
  return std::make_unique<ParBoXProgram>(doc, query);
}

Result<ParBoXResult> EvaluateParBoX(const Cluster& cluster,
                                    const CompiledQuery& query,
                                    Transport* transport, RunControl* control) {
  if (transport == nullptr) {
    return Status::InvalidArgument("EvaluateParBoX: null transport");
  }
  if (!query.IsBooleanQuery()) {
    return Status::InvalidArgument(
        "ParBoX evaluates Boolean queries; use PaX3/PaX2 for data-selecting "
        "queries");
  }
  const FragmentedDocument& doc = cluster.doc();
  ParBoXProgram program(&doc, &query);
  const RunSpec spec = MakeParBoXRunSpec(query);
  Coordinator coord(&cluster, transport, &program, control, &spec);

  std::vector<SiteId> sites = coord.AllSites();
  // The query itself is shipped to every participating site: the O(|Q||FT|)
  // component of the communication bound.
  for (SiteId s : sites) {
    coord.Post(MakeQueryShipEnvelope(s, query.source().size()));
  }
  for (size_t f = 0; f < doc.size(); ++f) {
    const FragmentId fragment = static_cast<FragmentId>(f);
    coord.Post(MakeRequestEnvelope(MessageKind::kQualRequest,
                                   cluster.site_of(fragment), fragment));
  }
  PAXML_RETURN_NOT_OK(coord.RunRound("parbox-qualifiers", sites));

  ParBoXResult result;
  Status unify_status = Status::OK();
  coord.RunLocal([&] {
    std::vector<bool> participating(doc.size(), true);
    unify_status = program.unifier().UnifyQualifiers(participating);
    if (!unify_status.ok()) return;
    // The root fragment attached the root-qualifier residual; with every
    // variable bound, it collapses to the query's truth value.
    Formula root_qual = program.unifier().ResolveRootQual();
    auto value = program.unifier().arena()->ConstValue(root_qual);
    if (!value) {
      unify_status = Status::Internal("root qualifier did not resolve");
      return;
    }
    result.value = *value;
  });
  PAXML_RETURN_NOT_OK(unify_status);

  result.stats = coord.TakeStats();
  return result;
}

}  // namespace paxml
