#include "core/naive.h"

#include <algorithm>

#include "core/answer_stream.h"
#include "core/site_program.h"
#include "core/xml_handlers.h"
#include "eval/centralized.h"
#include "runtime/coordinator.h"
#include "xml/serializer.h"

namespace paxml {
namespace {

/// The shipping baseline as runtime handlers: every site answers one
/// kDataRequest per fragment with a kDataShip envelope whose phantom bytes
/// are the fragment's serialized size; the coordinator just tracks arrival
/// (the simulation evaluates over the shared document instead of actually
/// re-parsing the shipped XML).
class NaiveProgram : public XmlMessageHandlers {
 public:
  explicit NaiveProgram(const FragmentedDocument* doc)
      : doc_(doc), received_(doc->size(), false) {}

  Status OnDataRequest(SiteContext& ctx, FragmentId f) override {
    // Streamed: the modeled fragment bytes append to the open frame in
    // bounded chunks instead of one monolithic shipment.
    ShipDataStreamed(ctx, f, SerializedSize(doc_->fragment(f).tree));
    return Status::OK();
  }

  Status OnDataShip(SiteContext&, FragmentId f, uint64_t) override {
    received_[static_cast<size_t>(f)] = true;
    return Status::OK();
  }

  bool AllReceived() const {
    return std::all_of(received_.begin(), received_.end(),
                       [](bool b) { return b; });
  }

 private:
  const FragmentedDocument* doc_;
  std::vector<bool> received_;
};

}  // namespace

std::unique_ptr<MessageHandlers> MakeNaiveSiteHandlers(
    const FragmentedDocument* doc) {
  return std::make_unique<NaiveProgram>(doc);
}

Result<DistributedResult> EvaluateNaiveCentralized(const Cluster& cluster,
                                                   const CompiledQuery& query,
                                                   Transport* transport,
                                                   RunControl* control) {
  if (transport == nullptr) {
    return Status::InvalidArgument("EvaluateNaiveCentralized: null transport");
  }
  const FragmentedDocument& doc = cluster.doc();
  NaiveProgram program(&doc);
  const RunSpec spec = MakeNaiveRunSpec(query);
  Coordinator coord(&cluster, transport, &program, control, &spec);

  std::vector<SiteId> sites = coord.AllSites();
  for (SiteId s : sites) {
    coord.Post(MakeQueryShipEnvelope(s, query.source().size()));
  }
  for (size_t f = 0; f < doc.size(); ++f) {
    const FragmentId fragment = static_cast<FragmentId>(f);
    coord.Post(MakeRequestEnvelope(MessageKind::kDataRequest,
                                   cluster.site_of(fragment), fragment));
  }

  // One visit per site: serialize and ship every fragment to S_Q.
  PAXML_RETURN_NOT_OK(coord.RunRound("naive-ship-fragments", sites));
  if (!program.AllReceived()) {
    return Status::Internal("naive: not every fragment was shipped");
  }

  // Assemble and evaluate at the coordinator.
  DistributedResult result;
  coord.RunLocal([&] {
    std::vector<GlobalNodeId> mapping;
    Tree assembled = doc.Assemble(&mapping);
    CentralizedResult r = EvaluateCentralized(assembled, query);
    result.answers.reserve(r.answers.size());
    for (NodeId v : r.answers) {
      result.answers.push_back(mapping[static_cast<size_t>(v)]);
    }
    std::sort(result.answers.begin(), result.answers.end());
  });

  result.stats = coord.TakeStats();
  return result;
}

}  // namespace paxml
