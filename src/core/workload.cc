#include "core/workload.h"

#include <string_view>

#include "core/reach.h"
#include "core/site_program.h"
#include "xpath/query_plan.h"

namespace paxml {
namespace {

bool IsKnownFamily(std::string_view family) {
  return family == kXmlFamily || family == kGraphFamily;
}

Status UnknownFamily(std::string_view family) {
  return Status::InvalidArgument(
      "unknown workload family \"" + std::string(family) + "\" (known: \"" +
      std::string(kXmlFamily) + "\", \"" +
      std::string(kGraphFamily) + "\")");
}

/// The XML arm: the one dispatch over the distributed XPath algorithms.
Result<DistributedResult> EvaluateXml(const Cluster& cluster,
                                      const std::string& query,
                                      const EngineOptions& options,
                                      Transport* transport,
                                      RunControl* control) {
  PAXML_ASSIGN_OR_RETURN(CompiledQuery compiled,
                         CompileXPath(query, cluster.doc().symbols()));
  switch (options.algorithm) {
    case DistributedAlgorithm::kPaX3:
      return EvaluatePaX3(cluster, compiled, options.pax, transport, control);
    case DistributedAlgorithm::kPaX2:
      return EvaluatePaX2(cluster, compiled, options.pax, transport, control);
    case DistributedAlgorithm::kNaiveCentralized:
      return EvaluateNaiveCentralized(cluster, compiled, transport, control);
  }
  return Status::InvalidArgument("unknown algorithm");
}

}  // namespace

Result<std::unique_ptr<SiteProgram>> MakeSiteProgram(const Cluster& cluster,
                                                     const RunSpec& spec) {
  if (!IsKnownFamily(spec.family)) return UnknownFamily(spec.family);
  if (spec.family != cluster.data().family()) {
    return Status::InvalidArgument(
        "workload mismatch: run is \"" + spec.family +
        "\" but the cluster holds \"" + std::string(cluster.data().family()) +
        "\" data");
  }
  if (spec.family == kXmlFamily) {
    return MakeXmlSiteProgram(cluster, spec);
  }
  return MakeReachSiteProgram(cluster, spec);
}

SiteProgramFactory MakeSiteProgramFactory(const Cluster* cluster) {
  return [cluster](const RunSpec& spec) {
    return MakeSiteProgram(*cluster, spec);
  };
}

Result<DistributedResult> EvaluateWorkload(const Cluster& cluster,
                                           const std::string& query,
                                           const EngineOptions& options,
                                           Transport* transport,
                                           RunControl* control) {
  if (transport == nullptr) {
    return Status::InvalidArgument("EvaluateWorkload: null transport");
  }
  const std::string_view family = cluster.data().family();
  if (family == kXmlFamily) {
    return EvaluateXml(cluster, query, options, transport, control);
  }
  if (family == kGraphFamily) {
    PAXML_ASSIGN_OR_RETURN(ReachQuery parsed, ParseReachQuery(query));
    return EvaluateReachability(cluster, parsed, transport, control);
  }
  return UnknownFamily(family);
}

}  // namespace paxml
