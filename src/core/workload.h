// Where a workload family name resolves to code.
//
// The runtime layer (transport, coordinator, socket server) moves opaque
// frames for a `RunSpec::family` string it never interprets; this file is
// the single point where that string picks a data model and its
// algorithms. Two families exist, and both entry points below branch on
// them: "xml" (core/site_program.h, the PaX/ParBoX/naive algorithms) and
// "graph" (core/reach.h, distributed reachability).
//
// EvaluateWorkload is the one primitive that runs a query: Engine::Submit
// drives it, and so may any caller that owns a transport. No caller of
// MakeSiteProgramFactory or EvaluateWorkload names a data model, so a
// cluster built over either WorkloadData evaluates through the same Engine,
// scheduler and transports (DESIGN.md §11).

#ifndef PAXML_CORE_WORKLOAD_H_
#define PAXML_CORE_WORKLOAD_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "core/engine.h"
#include "runtime/socket_server.h"
#include "sim/cluster.h"

namespace paxml {

/// Builds the site-side program for `spec` over `cluster`, routed by
/// `spec.family`. An unknown family's error names the two known ones; a
/// family that does not match the cluster's data is rejected before any
/// family code runs.
Result<std::unique_ptr<SiteProgram>> MakeSiteProgram(const Cluster& cluster,
                                                     const RunSpec& spec);

/// MakeSiteProgram bound to `cluster` — what a paxml_site server runs on,
/// whichever workload its data directory held.
SiteProgramFactory MakeSiteProgramFactory(const Cluster* cluster);

/// Evaluates `query` over the cluster on `transport`, routed by the
/// *data's* family (a query string carries no family of its own): XPath
/// under options.algorithm for "xml", "reach <s> <t>" for "graph". The
/// transport may be carrying other concurrent evaluations — each call opens
/// and closes its own run on it — and must not be null (InvalidArgument).
/// A non-null `control` makes the run cancellable at round boundaries
/// (runtime/run_control.h). This is what Engine::Submit(std::string)
/// drives.
Result<DistributedResult> EvaluateWorkload(const Cluster& cluster,
                                           const std::string& query,
                                           const EngineOptions& options,
                                           Transport* transport,
                                           RunControl* control = nullptr);

}  // namespace paxml

#endif  // PAXML_CORE_WORKLOAD_H_
