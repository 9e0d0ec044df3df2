// Turning a wired RunSpec back into the XML family's site-side program.
//
// The runtime's SiteServer (runtime/socket_server.h) is workload-agnostic:
// it asks a SiteProgramFactory for the MessageHandlers of each run a client
// announces. This is the XML family's builder behind that factory (the
// dispatch in core/workload.h routes "xml" RunSpecs here) — it compiles
// the spec's query against the peer's copy of the document and builds the
// same handler set the in-process entry point would (the
// Make*SiteHandlers exports of pax2/pax3/naive/parbox), owning everything
// the handlers borrow. Determinism is the contract: given a bit-identical
// cluster, the peer's handlers produce byte-identical wire frames, so the
// client's accounting reproduces SyncTransport's exactly
// (tests/socket_transport_test.cc).

#ifndef PAXML_CORE_SITE_PROGRAM_H_
#define PAXML_CORE_SITE_PROGRAM_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "core/pax3.h"
#include "runtime/socket_server.h"
#include "sim/cluster.h"
#include "xpath/query_plan.h"

namespace paxml {

/// Builds the site-side program named by `spec.algorithm` ("PaX2", "PaX3",
/// "NaiveCentralized", "ParBoX" — exactly AlgorithmName()'s strings) over
/// `cluster`, which must hold XML data. Unknown algorithms and compile
/// failures return an error the server wires back to the client.
Result<std::unique_ptr<SiteProgram>> MakeXmlSiteProgram(const Cluster& cluster,
                                                        const RunSpec& spec);

/// RunSpec builders used by the algorithm entry points when they open their
/// Coordinator, so client and peer agree on one encoding of the options.
RunSpec MakePaxRunSpec(std::string algorithm, const CompiledQuery& query,
                       const PaxOptions& options);
RunSpec MakeNaiveRunSpec(const CompiledQuery& query);
RunSpec MakeParBoXRunSpec(const CompiledQuery& query);

}  // namespace paxml

#endif  // PAXML_CORE_SITE_PROGRAM_H_
