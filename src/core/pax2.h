// PaX2: the improved two-visit algorithm (Section 4 of the paper).
//
// PaX2 fuses PaX3's qualifier and selection stages into a single traversal
// per fragment:
//   * the pre-order half computes the selection vectors, conjoining a fresh
//     local variable qz for every not-yet-known qualifier value
//     (Example 4.1: SV_broker = <0, z1 ∧ qz2, 0>);
//   * the post-order half computes the qualifier vectors bottom-up and
//     immediately unifies each qz with the (possibly residual) qualifier
//     formula at that node (Example 4.2: qz2 := y8).
// One reply per fragment carries the root qualifier vectors *and* the stack
// tops recorded at virtual nodes; the coordinator unifies qualifiers
// bottom-up then selection top-down; the second (final) visit resolves
// candidates and ships answers.
//
// Below a node with no virtual node under it nothing is unknown, so the
// pass keeps those nodes' qualifier rows as bit sets, 64 entries per word,
// and builds formulas only along the paths to virtual nodes (core/pax2.cc).
//
// Guarantees: <= 2 visits per site, same communication and computation
// bounds as PaX3. With XPath annotations, the combined pass skips fragments
// that neither contain candidate answers nor are visible to any live
// qualifier (see fragment/pruning.h), and qualifier-free queries finish in
// a single visit.

#ifndef PAXML_CORE_PAX2_H_
#define PAXML_CORE_PAX2_H_

#include <memory>

#include "common/result.h"
#include "core/distributed_result.h"
#include "core/pax3.h"
#include "sim/cluster.h"
#include "xpath/query_plan.h"

namespace paxml {

class Transport;
class RunControl;
class MessageHandlers;

/// PaX2's handler set alone, for a remote peer evaluating its share of the
/// cluster (core/site_program.h): owns the prune state the handlers use;
/// `cluster`, `query` and the returned object's lifetime are the caller's.
/// The in-process entry point below and a peer built from the same
/// (query, options) derive identical pruning, stack inits and wire bytes.
std::unique_ptr<MessageHandlers> MakePax2SiteHandlers(
    const Cluster& cluster, const CompiledQuery& query,
    const PaxOptions& options);

/// Evaluates `query` over the cluster's fragmented document with PaX2.
/// `transport` is the message backend and must not be null
/// (InvalidArgument). It may be carrying other concurrent evaluations —
/// this call opens and closes its own run on it. A non-null `control` makes the run
/// cancellable at round boundaries (see runtime/run_control.h).
Result<DistributedResult> EvaluatePaX2(const Cluster& cluster,
                                       const CompiledQuery& query,
                                       const PaxOptions& options,
                                       Transport* transport,
                                       RunControl* control = nullptr);

}  // namespace paxml

#endif  // PAXML_CORE_PAX2_H_
