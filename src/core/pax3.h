// PaX3: three-stage partial evaluation of data-selecting XPath queries
// (Section 3 of the paper).
//
//   Stage 1 — every site partially evaluates the qualifiers (QVect) of Q
//             bottom-up over its fragments, in parallel; residual (QV, QDV)
//             root vectors go to the coordinator, which unifies them over
//             the fragment tree (Procedure evalFT).
//   Stage 2 — resolved qualifier values return to the sites; every site
//             partially evaluates the selection path (SVect) top-down.
//             Certain answers (`ans`) and candidate answers (`cans`, whose
//             last entry is a residual over the z stack-variables) stay
//             local; the stack tops recorded at virtual nodes go up and are
//             unified top-down.
//   Stage 3 — resolved stack vectors return; candidates settle; all answer
//             nodes ship to the query site.
//
// Guarantees (Section 3.4): <= 3 visits per site; total communication
// O(|Q| |FT| + |ans|); total computation O(|Q| |T|); parallel computation
// O(|Q| max_site |F_site|) per stage.
//
// With XPath annotations (Section 5):
//   * qualifier-free queries get concrete stack initializations, so no
//     candidates arise, stage 1 and stage 3 both disappear, and every site
//     is visited once;
//   * queries with qualifiers still run stage 1 everywhere (qualifier
//     values cross fragment boundaries), but stages 2 and 3 skip fragments
//     that cannot contain answers.

#ifndef PAXML_CORE_PAX3_H_
#define PAXML_CORE_PAX3_H_

#include <memory>

#include "common/result.h"
#include "core/distributed_result.h"
#include "fragment/pruning.h"
#include "sim/cluster.h"
#include "xpath/query_plan.h"

namespace paxml {

class Transport;
class RunControl;
class MessageHandlers;

struct PaxOptions {
  /// Use the XPath-annotated fragment tree (Section 5): prune irrelevant
  /// fragments and, for qualifier-free queries, initialize stacks concretely.
  bool use_annotations = false;

  /// How answers are shipped to the query site (byte accounting).
  AnswerShipMode ship_mode = AnswerShipMode::kSubtrees;
};

/// The fragments a PaX run may touch, shared by PaX2 and PaX3 and — the
/// reason it is ONE function — identically derived on the client and on
/// every remote peer (deterministic in doc + query): PruneFragments under
/// annotations, everything-required otherwise. The socket equality
/// guarantee (DESIGN.md §9) rests on this determinism.
PruneResult ComputePaxPrune(const FragmentedDocument& doc,
                            const CompiledQuery& query,
                            const PaxOptions& options);

/// PaX3's handler set alone, for a remote peer evaluating its share of the
/// cluster (core/site_program.h): owns the prune state the handlers use;
/// `cluster`, `query` and the returned object's lifetime are the caller's.
std::unique_ptr<MessageHandlers> MakePax3SiteHandlers(
    const Cluster& cluster, const CompiledQuery& query,
    const PaxOptions& options);

/// Evaluates `query` over the cluster's fragmented document with PaX3.
/// Boolean queries (empty selection path) delegate to the ParBoX stage and
/// finish in one visit. `transport` is the message backend and must not be
/// null (InvalidArgument). It may be carrying other concurrent evaluations
/// — this call opens and closes its own run on it. A non-null `control`
/// makes the run cancellable at round boundaries.
Result<DistributedResult> EvaluatePaX3(const Cluster& cluster,
                                       const CompiledQuery& query,
                                       const PaxOptions& options,
                                       Transport* transport,
                                       RunControl* control = nullptr);

}  // namespace paxml

#endif  // PAXML_CORE_PAX3_H_
