// ParBoX (extended): distributed evaluation of Boolean XPath queries.
//
// The VLDB'06 algorithm the paper builds on, with this paper's extensions
// (arithmetic comparisons in qualifiers, multiple top-level qualifiers).
// One parallel bottom-up pass per fragment computes residual qualifier
// vectors; the coordinator unifies them over the fragment tree; the truth
// value of the query at the global root pops out. Every site is visited
// exactly once; communication is O(|Q| |FT|).
//
// ParBoX is exactly Stage 1 of PaX3 (Section 3.1): PaX3/PaX2 delegate to
// this module for queries with an empty selection path.

#ifndef PAXML_CORE_PARBOX_H_
#define PAXML_CORE_PARBOX_H_

#include <memory>

#include "common/result.h"
#include "core/distributed_result.h"
#include "sim/cluster.h"
#include "xpath/query_plan.h"

namespace paxml {

class Transport;
class RunControl;
class MessageHandlers;

/// ParBoX's handler set alone, for a remote peer evaluating its share of
/// the cluster (core/site_program.h). `doc` and `query` must outlive it.
std::unique_ptr<MessageHandlers> MakeParBoXSiteHandlers(
    const FragmentedDocument* doc, const CompiledQuery* query);

struct ParBoXResult {
  bool value = false;
  RunStats stats;
};

/// Evaluates a Boolean query (empty selection path, e.g. ".[//a/b]") over
/// the cluster's fragmented document. Returns kInvalidArgument for
/// data-selecting queries — use PaX3/PaX2 for those. `transport` is the
/// message backend and must not be null (InvalidArgument). It may be
/// carrying other concurrent evaluations — this call opens and closes its
/// own run.
/// A non-null `control` makes the run cancellable at round boundaries.
Result<ParBoXResult> EvaluateParBoX(const Cluster& cluster,
                                    const CompiledQuery& query,
                                    Transport* transport,
                                    RunControl* control = nullptr);

}  // namespace paxml

#endif  // PAXML_CORE_PARBOX_H_
