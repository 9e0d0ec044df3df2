// NaiveCentralized: the shipping baseline (Section 3 of the paper).
//
// Every site serializes its fragments and ships them to the query site; the
// coordinator reassembles the original tree and evaluates the query with the
// centralized two-pass engine. One visit per site, but communication is the
// size of the whole document — the cost the paper's partial-evaluation
// algorithms eliminate.

#ifndef PAXML_CORE_NAIVE_H_
#define PAXML_CORE_NAIVE_H_

#include <memory>

#include "common/result.h"
#include "core/distributed_result.h"
#include "sim/cluster.h"
#include "xpath/query_plan.h"

namespace paxml {

class Transport;
class RunControl;
class MessageHandlers;

/// The baseline's handler set alone, for a remote peer serving its share of
/// the shipping protocol (core/site_program.h).
std::unique_ptr<MessageHandlers> MakeNaiveSiteHandlers(
    const FragmentedDocument* doc);

/// Ships all fragments to the query site, assembles, evaluates.
/// Answers are reported against the assembled tree but mapped back to
/// (fragment, node) coordinates so results compare to PaX3/PaX2 directly.
/// `transport` is the message backend and must not be null
/// (InvalidArgument). It may be carrying other concurrent evaluations —
/// this call opens and closes its own run on it. A non-null `control` makes the run
/// cancellable at round boundaries.
Result<DistributedResult> EvaluateNaiveCentralized(
    const Cluster& cluster, const CompiledQuery& query,
    Transport* transport, RunControl* control = nullptr);

}  // namespace paxml

#endif  // PAXML_CORE_NAIVE_H_
