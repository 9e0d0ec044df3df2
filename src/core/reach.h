// Distributed graph reachability by partial evaluation — the second
// algorithm family (Fan, Wang & Wu's scheme over the same runtime that
// serves the XML algorithms).
//
// Each site partially evaluates its fragment: for every *entry* vertex (an
// in-boundary node, plus the source when it lives here) it settles what
// can be known locally — whether the target is reached without leaving the
// fragment (`direct`), and which remote boundary vertices the entry
// escapes to (`deps`, the heads of crossed cut edges). The per-entry rows
// are boolean equations
//
//   X_v = direct(v) ∨ ⋁_{w ∈ deps(v)} X_w
//
// shipped to the coordinator as one kReachUp payload per fragment, and the
// coordinator solves the system's least fixpoint with a worklist over
// reverse dependencies.
//
// An in-boundary entry's deps depend only on the fragment, and its direct
// bit can be true only in the fragment that holds the target. So the store
// builds each fragment's in-boundary rows once, with the bit-parallel
// kernel that settles 64 entries per traversal (PartiallyEvaluateEntries
// and GraphFragmentStore::InBoundaryRows, graph/store.h), and a query
// traverses only from its endpoints: one reverse traversal from the target
// in the target's fragment sets the in-boundary direct bits, and one
// forward traversal from the source computes the source's row when the
// source is not already in-boundary. A fragment holding neither endpoint
// encodes its cached rows.
//
// The guarantees mirror the paper's XML bounds: one delivery round
// regardless of fragment count (each site is visited once), and total
// shipped data independent of |V| — a fragment ships at most
// |in-boundary| x |cut edges| ids (each entry's deps are cut-edge heads
// its traversal crosses), which is ~O(cut edges) under the locality-aware
// partitionings fragmentation aims for (DESIGN.md §11).

#ifndef PAXML_CORE_REACH_H_
#define PAXML_CORE_REACH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/distributed_result.h"
#include "graph/store.h"
#include "runtime/run_control.h"
#include "runtime/socket_server.h"
#include "runtime/transport.h"
#include "sim/cluster.h"

namespace paxml {

/// One reachability question over the cluster's graph.
struct ReachQuery {
  NodeId source = kNullNode;
  NodeId target = kNullNode;
};

/// The wire form of a ReachQuery: "reach <source> <target>" — what
/// RunSpec::query carries for the graph family, as XPath text is what it
/// carries for XML.
std::string FormatReachQuery(const ReachQuery& query);
Result<ReachQuery> ParseReachQuery(const std::string& text);

/// Entry vertices of fragment `f` under `query`: the in-boundary, plus the
/// source when it lives in `f`. Ascending local index, which is ascending
/// global id.
std::vector<int32_t> ReachEntryVertices(const GraphFragmentStore& store,
                                        const ReachQuery& query, FragmentId f);

/// Local index of the query's target in fragment `f`, or -1 when another
/// fragment owns it.
int32_t ReachLocalTarget(const GraphFragmentStore& store,
                         const ReachQuery& query, FragmentId f);

/// The cluster's graph store, or an error when it holds another workload.
Result<const GraphFragmentStore*> GraphOf(const Cluster& cluster);

/// The RunSpec the evaluation announces to remote peers.
RunSpec MakeReachRunSpec(const ReachQuery& query);

/// The reachability handler set over `store` (borrowed) — what a peer
/// serves for a "graph" RunSpec.
std::unique_ptr<MessageHandlers> MakeReachSiteHandlers(
    const GraphFragmentStore* store, const ReachQuery& query);

/// Makes the graph family's SiteProgram (dispatched from core/workload.h).
Result<std::unique_ptr<SiteProgram>> MakeReachSiteProgram(
    const Cluster& cluster, const RunSpec& spec);

/// Evaluates `query` over the cluster's graph. The answer is the target's
/// global id when reachable from the source, empty otherwise. `transport`
/// is the message backend and must not be null (InvalidArgument).
Result<DistributedResult> EvaluateReachability(const Cluster& cluster,
                                               const ReachQuery& query,
                                               Transport* transport,
                                               RunControl* control = nullptr);

}  // namespace paxml

#endif  // PAXML_CORE_REACH_H_
