// Distributed graph reachability by partial evaluation — the second
// algorithm family (Fan, Wang & Wu's scheme over the same runtime that
// serves the XML algorithms).
//
// Each site partially evaluates its fragment: for every *entry* vertex (an
// in-boundary node, plus the source when it lives here) it settles what
// can be known locally — whether the target is reached without leaving the
// fragment (`direct`), and which remote boundary vertices the entry
// escapes to (`deps`, the heads of crossed cut edges). One bit-parallel
// traversal settles 64 entries at once (PartiallyEvaluateEntries), so a
// fragment costs ⌈entries/64⌉ traversals. The per-entry rows are boolean
// equations
//
//   X_v = direct(v) ∨ ⋁_{w ∈ deps(v)} X_w
//
// shipped to the coordinator as one kReachUp payload per fragment, and the
// coordinator solves the system's least fixpoint with a worklist over
// reverse dependencies. The guarantees mirror the paper's XML bounds: one
// delivery round regardless of fragment count (each site is visited once),
// and total shipped data independent of |V| — a fragment ships at most
// |in-boundary| x |cut edges| ids (each entry's deps are cut-edge heads
// its traversal crosses), which is ~O(cut edges) under the locality-aware
// partitionings fragmentation aims for (DESIGN.md §11).

#ifndef PAXML_CORE_REACH_H_
#define PAXML_CORE_REACH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
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

/// One entry vertex's partially evaluated row.
struct ReachEntryRow {
  bool direct = false;       ///< target reached without leaving the fragment
  std::vector<NodeId> deps;  ///< sorted, deduped heads of crossed cut edges
};

/// Entries settled by one traversal: one bit of a uint64_t word each. It is
/// also the size of a split item, so a fragment with at most this many
/// entries never splits.
inline constexpr size_t kReachBatchEntries = 64;

/// The site-side kernel (MS-BFS): the rows of `entries` (local indices of
/// `frag`, no duplicates) against `local_target` (-1 when the target lives
/// elsewhere); rows[i] belongs to entries[i]. Each batch of up to 64
/// entries is one traversal in which every vertex holds a word whose bit b
/// says "entry b reaches me": a FIFO worklist ORs new bits into successors
/// until nothing changes, so cycles need no SCC pass. A fragment typically
/// costs O((|F| + |E_F|) · ⌈entries/64⌉) word operations; in the worst case
/// a vertex is re-scanned once per wave that brings it a new bit, which is
/// no worse than one BFS per entry.
std::vector<ReachEntryRow> PartiallyEvaluateEntries(
    const GraphFragment& frag, std::span<const int32_t> entries,
    int32_t local_target);

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

/// The graph family's SiteProgram builder (registered in core/workload.h).
Result<std::unique_ptr<SiteProgram>> MakeReachSiteProgram(
    const Cluster& cluster, const RunSpec& spec);

/// Evaluates `query` over the cluster's graph. The answer is the target's
/// global id when reachable from the source, empty otherwise. A null
/// transport evaluates synchronously in-process.
Result<DistributedResult> EvaluateReachability(const Cluster& cluster,
                                               const ReachQuery& query,
                                               Transport* transport = nullptr,
                                               RunControl* control = nullptr);

}  // namespace paxml

#endif  // PAXML_CORE_REACH_H_
