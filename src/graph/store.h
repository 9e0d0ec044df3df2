// Partitioned digraph fragments: the graph family's analogue of
// fragment/fragment.h + fragment/storage.h.
//
// A GraphFragmentStore splits one Digraph into fragments by a vertex ->
// fragment ownership map. Each fragment keeps its local sub-adjacency in
// local indices, its *cut edges* (tail local, head owned elsewhere) and its
// *in-boundary* (local vertices some other fragment's cut edge points at).
// Those two tables are exactly the coupling interface of the paper's
// partial-evaluation scheme carried over to reachability (Fan et al.): a
// site can evaluate everything about its fragment except which boundary
// entries are reachable from outside. One bit-parallel traversal settles
// 64 entries' dependencies at once (PartiallyEvaluateEntries), and what a
// fragment reports is O(cut edges) in total.
//
// An in-boundary entry's dependencies do not depend on the query, so the
// store derives them once: each fragment's in-boundary rows, and its local
// in-edges as one CSR, are built on first use under std::call_once and
// kept for the store's lifetime. A query then traverses only from its own
// endpoints (core/reach.h). The cost is O(|F| + |E_F|) int32s per fragment
// for the CSR, plus the rows, which hold exactly the ids the fragment's
// reachability payload carries.
//
// Every construction path funnels through BuildGraphStore, so a store
// built by the in-process partitioner and one loaded from disk at a peer
// are bit-identical — the determinism the socket deployment's exact
// RunStats reproduction rests on. The edge list itself is not kept:
// edges() derives it from the fragments' tables.

#ifndef PAXML_GRAPH_STORE_H_
#define PAXML_GRAPH_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/workload_data.h"
#include "graph/digraph.h"

namespace paxml {

/// One site's piece of the graph. Vertices are kept as sorted global ids;
/// adjacency is in local indices so traversal never touches the ownership
/// map.
struct GraphFragment {
  std::vector<NodeId> vertices;  ///< sorted global ids

  /// Local out-edges: local tail index -> sorted local head indices.
  std::vector<std::vector<int32_t>> local_out;

  /// Cut out-edges: local tail index -> sorted global ids owned elsewhere.
  std::vector<std::vector<NodeId>> cut_out;

  /// Local indices (sorted) of vertices some other fragment's cut edge
  /// enters — the fragment's boolean variables in the reachability scheme.
  std::vector<int32_t> in_boundary;

  /// Local index of global vertex `v`, or -1 when `v` is owned elsewhere.
  int32_t LocalIndex(NodeId v) const;

  uint64_t cut_edge_count() const {
    uint64_t n = 0;
    for (const auto& heads : cut_out) n += heads.size();
    return n;
  }
};

/// One entry vertex's partially evaluated row (core/reach.h).
struct ReachEntryRow {
  bool direct = false;       ///< target reached without leaving the fragment
  std::vector<NodeId> deps;  ///< sorted, deduped heads of crossed cut edges
};

/// Entries settled by one traversal: one bit of a uint64_t word each.
inline constexpr size_t kReachBatchEntries = 64;

/// The site-side kernel (MS-BFS): the rows of `entries` (local indices of
/// `frag`, no duplicates) against `local_target` (-1 when the target lives
/// elsewhere); rows[i] belongs to entries[i]. Each batch of up to 64
/// entries is one traversal in which every vertex holds a word whose bit b
/// says "entry b reaches me": a FIFO worklist ORs new bits into successors
/// until nothing changes, so cycles need no SCC pass. A fragment typically
/// costs O((|F| + |E_F|) · ⌈entries/64⌉) word operations; in the worst case
/// a vertex is re-scanned once per wave that brings it a new bit, which is
/// no worse than one BFS per entry. The word scratch is sized to the
/// fragment, so this runs where that cost is paid once per fragment
/// (GraphFragmentStore::InBoundaryRows).
std::vector<ReachEntryRow> PartiallyEvaluateEntries(
    const GraphFragment& frag, std::span<const int32_t> entries,
    int32_t local_target);

/// The row PartiallyEvaluateEntries gives one `entry`, by one breadth-first
/// traversal that touches only what the entry reaches: the marks are per
/// thread, one byte per vertex, and are reset through the visited list.
/// What a query pays for a source that is not in-boundary.
ReachEntryRow EvaluateEntry(const GraphFragment& frag, int32_t entry,
                            int32_t local_target);

/// The partitioned digraph a graph cluster evaluates over.
class GraphFragmentStore : public WorkloadData {
 public:
  std::string_view family() const override { return kGraphFamily; }
  size_t fragment_count() const override { return fragments_.size(); }

  int32_t vertex_count() const { return vertex_count_; }
  uint64_t edge_count() const { return edge_count_; }

  FragmentId fragment_of(NodeId v) const {
    return owner_[static_cast<size_t>(v)];
  }
  const std::vector<FragmentId>& owners() const { return owner_; }

  const GraphFragment& fragment(FragmentId f) const {
    return fragments_[static_cast<size_t>(f)];
  }

  /// The edge list, sorted by (tail, head) and derived from the fragments'
  /// tables — what SaveGraph persists.
  std::vector<std::pair<NodeId, NodeId>> edges() const;

  /// The rows of fragment `f`'s in-boundary against no target: rows[i]
  /// belongs to in_boundary[i], its deps are final and its `direct` is
  /// false. Query-independent, so PartiallyEvaluateEntries builds them once
  /// per store, on first use; concurrent first callers wait for that one
  /// build.
  const std::vector<ReachEntryRow>& InBoundaryRows(FragmentId f) const;

  /// reaches[i] says whether in_boundary[i] of fragment `f` reaches local
  /// vertex `local_target` without leaving the fragment: the `direct` bits
  /// InBoundaryRows leaves false. One traversal of the fragment's local
  /// in-edges backwards from the target, touching only the vertices that
  /// reach it; the in-edge CSR is built once per store, on first use. All
  /// false, with no traversal, when `local_target` is -1.
  std::vector<bool> InBoundaryReaching(FragmentId f,
                                       int32_t local_target) const;

 private:
  friend Result<std::shared_ptr<const GraphFragmentStore>> BuildGraphStore(
      int32_t vertex_count, std::vector<FragmentId> owner,
      std::vector<std::pair<NodeId, NodeId>> edges);

  int32_t vertex_count_ = 0;
  uint64_t edge_count_ = 0;
  std::vector<FragmentId> owner_;  ///< vertex -> owning fragment
  std::vector<GraphFragment> fragments_;

  /// One fragment's local in-edges: the tails of local vertex v's in-edges
  /// are tails[offsets[v], offsets[v + 1]).
  struct LocalInEdges {
    std::vector<int32_t> offsets;
    std::vector<int32_t> tails;
  };
  const LocalInEdges& InEdges(FragmentId f) const;

  /// The tables one fragment derives on first use. Behind a pointer
  /// because std::once_flag cannot move.
  struct DerivedTables {
    std::once_flag rows_once;
    std::vector<ReachEntryRow> in_boundary_rows;
    std::once_flag in_edges_once;
    LocalInEdges in_edges;
  };
  std::unique_ptr<DerivedTables[]> derived_;  ///< one per fragment
};

/// The canonical constructor: validates ids, sorts and dedupes the edge
/// list, and derives every fragment table from (owner, edges) alone.
/// `owner` maps each vertex to a fragment in [0, max(owner)+1); fragments
/// with no vertices are legal (they hold empty tables).
Result<std::shared_ptr<const GraphFragmentStore>> BuildGraphStore(
    int32_t vertex_count, std::vector<FragmentId> owner,
    std::vector<std::pair<NodeId, NodeId>> edges);

/// Random vertex partitioning of `graph` into `fragment_count` fragments,
/// deterministic in `seed`.
Result<std::shared_ptr<const GraphFragmentStore>> PartitionDigraph(
    const Digraph& graph, size_t fragment_count, uint64_t seed);

/// Writes `store` under `directory` as a single `graph.paxg` text file
/// (created if absent; an existing store file is overwritten).
Status SaveGraph(const GraphFragmentStore& store, const std::string& directory);

/// Loads a store previously written by SaveGraph.
Result<std::shared_ptr<const GraphFragmentStore>> LoadGraph(
    const std::string& directory);

/// True iff `directory` holds a saved graph store — how tools/paxml_site
/// decides which workload a data directory is.
bool IsGraphStoreDir(const std::string& directory);

}  // namespace paxml

#endif  // PAXML_GRAPH_STORE_H_
