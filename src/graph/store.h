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
// 64 entries' dependencies at once (core/reach.h), and what a fragment
// reports is O(cut edges) in total.
//
// Every construction path funnels through BuildGraphStore, so a store
// built by the in-process partitioner and one loaded from disk at a peer
// are bit-identical — the determinism the socket deployment's exact
// RunStats reproduction rests on.

#ifndef PAXML_GRAPH_STORE_H_
#define PAXML_GRAPH_STORE_H_

#include <cstdint>
#include <memory>
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

/// The partitioned digraph a graph cluster evaluates over.
class GraphFragmentStore : public WorkloadData {
 public:
  std::string_view family() const override { return kGraphWorkloadFamily; }
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

  /// The original edge list, sorted by (tail, head) — what SaveGraph
  /// persists.
  const std::vector<std::pair<NodeId, NodeId>>& edges() const {
    return edges_;
  }

 private:
  friend Result<std::shared_ptr<const GraphFragmentStore>> BuildGraphStore(
      int32_t vertex_count, std::vector<FragmentId> owner,
      std::vector<std::pair<NodeId, NodeId>> edges);

  int32_t vertex_count_ = 0;
  uint64_t edge_count_ = 0;
  std::vector<FragmentId> owner_;  ///< vertex -> owning fragment
  std::vector<GraphFragment> fragments_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
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
