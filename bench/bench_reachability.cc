// Reachability-family benchmark (DESIGN.md §11): the paper's partial-
// evaluation economics carried to the second workload.
//
// One locality-banded digraph (edges stay within a fixed id window, the
// shape a locality-aware partitioner produces cuts for) is split into
// k ∈ {2, 4, 8} contiguous fragments, one site each, and a fixed query
// set is evaluated at every k. Three claims are measured and gated:
//
//  * bounded rounds — every evaluation takes exactly one delivery round,
//    however many fragments there are (each site visited once);
//  * bounded data — shipped bytes track the cut, compared against the
//    naive alternative of shipping every non-query-site fragment's
//    vertices and edges to the coordinator, which grows with |V|;
//  * a warm store ships what a cold one does — every query of every rep
//    ships the bytes it ships on a freshly built store, whose cached
//    in-boundary rows (core/reach.h) are not built yet.
//
// `model-spd` is the paper's parallel-cost metric (total site compute over
// max-per-round compute): the fan-out partial evaluation buys as fragments
// multiply. Answers are checked against single-site BFS ground truth.
//
// Machine-readable results land in BENCH_reachability.json in the working
// directory. PAXML_BENCH_SCALE scales the vertex count (1.0 ~ 40k
// vertices); PAXML_BENCH_REPS the averaging.

#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/reach.h"
#include "core/workload.h"
#include "graph/digraph.h"
#include "graph/store.h"
#include "harness.h"

using namespace paxml;
using namespace paxml::bench;

namespace {

/// Vertex ids an edge may span: fixed, so the cut of a contiguous
/// partition stays O(window * k) while |V| grows with the scale.
constexpr int32_t kWindow = 16;

/// ~2 forward out-edges per vertex within the window, plus occasional back
/// edges (cycles), deterministic in `seed`.
Digraph BandedDigraph(int32_t vertices, uint64_t seed) {
  Rng rng(seed);
  Digraph g;
  g.vertex_count = vertices;
  g.out.resize(vertices);
  for (int32_t v = 0; v < vertices; ++v) {
    for (int e = 0; e < 2; ++e) {
      const int32_t head = v + 1 + static_cast<int32_t>(
                                       rng.NextBounded(kWindow));
      if (head < vertices) g.out[v].push_back(head);
    }
    if (v > 0 && rng.NextBool(0.1)) {
      g.out[v].push_back(
          v - 1 - static_cast<int32_t>(
                      rng.NextBounded(std::min(v, kWindow))));
    }
  }
  for (auto& heads : g.out) {
    std::sort(heads.begin(), heads.end());
    heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
  }
  return g;
}

/// Contiguous ranges of vertex ids, one per fragment — the locality-aware
/// partition whose cut the banded edges respect.
std::shared_ptr<const GraphFragmentStore> ContiguousPartition(
    const Digraph& graph, size_t fragments) {
  const int32_t n = graph.vertex_count;
  const int32_t span = (n + static_cast<int32_t>(fragments) - 1) /
                       static_cast<int32_t>(fragments);
  std::vector<FragmentId> owner(n);
  for (int32_t v = 0; v < n; ++v) {
    owner[v] = static_cast<FragmentId>(
        std::min<int32_t>(static_cast<int32_t>(fragments) - 1, v / span));
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (int32_t v = 0; v < n; ++v) {
    for (NodeId head : graph.out[v]) edges.push_back({v, head});
  }
  auto store = BuildGraphStore(n, std::move(owner), std::move(edges));
  PAXML_CHECK(store.ok());
  return std::move(store).ValueOrDie();
}

struct ReachMeasurement {
  size_t fragments = 0;
  uint64_t cut_edges = 0;
  uint64_t total_bytes = 0;  ///< shipped by partial evaluation
  uint64_t naive_bytes = 0;  ///< modeled vertex/edge shipping
  int rounds = 0;
  double wall_seconds = 0;
  double parallel_seconds = 0;
  double total_compute_seconds = 0;
  double modeled_speedup = 0;
};

/// Bytes the naive alternative would ship: every fragment not co-located
/// with the query site sends its piece of the graph to the coordinator —
/// 4 bytes per vertex id, 8 per edge (two ids). Grows with |V| where the
/// partial-evaluation bytes track the cut.
uint64_t NaiveShipBytes(const GraphFragmentStore& store,
                        const Cluster& cluster) {
  uint64_t bytes = 0;
  for (size_t f = 0; f < store.fragment_count(); ++f) {
    const FragmentId id = static_cast<FragmentId>(f);
    if (cluster.site_of(id) == cluster.query_site()) continue;
    const GraphFragment& frag = store.fragment(id);
    uint64_t edges = frag.cut_edge_count();
    for (const auto& heads : frag.local_out) edges += heads.size();
    bytes += 4 * frag.vertices.size() + 8 * edges;
  }
  return bytes;
}

ReachMeasurement MeasureAt(const Digraph& graph, size_t fragments,
                           const std::vector<ReachQuery>& queries) {
  std::shared_ptr<const GraphFragmentStore> store =
      ContiguousPartition(graph, fragments);

  ClusterOptions copts;
  copts.parallel_execution = false;
  Cluster cluster(store, fragments, copts);
  cluster.PlaceRootAndSpread();

  uint64_t cut = 0;
  for (size_t f = 0; f < store->fragment_count(); ++f) {
    cut += store->fragment(static_cast<FragmentId>(f)).cut_edge_count();
  }

  ReachMeasurement m;
  m.fragments = fragments;
  m.cut_edges = cut;
  m.naive_bytes = NaiveShipBytes(*store, cluster);

  SyncTransport transport;
  // Each query's bytes on a store that has served nothing before it: the
  // reference the warm store's runs must reproduce (gate 3).
  std::vector<uint64_t> cold_bytes;
  for (const ReachQuery& q : queries) {
    ClusterOptions cold_opts;
    cold_opts.parallel_execution = false;
    Cluster cold(ContiguousPartition(graph, fragments), fragments, cold_opts);
    cold.PlaceRootAndSpread();
    auto r = EvaluateWorkload(cold, FormatReachQuery(q), {}, &transport);
    PAXML_CHECK(r.ok());
    cold_bytes.push_back(r->stats.total_bytes);
  }
  const int reps = Repetitions();
  for (int rep = 0; rep < reps; ++rep) {
    uint64_t bytes = 0;
    double parallel = 0;
    double compute = 0;
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < queries.size(); ++i) {
      const ReachQuery& q = queries[i];
      auto r = EvaluateWorkload(cluster, FormatReachQuery(q), {}, &transport);
      PAXML_CHECK(r.ok());
      // Gate 1: one round, at every fragment count.
      PAXML_CHECK_EQ(r->stats.rounds, 1);
      // Gate 3: the store's cached tables never change the wire.
      PAXML_CHECK_EQ(r->stats.total_bytes, cold_bytes[i]);
      // Ground truth.
      PAXML_CHECK_EQ(r->answers.empty(),
                     !ReachesBFS(graph, q.source, q.target));
      bytes += r->stats.total_bytes;
      parallel += r->stats.parallel_seconds;
      compute += r->stats.total_compute_seconds;
    }
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    m.rounds = 1;
    m.total_bytes = bytes;
    m.wall_seconds += wall.count() / reps;
    m.parallel_seconds += parallel / reps;
    m.total_compute_seconds += compute / reps;
  }
  // Gate 2: the cut beats shipping the graph.
  PAXML_CHECK_LT(m.total_bytes, m.naive_bytes);
  m.modeled_speedup =
      m.parallel_seconds > 0 ? m.total_compute_seconds / m.parallel_seconds
                             : 1.0;
  return m;
}

void WriteJson(const std::vector<ReachMeasurement>& axis, int32_t vertices,
               uint64_t edges) {
  JsonValue rows = JsonValue::Array();
  for (const ReachMeasurement& m : axis) {
    rows.Add(JsonValue::Object()
                 .Set("fragments", m.fragments)
                 .Set("rounds", m.rounds)
                 .Set("cut_edges", m.cut_edges)
                 .Set("total_bytes", m.total_bytes)
                 .Set("naive_ship_bytes", m.naive_bytes)
                 .Set("wall_seconds", m.wall_seconds)
                 .Set("parallel_seconds", m.parallel_seconds)
                 .Set("total_compute_seconds", m.total_compute_seconds)
                 .Set("modeled_speedup", m.modeled_speedup));
  }
  EmitBenchJson("BENCH_reachability.json",
                BenchJsonHeader("reachability")
                    .Set("vertices", static_cast<int64_t>(vertices))
                    .Set("edges", edges)
                    .Set("fragment_axis", std::move(rows)));
}

}  // namespace

int main() {
  const int32_t vertices =
      std::max(1000, static_cast<int32_t>(40000 * BenchScale()));
  const Digraph graph = BandedDigraph(vertices, /*seed=*/2007);

  Rng rng(17);
  std::vector<ReachQuery> queries;
  for (int i = 0; i < 5; ++i) {
    queries.push_back({static_cast<NodeId>(rng.NextBounded(vertices)),
                       static_cast<NodeId>(rng.NextBounded(vertices))});
  }

  std::printf(
      "Distributed reachability — |V| = %d, |E| = %llu, %zu queries "
      "(x%d reps)\n",
      vertices, static_cast<unsigned long long>(graph.edge_count()),
      queries.size(), Repetitions());

  TablePrinter table({"fragments", "rounds", "cut-edges", "bytes", "naive(B)",
                      "save", "wall(s)", "model-spd"});
  std::vector<ReachMeasurement> axis;
  for (size_t fragments : {size_t{2}, size_t{4}, size_t{8}}) {
    ReachMeasurement m = MeasureAt(graph, fragments, queries);
    table.AddRow(
        {std::to_string(m.fragments), std::to_string(m.rounds),
         std::to_string(m.cut_edges), std::to_string(m.total_bytes),
         std::to_string(m.naive_bytes),
         StringFormat("%.1fx",
                      static_cast<double>(m.naive_bytes) /
                          static_cast<double>(
                              std::max<uint64_t>(1, m.total_bytes))),
         StringFormat("%.3f", m.wall_seconds),
         StringFormat("%.2fx", m.modeled_speedup)});
    axis.push_back(m);
  }
  std::printf(
      "(gated: rounds == 1 and answers == single-site BFS at every k; "
      "bytes < the modeled naive shipping of every remote fragment's "
      "vertices and edges; each query's bytes == its bytes on a fresh "
      "store.)\n");

  WriteJson(axis, vertices, graph.edge_count());
  return 0;
}
