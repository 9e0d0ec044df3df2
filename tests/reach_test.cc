// Tests for the graph workload family (DESIGN.md §11): distributed
// reachability by partial evaluation over the same runtime that serves the
// XML algorithms.
//
//  * correctness — randomized digraphs under random partitionings agree
//    with single-site BFS ground truth on every query, in exactly one
//    delivery round however many fragments there are;
//  * the site kernel — the bit-parallel batch traversal's rows equal one
//    BFS per entry, across the 64-entry word boundary;
//  * deployment — Engine::Submit routes a reach query to real paxml_site
//    peers; that every backend reproduces SyncTransport's RunStats is the
//    equivalence matrix's job (equivalence_matrix_test.cc);
//  * the workload seam — an XML-serving peer rejects a graph run with a
//    clean error, an unknown family's error names the known
//    ones, and the graph store round-trips through its on-disk format.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/reach.h"
#include "core/workload.h"
#include "fragment/fragmenter.h"
#include "fragment/storage.h"
#include "graph/digraph.h"
#include "graph/store.h"
#include "runtime/socket_transport.h"
#include "site_process.h"
#include "test_util.h"

namespace paxml {
namespace {

using testing::Deployment;
using testing::ExpectContractEqual;
using testing::MakeTempDir;

/// `query` on a fresh transport of the cluster's default kind.
Result<DistributedResult> Reach(const Cluster& cluster,
                                const ReachQuery& query) {
  return EvaluateReachability(cluster, query,
                              MakeTransportFor(cluster).get());
}

std::vector<int> Visits(const RunStats& s) {
  std::vector<int> v;
  for (const SiteStats& p : s.per_site) v.push_back(p.visits);
  return v;
}

// ---- Worlds -----------------------------------------------------------------

struct GraphWorld {
  Digraph graph;
  std::shared_ptr<const GraphFragmentStore> store;
  std::unique_ptr<Cluster> cluster;
};

GraphWorld MakeWorld(int32_t vertices, double degree, size_t fragments,
                     size_t sites, uint64_t seed) {
  GraphWorld w;
  w.graph = RandomDigraph(vertices, degree, seed);
  auto store = PartitionDigraph(w.graph, fragments, seed + 1);
  PAXML_CHECK(store.ok());
  w.store = std::move(store).ValueOrDie();
  ClusterOptions copts;
  copts.parallel_execution = false;
  w.cluster = std::make_unique<Cluster>(w.store, sites, copts);
  w.cluster->PlaceRootAndSpread();
  return w;
}

std::vector<GlobalNodeId> ExpectedAnswer(const GraphWorld& w,
                                         const ReachQuery& q) {
  if (!ReachesBFS(w.graph, q.source, q.target)) return {};
  return {GlobalNodeId{w.store->fragment_of(q.target), q.target}};
}

// ---- Correctness against single-site ground truth ---------------------------

// Random digraphs under random partitionings: every query agrees with BFS
// on the unpartitioned graph, and every evaluation takes exactly one
// delivery round with one visit per participating site — the paper's
// bounds carried to the reachability family.
TEST(ReachCorrectnessTest, RandomizedMatchesSingleSiteBFS) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    // Sparse-ish graphs keep both outcomes common; fragments > sites
    // exercises multi-fragment batching at a site.
    const int32_t n = 60 + static_cast<int32_t>(seed) * 17;
    GraphWorld w = MakeWorld(n, 1.6, /*fragments=*/5 + seed % 3,
                             /*sites=*/4, seed);
    Rng rng(seed * 977 + 11);
    for (int i = 0; i < 25; ++i) {
      ReachQuery q;
      q.source = static_cast<NodeId>(rng.NextBounded(n));
      q.target = static_cast<NodeId>(rng.NextBounded(n));
      auto r = Reach(*w.cluster, q);
      ASSERT_TRUE(r.ok()) << r.status();
      const std::string label = "seed " + std::to_string(seed) + " " +
                                FormatReachQuery(q);
      EXPECT_EQ(r->answers, ExpectedAnswer(w, q)) << label;
      EXPECT_EQ(r->stats.rounds, 1) << label;
      for (int v : Visits(r->stats)) EXPECT_LE(v, 1) << label;
    }
  }
}

// The trivial and degenerate cases.
TEST(ReachCorrectnessTest, EdgeCases) {
  GraphWorld w = MakeWorld(20, 1.5, 4, 4, 42);
  // Self-reachability holds even with no self-loop.
  ReachQuery self{3, 3};
  auto r = Reach(*w.cluster, self);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->answers, ExpectedAnswer(w, self));
  ASSERT_EQ(r->answers.size(), 1u);

  // Out-of-range endpoints are rejected up front.
  auto bad = Reach(*w.cluster, ReachQuery{0, 99});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ReachCorrectnessTest, QueryTextRoundTrips) {
  const ReachQuery q{7, 123};
  auto parsed = ParseReachQuery(FormatReachQuery(q));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->source, q.source);
  EXPECT_EQ(parsed->target, q.target);
  EXPECT_FALSE(ParseReachQuery("reach 1").ok());
  EXPECT_FALSE(ParseReachQuery("reach 1 2 3").ok());
  EXPECT_FALSE(ParseReachQuery("//stock/code").ok());

  // Peers parse this text off the wire: an id that does not fit a NodeId,
  // or carries trailing junk, is refused rather than wrapped or truncated.
  for (const char* bad :
       {"reach 4294967297 1", "reach -4294967295 2", "reach 2147483648 0",
        "reach 0 -2147483649", "reach 1 2x", "reach 1x 2", "reach 1 2 x",
        "reach +1 2", "reach1 2", "reach 1 0x10", ""}) {
    EXPECT_FALSE(ParseReachQuery(bad).ok()) << "\"" << bad << "\"";
  }
  const ReachQuery extremes{2147483647, -2147483647 - 1};
  auto wide = ParseReachQuery(FormatReachQuery(extremes));
  ASSERT_TRUE(wide.ok()) << wide.status();
  EXPECT_EQ(wide->source, extremes.source);
  EXPECT_EQ(wide->target, extremes.target);
}

// ---- The site kernel against one BFS per entry ------------------------------

/// Test-local reference row: a single-source BFS from `entry` over the
/// fragment's local edges, collecting the cut-edge heads of every vertex it
/// visits.
ReachEntryRow ReferenceRow(const GraphFragment& frag, int32_t entry,
                           int32_t local_target) {
  std::vector<bool> seen(frag.vertices.size(), false);
  std::deque<int32_t> queue{entry};
  seen[static_cast<size_t>(entry)] = true;
  ReachEntryRow row;
  while (!queue.empty()) {
    const int32_t u = queue.front();
    queue.pop_front();
    row.direct = row.direct || u == local_target;
    const std::vector<NodeId>& heads = frag.cut_out[static_cast<size_t>(u)];
    row.deps.insert(row.deps.end(), heads.begin(), heads.end());
    for (int32_t v : frag.local_out[static_cast<size_t>(u)]) {
      if (seen[static_cast<size_t>(v)]) continue;
      seen[static_cast<size_t>(v)] = true;
      queue.push_back(v);
    }
  }
  std::sort(row.deps.begin(), row.deps.end());
  row.deps.erase(std::unique(row.deps.begin(), row.deps.end()),
                 row.deps.end());
  return row;
}

void ExpectKernelMatchesReference(const GraphFragment& frag,
                                  const std::vector<int32_t>& entries,
                                  int32_t local_target,
                                  const std::string& label) {
  const std::vector<ReachEntryRow> rows =
      PartiallyEvaluateEntries(frag, entries, local_target);
  ASSERT_EQ(rows.size(), entries.size()) << label;
  for (size_t i = 0; i < entries.size(); ++i) {
    const ReachEntryRow want = ReferenceRow(frag, entries[i], local_target);
    const std::string where =
        label + " entry #" + std::to_string(i) + " (local " +
        std::to_string(entries[i]) + ")";
    EXPECT_EQ(rows[i].direct, want.direct) << where;
    EXPECT_EQ(rows[i].deps, want.deps) << where;
  }
}

/// A random store whose fragments hold self-loops and short directed
/// cycles besides sparse random edges; vertices are owned at random.
std::shared_ptr<const GraphFragmentStore> KernelStore(int32_t n,
                                                      size_t fragments,
                                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < n; ++v) {
    if (rng.NextBool(0.1)) edges.push_back({v, v});
    for (int e = 0; e < 2; ++e) {
      if (rng.NextBool(0.7)) {
        edges.push_back({v, static_cast<NodeId>(rng.NextBounded(n))});
      }
    }
  }
  for (int c = 0; c < n / 8; ++c) {
    const size_t length = 2 + rng.NextBounded(5);
    std::vector<NodeId> cycle;
    for (size_t i = 0; i < length; ++i) {
      cycle.push_back(static_cast<NodeId>(rng.NextBounded(n)));
    }
    for (size_t i = 0; i < length; ++i) {
      edges.push_back({cycle[i], cycle[(i + 1) % length]});
    }
  }
  std::vector<FragmentId> owner(static_cast<size_t>(n));
  for (FragmentId& f : owner) {
    f = static_cast<FragmentId>(rng.NextBounded(fragments));
  }
  auto store = BuildGraphStore(n, std::move(owner), std::move(edges));
  PAXML_CHECK(store.ok());
  return std::move(store).ValueOrDie();
}

// Entry counts on both sides of the 64-entry word boundary: every batch
// row equals the single-source reference, with the target local and
// reached, an entry itself, or owned by another fragment.
TEST(ReachKernelTest, BatchRowsMatchPerEntryBFSAcrossTheWordBoundary) {
  size_t direct_rows = 0;
  size_t dep_rows = 0;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    auto store = KernelStore(900, 3, seed);
    const GraphFragment& frag = store->fragment(0);
    const int32_t size = static_cast<int32_t>(frag.vertices.size());
    ASSERT_GE(size, 130);
    Rng rng(seed * 31 + 7);
    for (size_t count : {1, 63, 64, 65, 130}) {
      std::vector<int32_t> entries;
      for (int32_t v = 0; v < size; ++v) entries.push_back(v);
      for (size_t i = 0; i < count; ++i) {
        std::swap(entries[i], entries[i + rng.NextBounded(entries.size() - i)]);
      }
      entries.resize(count);
      std::sort(entries.begin(), entries.end());

      const int32_t local_targets[] = {
          static_cast<int32_t>(rng.NextBounded(size)),
          entries[rng.NextBounded(count)], -1};
      for (int32_t local_target : local_targets) {
        const std::string label = "seed " + std::to_string(seed) +
                                  " entries " + std::to_string(count) +
                                  " target " + std::to_string(local_target);
        ExpectKernelMatchesReference(frag, entries, local_target, label);
        for (const ReachEntryRow& row :
             PartiallyEvaluateEntries(frag, entries, local_target)) {
          direct_rows += row.direct;
          dep_rows += !row.deps.empty();
        }
      }
    }
  }
  // Both halves of a row were exercised, not just their empty defaults.
  EXPECT_GT(direct_rows, 0u);
  EXPECT_GT(dep_rows, 0u);
}

// The kernel's inputs as the handler derives them from a query: a source
// on the in-boundary is one entry, not two; a target that is an entry is
// reached directly by that entry; a target owned elsewhere is no local
// target at all.
TEST(ReachKernelTest, QueryShapedEntriesAndTargets) {
  auto store = KernelStore(600, 4, 11);
  for (size_t fi = 0; fi < store->fragment_count(); ++fi) {
    const FragmentId f = static_cast<FragmentId>(fi);
    const GraphFragment& frag = store->fragment(f);
    ASSERT_GE(frag.in_boundary.size(), 2u) << "fragment " << f;
    const std::string label = "fragment " + std::to_string(f);

    const int32_t boundary_entry = frag.in_boundary.front();
    const int32_t target_entry = frag.in_boundary.back();
    ReachQuery q{frag.vertices[static_cast<size_t>(boundary_entry)],
                 frag.vertices[static_cast<size_t>(target_entry)]};
    const std::vector<int32_t> entries = ReachEntryVertices(*store, q, f);
    EXPECT_EQ(entries, frag.in_boundary) << label;
    ASSERT_EQ(ReachLocalTarget(*store, q, f), target_entry) << label;
    ExpectKernelMatchesReference(frag, entries, target_entry,
                                 label + " target-is-entry");
    EXPECT_TRUE(
        PartiallyEvaluateEntries(frag, entries, target_entry).back().direct)
        << label;

    const FragmentId other = static_cast<FragmentId>((fi + 1) %
                                                     store->fragment_count());
    q.target = store->fragment(other).vertices.front();
    EXPECT_EQ(ReachLocalTarget(*store, q, f), -1) << label;
    ExpectKernelMatchesReference(frag, entries, -1, label + " remote-target");
    for (const ReachEntryRow& row :
         PartiallyEvaluateEntries(frag, entries, -1)) {
      EXPECT_FALSE(row.direct) << label;
    }
  }
}

// The store's query-independent tables and the per-query traversals
// against the same reference: every cached in-boundary row is the entry's
// BFS row with no target, a single entry's row (EvaluateEntry) is its BFS
// row, and the reverse traversal's direct bits are the entries' BFS rows'
// `direct` for any local target, including an in-boundary one.
TEST(ReachKernelTest, InBoundaryTablesMatchPerEntryBFS) {
  auto store = KernelStore(900, 3, 5);
  size_t reached = 0;
  for (size_t fi = 0; fi < store->fragment_count(); ++fi) {
    const FragmentId f = static_cast<FragmentId>(fi);
    const GraphFragment& frag = store->fragment(f);
    const std::string label = "fragment " + std::to_string(f);
    ASSERT_GT(frag.in_boundary.size(), kReachBatchEntries) << label;
    const std::vector<ReachEntryRow>& rows = store->InBoundaryRows(f);
    ASSERT_EQ(rows.size(), frag.in_boundary.size()) << label;
    for (size_t i = 0; i < rows.size(); ++i) {
      const ReachEntryRow want = ReferenceRow(frag, frag.in_boundary[i], -1);
      EXPECT_FALSE(rows[i].direct) << label << " entry #" << i;
      EXPECT_EQ(rows[i].deps, want.deps) << label << " entry #" << i;
    }

    Rng rng(fi * 13 + 1);
    const int32_t size = static_cast<int32_t>(frag.vertices.size());
    for (int32_t local_target :
         {static_cast<int32_t>(rng.NextBounded(size)),
          static_cast<int32_t>(rng.NextBounded(size)),
          frag.in_boundary[rng.NextBounded(frag.in_boundary.size())]}) {
      for (int32_t entry : {static_cast<int32_t>(rng.NextBounded(size)),
                            local_target}) {
        const ReachEntryRow row = EvaluateEntry(frag, entry, local_target);
        const ReachEntryRow want = ReferenceRow(frag, entry, local_target);
        EXPECT_EQ(row.direct, want.direct) << label << " entry " << entry;
        EXPECT_EQ(row.deps, want.deps) << label << " entry " << entry;
      }
      const std::vector<bool> reaches =
          store->InBoundaryReaching(f, local_target);
      ASSERT_EQ(reaches.size(), frag.in_boundary.size()) << label;
      for (size_t i = 0; i < reaches.size(); ++i) {
        EXPECT_EQ(reaches[i],
                  ReferenceRow(frag, frag.in_boundary[i], local_target).direct)
            << label << " target " << local_target << " entry #" << i;
        reached += reaches[i];
      }
    }
    for (bool r : store->InBoundaryReaching(f, -1)) EXPECT_FALSE(r) << label;
  }
  EXPECT_GT(reached, 0u);
}

// ---- Warm and cold stores ---------------------------------------------------

/// A cluster over a freshly built copy of `w`'s store: the same fragments
/// and placement, with none of the store's derived tables built yet.
std::unique_ptr<Cluster> ColdCluster(const GraphWorld& w) {
  auto store = BuildGraphStore(w.store->vertex_count(), w.store->owners(),
                               w.store->edges());
  PAXML_CHECK(store.ok());
  ClusterOptions copts;
  copts.parallel_execution = false;
  auto cluster = std::make_unique<Cluster>(std::move(store).ValueOrDie(),
                                           w.cluster->site_count(), copts);
  cluster->PlaceRootAndSpread();
  return cluster;
}

/// A query named by the shape of its endpoints.
struct ShapedQuery {
  std::string shape;
  ReachQuery query;
};

/// Queries of every endpoint shape the site handler distinguishes, over
/// fragments 0 and 1 of `w` (other endpoints drawn from `rng`).
std::vector<ShapedQuery> EndpointShapes(const GraphWorld& w, Rng& rng) {
  const GraphFragmentStore& store = *w.store;
  auto global = [&](FragmentId f, int32_t local) {
    return store.fragment(f).vertices[static_cast<size_t>(local)];
  };
  auto any_in = [&](FragmentId f) {
    const GraphFragment& frag = store.fragment(f);
    return global(
        f, static_cast<int32_t>(rng.NextBounded(frag.vertices.size())));
  };
  auto boundary_in = [&](FragmentId f) {
    const GraphFragment& frag = store.fragment(f);
    return global(
        f, frag.in_boundary[rng.NextBounded(frag.in_boundary.size())]);
  };
  // Local vertices that are not in-boundary, and those of them no other
  // local vertex has an edge into: only the vertex itself reaches them
  // inside the fragment.
  auto interior = [&](FragmentId f, bool unreachable) {
    const GraphFragment& frag = store.fragment(f);
    std::vector<bool> entered(frag.vertices.size(), false);
    for (int32_t v : frag.in_boundary) entered[static_cast<size_t>(v)] = true;
    if (unreachable) {
      for (const std::vector<int32_t>& heads : frag.local_out) {
        for (int32_t v : heads) entered[static_cast<size_t>(v)] = true;
      }
    }
    std::vector<NodeId> out;
    for (size_t v = 0; v < entered.size(); ++v) {
      if (!entered[v]) out.push_back(frag.vertices[v]);
    }
    PAXML_CHECK(!out.empty());
    return out[rng.NextBounded(out.size())];
  };

  std::vector<ShapedQuery> queries;
  for (int i = 0; i < 3; ++i) {
    queries.push_back({"source in-boundary", {boundary_in(0), any_in(1)}});
    queries.push_back({"source extra entry", {interior(0, false), any_in(1)}});
    const NodeId self = i == 0 ? boundary_in(0) : interior(0, i == 1);
    queries.push_back({"source == target", {self, self}});
    queries.push_back({"target in-boundary", {any_in(0), boundary_in(1)}});
    queries.push_back({"same fragment", {interior(0, false), any_in(0)}});
    queries.push_back({"same fragment", {boundary_in(0), boundary_in(0)}});
    queries.push_back(
        {"target unreachable in its fragment", {any_in(0), interior(1, true)}});
    queries.push_back({"target unreachable in its fragment",
                       {interior(1, false), interior(1, true)}});
  }
  return queries;
}

// A store that has served queries answers every query bit-identically to
// a freshly built one: the cached in-boundary rows, the reverse traversal
// for the target and the source's own traversal reproduce the rows a cold
// store derives, for every endpoint shape, with fragments holding more
// than 64 in-boundary entries.
TEST(ReachCacheTest, WarmStoreIsBitIdenticalToCold) {
  const int32_t n = 2000;
  GraphWorld w = MakeWorld(n, 1.8, 4, 4, 23);
  for (size_t f = 0; f < w.store->fragment_count(); ++f) {
    ASSERT_GT(w.store->fragment(static_cast<FragmentId>(f)).in_boundary.size(),
              kReachBatchEntries)
        << "fragment " << f;
  }
  Rng rng(29);
  for (int i = 0; i < 16; ++i) {  // warms every fragment's tables
    const ReachQuery q{static_cast<NodeId>(rng.NextBounded(n)),
                       static_cast<NodeId>(rng.NextBounded(n))};
    ASSERT_TRUE(Reach(*w.cluster, q).ok()) << FormatReachQuery(q);
  }

  size_t reachable = 0;
  for (const ShapedQuery& shaped : EndpointShapes(w, rng)) {
    const std::string label =
        shaped.shape + " " + FormatReachQuery(shaped.query);
    auto warm = Reach(*w.cluster, shaped.query);
    auto cold = Reach(*ColdCluster(w), shaped.query);
    ASSERT_TRUE(warm.ok()) << label << ": " << warm.status();
    ASSERT_TRUE(cold.ok()) << label << ": " << cold.status();
    EXPECT_EQ(warm->answers, ExpectedAnswer(w, shaped.query)) << label;
    EXPECT_EQ(cold->answers, warm->answers) << label;
    ExpectContractEqual(warm->stats, cold->stats, label);
    reachable += !warm->answers.empty();
  }
  EXPECT_GT(reachable, 0u);
}

// Concurrent first queries on a fresh store race to build the same
// fragments' tables (lanes at site_threads = 4 and runs on four client
// threads); every answer equals BFS. The CI ThreadSanitizer job runs this
// suite, so an unsynchronized table build fails there.
TEST(ReachCacheTest, ConcurrentFirstQueriesOnAFreshStoreMatchBFS) {
  const int32_t n = 2000;
  GraphWorld w = MakeWorld(n, 1.8, 6, 4, 17);
  TransportOptions opts;
  opts.site_threads = 4;
  Rng rng(3);
  constexpr size_t kClients = 4;
  for (int trial = 0; trial < 6; ++trial) {
    std::unique_ptr<Cluster> fresh = ColdCluster(w);
    PooledTransport pooled(4, opts);
    std::vector<ReachQuery> queries;
    for (size_t c = 0; c < kClients; ++c) {
      // Two clients per target fragment, so the reverse tables race too.
      const GraphFragment& target_frag =
          w.store->fragment(static_cast<FragmentId>(c % 2));
      queries.push_back(
          {static_cast<NodeId>(rng.NextBounded(n)),
           target_frag.vertices[rng.NextBounded(target_frag.vertices.size())]});
    }
    std::vector<std::optional<Result<DistributedResult>>> results(kClients);
    std::latch start(kClients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        start.arrive_and_wait();
        results[c] = EvaluateReachability(*fresh, queries[c], &pooled);
      });
    }
    for (std::thread& t : clients) t.join();
    for (size_t c = 0; c < kClients; ++c) {
      const std::string label =
          "trial " + std::to_string(trial) + " " + FormatReachQuery(queries[c]);
      ASSERT_TRUE(results[c]->ok()) << label << ": " << results[c]->status();
      EXPECT_EQ((*results[c])->answers, ExpectedAnswer(w, queries[c])) << label;
      EXPECT_EQ((*results[c])->stats.rounds, 1) << label;
    }
  }
}

// ---- Over real processes ----------------------------------------------------

// Engine::Submit drives the graph family through the same session API as
// XPath — the query string's syntax is the only difference.
TEST(ReachSocketTest, EngineSubmitRoutesByWorkload) {
  GraphWorld w = MakeWorld(80, 1.8, 4, 4, 21);
  const std::string dir = MakeTempDir();
  ASSERT_TRUE(SaveGraph(*w.store, dir).ok());
  Deployment deployment(dir, *w.cluster);

  EngineConfig config;
  config.depth = 2;
  config.transport_options.remote_endpoints = deployment.endpoints();
  Engine engine(*w.cluster, config);

  Rng rng(1);
  for (int i = 0; i < 4; ++i) {
    ReachQuery q;
    q.source = static_cast<NodeId>(rng.NextBounded(80));
    q.target = static_cast<NodeId>(rng.NextBounded(80));
    QueryHandle h = engine.Submit(FormatReachQuery(q));
    const QueryReport& report = h.Wait();
    ASSERT_TRUE(report.result.ok()) << report.result.status();
    auto baseline = Reach(*w.cluster, q);
    ASSERT_TRUE(baseline.ok());
    EXPECT_EQ(report.result->answers, baseline->answers);
    ExpectContractEqual(report.stats, baseline->stats, FormatReachQuery(q));
  }

  // An XPath string over graph data fails to parse as a reach query — the
  // data's family owns the query syntax.
  QueryHandle bad = engine.Submit("//stock/code");
  ASSERT_FALSE(bad.Wait().result.ok());
}

// ---- The workload seam ------------------------------------------------------

// A peer serving XML data rejects a graph run with a clean error naming
// both families, run-scoped (the connection survives the refusal).
TEST(ReachWorkloadSeamTest, XmlPeerRejectsGraphRun) {
  // A graph shaped like the clientele document's deployment: 5 fragments
  // on 4 sites, so the shape fingerprint matches and only the workload
  // kind differs.
  GraphWorld w = MakeWorld(50, 1.5, 5, 4, 13);

  Tree t = testing::BuildClienteleTree();
  auto doc_r = FragmentByCuts(t, testing::ClienteleCuts(t));
  PAXML_CHECK(doc_r.ok());
  FragmentedDocument doc = std::move(doc_r).ValueOrDie();
  ASSERT_EQ(doc.size(), w.store->fragment_count());
  const std::string dir = MakeTempDir();
  ASSERT_TRUE(SaveDocument(doc, dir).ok());
  Deployment deployment(dir, *w.cluster);  // peers load the XML directory

  TransportOptions sopts;
  sopts.remote_endpoints = deployment.endpoints();
  SocketTransport socket(sopts);
  auto r = EvaluateReachability(*w.cluster, ReachQuery{0, 10}, &socket);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNetworkError);
  EXPECT_NE(r.status().message().find("workload mismatch"), std::string::npos)
      << r.status();
}

TEST(ReachWorkloadSeamTest, UnknownFamilyErrorEnumeratesRegisteredOnes) {
  GraphWorld w = MakeWorld(10, 1.0, 2, 2, 1);
  RunSpec spec;
  spec.algorithm = "Mystery";
  spec.family = "tensor";
  auto r = MakeSiteProgram(*w.cluster, spec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("\"graph\""), std::string::npos)
      << r.status();
  EXPECT_NE(r.status().message().find("\"xml\""), std::string::npos)
      << r.status();
}

// A graph RunSpec over an XML cluster (and vice versa) is refused before
// any family code runs.
TEST(ReachWorkloadSeamTest, FamilyMustMatchTheClustersData) {
  GraphWorld w = MakeWorld(10, 1.0, 2, 2, 1);
  RunSpec spec;
  spec.algorithm = "PaX2";
  spec.query = "//a";
  spec.family = "xml";
  auto r = MakeSiteProgram(*w.cluster, spec);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("workload mismatch"), std::string::npos)
      << r.status();
}

// ---- Store persistence ------------------------------------------------------

// SaveGraph/LoadGraph round-trip bit-identically: the loaded store's
// canonical inputs (owners and sorted edge list) equal the original's, so
// every derived fragment table does too — what lets a peer loading from
// disk reproduce the client's in-process frames byte for byte.
TEST(GraphStoreTest, SaveLoadRoundTripsExactly) {
  GraphWorld w = MakeWorld(70, 2.0, 5, 4, 31);
  const std::string dir = MakeTempDir();
  ASSERT_TRUE(SaveGraph(*w.store, dir).ok());
  EXPECT_TRUE(IsGraphStoreDir(dir));

  auto loaded_r = LoadGraph(dir);
  ASSERT_TRUE(loaded_r.ok()) << loaded_r.status();
  const GraphFragmentStore& loaded = **loaded_r;
  EXPECT_EQ(loaded.vertex_count(), w.store->vertex_count());
  EXPECT_EQ(loaded.edge_count(), w.store->edge_count());
  EXPECT_EQ(loaded.fragment_count(), w.store->fragment_count());
  EXPECT_EQ(loaded.owners(), w.store->owners());
  EXPECT_EQ(loaded.edges(), w.store->edges());
  for (size_t f = 0; f < loaded.fragment_count(); ++f) {
    const GraphFragment& a = loaded.fragment(static_cast<FragmentId>(f));
    const GraphFragment& b = w.store->fragment(static_cast<FragmentId>(f));
    EXPECT_EQ(a.vertices, b.vertices) << "fragment " << f;
    EXPECT_EQ(a.local_out, b.local_out) << "fragment " << f;
    EXPECT_EQ(a.cut_out, b.cut_out) << "fragment " << f;
    EXPECT_EQ(a.in_boundary, b.in_boundary) << "fragment " << f;
  }
  EXPECT_FALSE(IsGraphStoreDir("/nonexistent/path"));
}

// The shipped data is O(cut edges), independent of |V|: growing the graph
// without growing the cut must not grow the bytes. A ring partitioned
// into contiguous arcs has exactly one cut edge per fragment no matter how
// long the arcs are.
TEST(ReachCorrectnessTest, ShippedDataScalesWithCutNotVertices) {
  auto ring_world = [](int32_t n, size_t fragments) {
    GraphWorld w;
    w.graph.vertex_count = n;
    w.graph.out.resize(n);
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (int32_t v = 0; v < n; ++v) {
      w.graph.out[v].push_back((v + 1) % n);
      edges.push_back({v, (v + 1) % n});
    }
    std::vector<FragmentId> owner(n);
    for (int32_t v = 0; v < n; ++v) {
      owner[v] = static_cast<FragmentId>(
          std::min(fragments - 1, static_cast<size_t>(v) / (n / fragments)));
    }
    auto store = BuildGraphStore(n, owner, edges);
    PAXML_CHECK(store.ok());
    w.store = std::move(store).ValueOrDie();
    ClusterOptions copts;
    copts.parallel_execution = false;
    w.cluster = std::make_unique<Cluster>(w.store, fragments, copts);
    w.cluster->PlaceRootAndSpread();
    return w;
  };

  GraphWorld small = ring_world(40, 4);
  GraphWorld large = ring_world(400, 4);
  const ReachQuery sq{1, 21};    // wraps through every small arc
  const ReachQuery lq{1, 201};   // wraps through every large arc
  auto s = Reach(*small.cluster, sq);
  auto l = Reach(*large.cluster, lq);
  ASSERT_TRUE(s.ok()) << s.status();
  ASSERT_TRUE(l.ok()) << l.status();
  ASSERT_EQ(s->answers.size(), 1u);
  ASSERT_EQ(l->answers.size(), 1u);
  // Ten times the vertices, the same cut: bytes stay flat (a little varint
  // headroom for the wider vertex ids, nowhere near the 10x of shipping
  // vertices).
  EXPECT_LT(l->stats.total_bytes, 2 * s->stats.total_bytes);
  EXPECT_EQ(l->stats.rounds, 1);
}

}  // namespace
}  // namespace paxml
