// Tests for the graph workload family (DESIGN.md §11): distributed
// reachability by partial evaluation over the same runtime that serves the
// XML algorithms.
//
//  * correctness — randomized digraphs under random partitionings agree
//    with single-site BFS ground truth on every query, in exactly one
//    delivery round however many fragments there are;
//  * the site kernel — the bit-parallel batch traversal's rows equal one
//    BFS per entry, across the 64-entry word boundary;
//  * determinism — sync, pooled and intra-site-parallel (site_threads = 4)
//    evaluations produce bit-identical RunStats;
//  * deployment — a four-process socket run (three real paxml_site peers
//    plus the client) reproduces SyncTransport's *exact* RunStats: the
//    acceptance bar of the workload-agnostic runtime;
//  * the workload seam — an XML-serving peer rejects a graph run with a
//    clean error, an unknown family's error enumerates the registered
//    ones, and the graph store round-trips through its on-disk format.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <string>
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
#include "test_util.h"

namespace paxml {
namespace {

// ---- Spawning paxml_site peers (as in socket_transport_test.cc) -------------

std::string ExeDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  PAXML_CHECK(n > 0);
  buf[n] = '\0';
  std::string path(buf);
  return path.substr(0, path.rfind('/'));
}

std::string SiteBinary() {
  if (const char* env = std::getenv("PAXML_SITE_BIN")) return env;
  for (const std::string& candidate :
       {ExeDir() + "/tools/paxml_site", ExeDir() + "/../tools/paxml_site"}) {
    if (::access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  PAXML_CHECK(false);  // build the tool_paxml_site target first
  return "";
}

std::string MakeTempDir() {
  std::string tmpl = "/tmp/paxml_reach_test_XXXXXX";
  PAXML_CHECK(::mkdtemp(tmpl.data()) != nullptr);
  return tmpl;
}

struct SiteProcess {
  pid_t pid = -1;
  int port = 0;
};

std::string PlacementString(const Cluster& cluster) {
  std::string out;
  for (size_t f = 0; f < cluster.fragment_count(); ++f) {
    if (!out.empty()) out += ',';
    out += std::to_string(cluster.site_of(static_cast<FragmentId>(f)));
  }
  return out;
}

SiteProcess SpawnSite(const std::string& data_dir, const Cluster& cluster,
                      SiteId site) {
  int out_pipe[2];
  PAXML_CHECK(::pipe(out_pipe) == 0);

  const std::string binary = SiteBinary();
  const std::string site_arg = std::to_string(site);
  const std::string sites_arg = std::to_string(cluster.site_count());
  const std::string placement = PlacementString(cluster);

  const pid_t pid = ::fork();
  PAXML_CHECK(pid >= 0);
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::execl(binary.c_str(), binary.c_str(), data_dir.c_str(), "--site",
            site_arg.c_str(), "--sites", sites_arg.c_str(), "--placement",
            placement.c_str(), "--port", "0", static_cast<char*>(nullptr));
    std::perror("execl paxml_site");
    ::_exit(127);
  }
  ::close(out_pipe[1]);

  std::string line;
  char c;
  while (line.find('\n') == std::string::npos) {
    const ssize_t n = ::read(out_pipe[0], &c, 1);
    if (n <= 0) break;
    line.push_back(c);
  }
  ::close(out_pipe[0]);
  SiteProcess proc;
  proc.pid = pid;
  std::sscanf(line.c_str(), "PAXML_SITE LISTENING %d", &proc.port);
  PAXML_CHECK(proc.port > 0);  // the site failed to start
  return proc;
}

void KillSite(SiteProcess& proc) {
  if (proc.pid <= 0) return;
  ::kill(proc.pid, SIGKILL);
  int status = 0;
  ::waitpid(proc.pid, &status, 0);
  proc.pid = -1;
}

/// One multi-process deployment over an already-saved data directory: one
/// paxml_site per non-query site, plus the endpoint map for the client.
class Deployment {
 public:
  Deployment(const std::string& dir, const Cluster& cluster) {
    for (size_t s = 0; s < cluster.site_count(); ++s) {
      const SiteId site = static_cast<SiteId>(s);
      if (site == cluster.query_site()) continue;
      sites_[site] = SpawnSite(dir, cluster, site);
      endpoints_[site] = "127.0.0.1:" + std::to_string(sites_[site].port);
    }
  }

  ~Deployment() {
    for (auto& [site, proc] : sites_) KillSite(proc);
  }

  const std::map<SiteId, std::string>& endpoints() const { return endpoints_; }

 private:
  std::map<SiteId, SiteProcess> sites_;
  std::map<SiteId, std::string> endpoints_;
};

// ---- Exact-equality helpers -------------------------------------------------

std::vector<int> Visits(const RunStats& s) {
  std::vector<int> v;
  for (const SiteStats& p : s.per_site) v.push_back(p.visits);
  return v;
}

void ExpectStatsEqual(const RunStats& got, const RunStats& want,
                      const std::string& label) {
  EXPECT_EQ(got.rounds, want.rounds) << label;
  EXPECT_EQ(Visits(got), Visits(want)) << label;
  EXPECT_EQ(got.total_messages, want.total_messages) << label;
  EXPECT_EQ(got.total_envelopes, want.total_envelopes) << label;
  EXPECT_EQ(got.total_bytes, want.total_bytes) << label;
  EXPECT_EQ(got.answer_bytes, want.answer_bytes) << label;
  EXPECT_EQ(got.data_bytes_shipped, want.data_bytes_shipped) << label;
  EXPECT_EQ(got.wire_bytes, want.wire_bytes) << label;
  EXPECT_EQ(got.edges, want.edges) << label;
  ASSERT_EQ(got.per_site.size(), want.per_site.size()) << label;
  for (size_t s = 0; s < want.per_site.size(); ++s) {
    EXPECT_EQ(got.per_site[s].bytes_sent, want.per_site[s].bytes_sent)
        << label << " site " << s;
    EXPECT_EQ(got.per_site[s].bytes_received, want.per_site[s].bytes_received)
        << label << " site " << s;
    EXPECT_EQ(got.per_site[s].messages_sent, want.per_site[s].messages_sent)
        << label << " site " << s;
    EXPECT_EQ(got.per_site[s].messages_received,
              want.per_site[s].messages_received)
        << label << " site " << s;
  }
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
      auto r = EvaluateReachability(*w.cluster, q);
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
  auto r = EvaluateReachability(*w.cluster, self);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->answers, ExpectedAnswer(w, self));
  ASSERT_EQ(r->answers.size(), 1u);

  // Out-of-range endpoints are rejected up front.
  auto bad = EvaluateReachability(*w.cluster, ReachQuery{0, 99});
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

// ---- Determinism: sync vs pooled vs intra-site parallel ---------------------

/// True when some fragment has more entries than one batch holds, so a
/// forced split of its request actually fans out.
bool HasSplittableFragment(const GraphFragmentStore& store) {
  for (size_t f = 0; f < store.fragment_count(); ++f) {
    if (store.fragment(static_cast<FragmentId>(f)).in_boundary.size() >
        kReachBatchEntries) {
      return true;
    }
  }
  return false;
}

TEST(ReachDeterminismTest, SyncPooledAndThreadedAreBitIdentical) {
  // Big enough that fragments hold several 64-entry batches.
  const int32_t n = 2000;
  GraphWorld w = MakeWorld(n, 1.8, 7, 4, 3);
  ASSERT_TRUE(HasSplittableFragment(*w.store));
  Rng rng(77);
  uint64_t threaded_pool_tasks = 0;
  uint64_t split_pool_tasks = 0;
  for (int i = 0; i < 10; ++i) {
    ReachQuery q;
    q.source = static_cast<NodeId>(rng.NextBounded(n));
    q.target = static_cast<NodeId>(rng.NextBounded(n));
    const std::string label = FormatReachQuery(q);

    SyncTransport sync;
    auto s = EvaluateReachability(*w.cluster, q, &sync);

    PooledTransport pooled(4);
    auto p = EvaluateReachability(*w.cluster, q, &pooled);

    TransportOptions threaded_opts;
    threaded_opts.site_threads = 4;
    SyncTransport threaded(threaded_opts);
    auto t = EvaluateReachability(*w.cluster, q, &threaded);

    // Intra-fragment splitting forced on (threshold 1%): 64-entry batch
    // sub-items fan out, yet the dep/answer streams must re-encode
    // byte-identically (DESIGN.md §14).
    TransportOptions split_opts;
    split_opts.site_threads = 4;
    split_opts.split_threshold_pct = 1;
    SyncTransport split(split_opts);
    auto sp = EvaluateReachability(*w.cluster, q, &split);

    ASSERT_TRUE(s.ok()) << label << ": " << s.status();
    ASSERT_TRUE(p.ok()) << label << ": " << p.status();
    ASSERT_TRUE(t.ok()) << label << ": " << t.status();
    ASSERT_TRUE(sp.ok()) << label << ": " << sp.status();
    EXPECT_EQ(p->answers, s->answers) << label;
    EXPECT_EQ(t->answers, s->answers) << label;
    EXPECT_EQ(sp->answers, s->answers) << label;
    ExpectStatsEqual(p->stats, s->stats, "pooled|" + label);
    ExpectStatsEqual(t->stats, s->stats, "threads=4|" + label);
    ExpectStatsEqual(sp->stats, s->stats, "split|" + label);
    threaded_pool_tasks += t->stats.pool_tasks;
    split_pool_tasks += sp->stats.pool_tasks;
  }
  // The split runs actually fanned out: a split lane becomes two or more
  // pool tasks, so they ran more tasks than the lanes alone did, and the
  // equality above is not vacuous.
  EXPECT_GT(split_pool_tasks, threaded_pool_tasks);
}

// ---- The acceptance bar: four processes over sockets ------------------------

// A reachability query on a four-machine deployment (three paxml_site
// processes plus the client) reproduces SyncTransport's exact RunStats —
// the same guarantee the XML family makes, now workload-agnostic.
TEST(ReachSocketTest, FourProcessDeploymentReproducesSyncExactly) {
  // Big enough that the forced split has fragments of several batches.
  const int32_t n = 2000;
  GraphWorld w = MakeWorld(n, 1.7, 6, 4, 9);
  ASSERT_TRUE(HasSplittableFragment(*w.store));
  const std::string dir = MakeTempDir();
  ASSERT_TRUE(SaveGraph(*w.store, dir).ok());
  Deployment deployment(dir, *w.cluster);

  Rng rng(5);
  // Pool tasks the peers report per (threads, split) config.
  std::map<std::pair<size_t, uint64_t>, uint64_t> pool_tasks;
  for (int i = 0; i < 8; ++i) {
    ReachQuery q;
    q.source = static_cast<NodeId>(rng.NextBounded(n));
    q.target = static_cast<NodeId>(rng.NextBounded(n));
    const std::string label = FormatReachQuery(q);

    auto sync = EvaluateReachability(*w.cluster, q);
    ASSERT_TRUE(sync.ok()) << label << ": " << sync.status();
    EXPECT_EQ(sync->answers, ExpectedAnswer(w, q)) << label;

    // (threads, split threshold %): serial, lane-parallel, and lane-
    // parallel with intra-fragment splitting forced on at the peers.
    for (auto [threads, split_pct] :
         {std::pair<size_t, uint64_t>{1, 0}, {4, 0}, {4, 1}}) {
      TransportOptions sopts;
      sopts.remote_endpoints = deployment.endpoints();
      sopts.site_threads = threads;
      sopts.split_threshold_pct = split_pct;
      SocketTransport socket(sopts);
      auto remote = EvaluateReachability(*w.cluster, q, &socket);
      const std::string tlabel = label + "|threads=" +
                                 std::to_string(threads) + "|split=" +
                                 std::to_string(split_pct);
      ASSERT_TRUE(remote.ok()) << tlabel << ": " << remote.status();
      EXPECT_EQ(remote->answers, sync->answers) << tlabel;
      ExpectStatsEqual(remote->stats, sync->stats, tlabel);
      pool_tasks[{threads, split_pct}] += remote->stats.pool_tasks;
    }
  }
  // The peers' forced split fanned out beyond their lanes.
  EXPECT_GT((pool_tasks[{4, 1}]), (pool_tasks[{4, 0}]));
}

// Engine::Submit drives the graph family through the same session API as
// XPath — the query string's syntax is the only difference.
TEST(ReachSocketTest, EngineSubmitRoutesByWorkload) {
  GraphWorld w = MakeWorld(80, 1.8, 4, 4, 21);
  const std::string dir = MakeTempDir();
  ASSERT_TRUE(SaveGraph(*w.store, dir).ok());
  Deployment deployment(dir, *w.cluster);

  EngineConfig config;
  config.depth = 2;
  config.remote_endpoints = deployment.endpoints();
  Engine engine(*w.cluster, config);

  Rng rng(1);
  for (int i = 0; i < 4; ++i) {
    ReachQuery q;
    q.source = static_cast<NodeId>(rng.NextBounded(80));
    q.target = static_cast<NodeId>(rng.NextBounded(80));
    QueryHandle h = engine.Submit(FormatReachQuery(q));
    const QueryReport& report = h.Wait();
    ASSERT_TRUE(report.result.ok()) << report.result.status();
    auto baseline = EvaluateReachability(*w.cluster, q);
    ASSERT_TRUE(baseline.ok());
    EXPECT_EQ(report.result->answers, baseline->answers);
    ExpectStatsEqual(report.stats, baseline->stats, FormatReachQuery(q));
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
  auto s = EvaluateReachability(*small.cluster, sq);
  auto l = EvaluateReachability(*large.cluster, lq);
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
