// The equivalence matrix (DESIGN.md §15): one seeded property harness for
// the bit-identity contract. Every backend and every knob must reproduce
// the RunStats of a SyncTransport run with default options, with answers
// equal to the centralized evaluator's (XML) or to BFS (graphs): the same
// result however the work is distributed.
//
// A cell is a world (a family, a dataset, a fragmentation and a placement,
// with its queries), an algorithm and a config vector: backend,
// site_threads, split_threshold_pct, peer_concurrent_rounds, batching,
// fragment memo, annotations, AnswerShipMode and submission. Cells are
// sampled with a fixed seed until every pair of axis values appears in at
// least one cell; fixed cells add what a pair cannot pin (the split walk
// over the hand-built dead subtree) and the real paxml_site processes.
//
// Each cell runs every query of its world and checks, per run: answers
// equal the oracle; ContractMismatch against the reference run (same
// world, algorithm, annotations, ship mode and query) is empty, and with
// batching off everything but messages and wire bytes is compared and a
// message is an envelope; per-edge bytes partition total_bytes, with no
// self-edge; and direct runs on the in-process backends send, edge by edge,
// the same parts in the same order as the reference. Over the whole matrix
// the advisory counters prove the knobs did something. A failing cell is shrunk to its one failing query and to
// the axis values nearest the reference that still fail, and printed.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/reach.h"
#include "core/workload.h"
#include "eval/centralized.h"
#include "fragment/fragmenter.h"
#include "graph/digraph.h"
#include "graph/store.h"
#include "harness.h"
#include "runtime/socket_server.h"
#include "serving/fragment_memo.h"
#include "site_process.h"
#include "test_util.h"

namespace paxml {
namespace {

using testing::ContractMismatch;

// ---- Axes -------------------------------------------------------------------

enum Axis : size_t {
  kWorld,
  kAlgorithm,
  kBackend,
  kThreads,
  kSplit,
  kRounds,
  kBatching,
  kMemo,
  kAnnotations,
  kShipMode,
  kSubmission,
  kAxisCount,
};

/// A cell: one value index per axis. Index 0 is the reference value of
/// every config axis (kBackend onwards); shrinking walks from it upwards.
using Cell = std::array<uint8_t, kAxisCount>;

enum Backend : uint8_t { kSyncBackend, kPooled, kSocket, kProcesses };
enum Algorithm : uint8_t { kPaX2, kPaX3, kNaive, kReach };

const char* const kAxisNames[kAxisCount] = {
    "world",    "algorithm", "backend",     "threads",  "split",     "rounds",
    "batching", "memo",      "annotations", "ship",     "submission"};

const std::vector<std::vector<std::string>> kAxisValues = {
    {},  // the worlds, named by kWorldNames
    {"PaX2", "PaX3", "naive", "Reach"},
    {"sync", "pooled", "socket", "processes"},
    {"1", "4"},
    {"0", "100", "1"},
    {"1", "2"},
    {"on", "off"},
    {"off", "on"},
    {"off", "on"},
    {"subtrees", "references"},
    {"direct", "engine"},
};

constexpr size_t kThreadValues[] = {1, 4};
constexpr uint64_t kSplitValues[] = {0, 100, 1};
constexpr uint64_t kRoundValues[] = {1, 2};

enum WorldId : uint8_t {
  kRandomMany,
  kRandomOneHot,
  kClientele,
  kFt2,
  kDeadSubtree,
  kGraphSparse,
  kGraphWide,
  kWorldCount,
};

const char* const kWorldNames[kWorldCount] = {
    "random-many", "random-onehot", "clientele",  "ft2",
    "dead-subtree", "graph-sparse", "graph-wide"};

bool IsGraph(uint8_t world) {
  return world == kGraphSparse || world == kGraphWide;
}

size_t ValueCount(size_t axis) {
  return axis == kWorld ? size_t{kWorldCount} : kAxisValues[axis].size();
}

const std::string& ValueName(size_t axis, uint8_t value) {
  static const std::vector<std::string> worlds(kWorldNames,
                                               kWorldNames + kWorldCount);
  return axis == kWorld ? worlds[value] : kAxisValues[axis][value];
}

/// Whether a cell means something: the graph family runs Reach and the XML
/// family the other three, peer_concurrent_rounds is a socket knob, and the
/// socket plane requires batching. Real processes appear in fixed cells
/// only.
bool Valid(const Cell& c, bool sampled) {
  if (IsGraph(c[kWorld]) != (c[kAlgorithm] == kReach)) return false;
  if (sampled && c[kBackend] == kProcesses) return false;
  const bool socket = c[kBackend] >= kSocket;
  if (!socket && c[kRounds] != 0) return false;
  return !socket || c[kBatching] == 0;
}

std::string Describe(const Cell& c) {
  std::string all;
  std::string changed;
  for (size_t a = 0; a < kAxisCount; ++a) {
    const std::string kv =
        std::string(kAxisNames[a]) + "=" + ValueName(a, c[a]) + " ";
    all += kv;
    if (a >= kBackend && c[a] != 0) changed += kv;
  }
  return all + "| off the reference: " + (changed.empty() ? "none" : changed);
}

// ---- Cell sampling ----------------------------------------------------------

/// Greedy pairwise covering: among random valid cells (fixed seed) take the
/// one that covers the most pairs of axis values not yet covered, until
/// every pair some valid cell holds is covered.
std::vector<Cell> SampledCells() {
  std::array<size_t, kAxisCount + 1> offset{};
  for (size_t a = 0; a < kAxisCount; ++a) {
    offset[a + 1] = offset[a] + ValueCount(a);
  }
  const size_t values = offset[kAxisCount];
  auto pairs_of = [&](const Cell& c, auto&& visit) {
    for (size_t a = 0; a < kAxisCount; ++a) {
      for (size_t b = a + 1; b < kAxisCount; ++b) {
        visit((offset[a] + c[a]) * values + offset[b] + c[b]);
      }
    }
  };

  std::vector<Cell> valid;
  Cell c{};
  while (true) {
    if (Valid(c, /*sampled=*/true)) valid.push_back(c);
    size_t a = 0;
    while (a < kAxisCount && ++c[a] == ValueCount(a)) c[a++] = 0;
    if (a == kAxisCount) break;
  }
  std::vector<char> uncovered(values * values, 0);
  size_t left = 0;
  for (const Cell& v : valid) {
    pairs_of(v, [&](size_t p) { left += uncovered[p] == 0; uncovered[p] = 1; });
  }

  Rng rng(20070611);
  std::vector<Cell> cells;
  while (left > 0) {
    auto gain = [&](const Cell& cand) {
      size_t n = 0;
      pairs_of(cand, [&](size_t p) { n += uncovered[p]; });
      return n;
    };
    const Cell* best = nullptr;
    size_t best_gain = 0;
    for (int i = 0; i < 64; ++i) {
      const Cell& cand = valid[rng.NextBounded(valid.size())];
      const size_t g = gain(cand);
      if (g > best_gain) best = &cand, best_gain = g;
    }
    for (size_t i = 0; best == nullptr; ++i) {  // the random draws missed
      if (gain(valid[i]) > 0) best = &valid[i];
    }
    cells.push_back(*best);
    pairs_of(*best, [&](size_t p) { left -= uncovered[p]; uncovered[p] = 0; });
  }
  return cells;
}

/// Combinations no pair pins: PaX2's split walk over the hand-built dead
/// subtree and one fragment per site (its capture bypass), and the real
/// paxml_site processes, which cross site_threads 4 with split 1. Entries
/// are value indices, in axis order.
std::vector<Cell> FixedCells() {
  constexpr uint8_t k4 = 1;       // site_threads 4
  constexpr uint8_t kAt1 = 2;     // split_threshold_pct 1
  constexpr uint8_t k2 = 1;       // peer_concurrent_rounds 2
  constexpr uint8_t kOn = 1;      // annotations on
  constexpr uint8_t kStream = 1;  // an Engine stream
  return {
      {kDeadSubtree, kPaX2, kSyncBackend, k4, kAt1, 0, 0, 0, kOn, 0, 0},
      {kRandomOneHot, kPaX2, kPooled, k4, kAt1, 0, 0, 0, kOn, 0, 0},
      {kFt2, kPaX2, kProcesses, k4, kAt1, 0, 0, 0, kOn, 0, 0},
      {kClientele, kPaX3, kProcesses, k4, kAt1, k2, 0, 0, 0, 0, kStream},
      {kClientele, kNaive, kProcesses, 0, 0, 0, 0, 0, 0, 0, 0},
      {kGraphWide, kReach, kProcesses, k4, kAt1, 0, 0, 0, 0, 0, 0},
  };
}

// ---- Worlds -----------------------------------------------------------------

struct World {
  std::shared_ptr<FragmentedDocument> doc;          // the XML family
  std::shared_ptr<const GraphFragmentStore> store;  // the graph family
  std::unique_ptr<Cluster> cluster;
  std::vector<std::string> queries;
  std::vector<std::vector<GlobalNodeId>> oracle;  // per query
  std::unique_ptr<testing::Deployment> processes;  // spawned on first use

  const testing::Deployment& Processes() {
    if (processes == nullptr) {
      if (doc != nullptr) {
        processes = std::make_unique<testing::Deployment>(*doc, *cluster);
      } else {
        const std::string dir = testing::MakeTempDir();
        PAXML_CHECK(SaveGraph(*store, dir).ok());
        processes = std::make_unique<testing::Deployment>(dir, *cluster);
      }
    }
    return *processes;
  }
};

std::unique_ptr<Cluster> Spread(std::shared_ptr<const WorkloadData> data,
                                size_t sites) {
  auto cluster = std::make_unique<Cluster>(std::move(data), sites);
  cluster->PlaceRootAndSpread();
  return cluster;
}

/// An XML world; the oracle is the centralized evaluator over the
/// reassembled document.
World XmlWorld(std::shared_ptr<FragmentedDocument> doc,
               std::unique_ptr<Cluster> cluster,
               std::vector<std::string> queries) {
  World w;
  w.doc = std::move(doc);
  w.cluster = std::move(cluster);
  w.queries = std::move(queries);
  std::vector<GlobalNodeId> origin;
  const Tree whole = w.doc->Assemble(&origin);
  for (const std::string& query : w.queries) {
    auto r = EvaluateCentralized(whole, query);
    PAXML_CHECK(r.ok());
    std::vector<GlobalNodeId>& answers = w.oracle.emplace_back();
    for (NodeId v : r->answers) {
      answers.push_back(origin[static_cast<size_t>(v)]);
    }
    std::sort(answers.begin(), answers.end());
  }
  return w;
}

std::shared_ptr<FragmentedDocument> Shared(Result<FragmentedDocument> doc) {
  PAXML_CHECK(doc.ok());
  return std::make_shared<FragmentedDocument>(std::move(doc).ValueOrDie());
}

World RandomTreeWorld(uint64_t seed, size_t nodes, size_t fragments,
                      size_t sites) {
  Rng rng(seed);
  const Tree tree = testing::RandomTree(&rng, nodes);
  auto doc = Shared(FragmentRandomly(tree, fragments, &rng));
  std::vector<std::string> queries = testing::PropertyQueryBattery();
  for (std::string& q : testing::QualifierKernelQueries()) {
    queries.push_back(std::move(q));
  }
  return XmlWorld(doc, Spread(doc, sites), std::move(queries));
}

/// The paper's Fig. 1 document on four machines; site 1 holds two
/// fragments, so its rounds have lanes.
World ClienteleWorld() {
  const Tree t = testing::BuildClienteleTree();
  auto doc = Shared(FragmentByCuts(t, testing::ClienteleCuts(t)));
  auto cluster = std::make_unique<Cluster>(doc, 4);
  const SiteId placement[] = {0, 1, 2, 3, 1};
  for (size_t f = 0; f < doc->size(); ++f) {
    PAXML_CHECK(cluster->Place(static_cast<FragmentId>(f), placement[f]).ok());
  }
  return XmlWorld(doc, std::move(cluster),
                  {"clientele/client[country/text() = \"US\"]/"
                   "broker[market/name/text() = \"NASDAQ\"]/name",
                   "clientele/client/broker/name", "//stock/code",
                   "//market[name/text() = \"NASDAQ\"]//buy",
                   "clientele/client[not(country/text() = \"US\")]/name",
                   ".[//market/name/text() = \"TSE\"]"});
}

/// A fragment whose answers sit under one root child while a sibling's
/// subtree is dead for the query yet holds a virtual node: the split walk
/// must still ship that virtual top, all false and in order. Random
/// fragmentations rarely give this shape, so it is built by hand.
World DeadSubtreeWorld() {
  Tree tree;
  const NodeId root = tree.AddElement(kNullNode, "root");
  const NodeId x = tree.AddElement(root, "x");
  tree.AddElement(root, "y");
  for (int i = 0; i < 3; ++i) tree.AddElement(tree.AddElement(x, "a"), "b");
  const NodeId d = tree.AddElement(tree.AddElement(x, "c"), "d");
  const NodeId e = tree.AddElement(d, "e");
  tree.AddElement(tree.AddElement(e, "a"), "b");
  tree.AddElement(x, "a");
  auto doc = Shared(FragmentByCuts(tree, {x, e}));
  return XmlWorld(doc, Spread(doc, 3), {"root/x/a/b", "root/x/a"});
}

/// A random digraph over a random vertex partitioning; the oracle is BFS
/// on the whole graph.
World GraphWorld(int32_t vertices, double degree, size_t fragments,
                 uint64_t seed, int pairs) {
  const Digraph graph = RandomDigraph(vertices, degree, seed);
  auto store = PartitionDigraph(graph, fragments, seed + 1);
  PAXML_CHECK(store.ok());
  World w;
  w.store = std::move(store).ValueOrDie();
  w.cluster = Spread(w.store, 4);
  Rng rng(seed * 977 + 11);
  for (int i = 0; i < pairs; ++i) {
    ReachQuery q;
    q.source = static_cast<NodeId>(rng.NextBounded(vertices));
    q.target = i == 0 ? q.source  // a vertex reaches itself
                      : static_cast<NodeId>(rng.NextBounded(vertices));
    w.queries.push_back(FormatReachQuery(q));
    w.oracle.emplace_back();
    if (ReachesBFS(graph, q.source, q.target)) {
      w.oracle.back().push_back({w.store->fragment_of(q.target), q.target});
    }
  }
  return w;
}

std::vector<World> BuildWorlds() {
  std::vector<World> worlds;
  // Many fragments on two sites: more lanes per site than threads, so the
  // lanes share tasks and a task's sends are not in mail order.
  worlds.push_back(RandomTreeWorld(7, 400, 14, 2));
  // One fragment per site: only the split can fan a round out.
  worlds.push_back(RandomTreeWorld(4242, 400, 3, 3));
  worlds.push_back(ClienteleWorld());
  bench::Workload ft2 = bench::MakeFT2Paper(0.05);
  worlds.push_back(XmlWorld(ft2.doc, std::move(ft2.cluster),
                            testing::Ft2QueryMix()));
  worlds.push_back(DeadSubtreeWorld());
  worlds.push_back(GraphWorld(120, 1.6, 5, 3, 10));
  // Fragments with more than 64 in-boundary entries: several words of the
  // site kernel's batch traversal.
  worlds.push_back(GraphWorld(2000, 1.8, 7, 3, 8));
  size_t widest = 0;
  for (size_t f = 0; f < worlds[kGraphWide].store->fragment_count(); ++f) {
    widest = std::max(widest, worlds[kGraphWide]
                                  .store->fragment(static_cast<FragmentId>(f))
                                  .in_boundary.size());
  }
  PAXML_CHECK(widest > kReachBatchEntries);
  return worlds;
}

// ---- Socket peers in this process -------------------------------------------

/// In-process SiteServers for every non-query site of `cluster`, serving on
/// loopback threads until destroyed. Every client transport must be gone
/// first: a server sits in a blocking read on a live connection until its
/// client hangs up.
class InProcessPeers {
 public:
  InProcessPeers(const Cluster* cluster, std::shared_ptr<FragmentMemo> memo) {
    for (size_t s = 0; s < cluster->site_count(); ++s) {
      const SiteId site = static_cast<SiteId>(s);
      if (site == cluster->query_site()) continue;
      auto server = std::make_unique<SiteServer>(
          cluster, site, MakeSiteProgramFactory(cluster),
          /*max_site_threads=*/0, memo);
      auto port = server->Listen("127.0.0.1", 0);
      PAXML_CHECK(port.ok());
      endpoints_[site] = "127.0.0.1:" + std::to_string(*port);
      threads_.emplace_back([srv = server.get()] {
        const Status st = srv->Serve();
        (void)st;  // shutdown races surface as benign accept errors
      });
      servers_.push_back(std::move(server));
    }
  }

  ~InProcessPeers() {
    for (auto& server : servers_) server->Shutdown();
    for (auto& t : threads_) t.join();
  }

  InProcessPeers(const InProcessPeers&) = delete;
  InProcessPeers& operator=(const InProcessPeers&) = delete;

  const std::map<SiteId, std::string>& endpoints() const { return endpoints_; }

 private:
  std::vector<std::unique_ptr<SiteServer>> servers_;
  std::vector<std::thread> threads_;
  std::map<SiteId, std::string> endpoints_;
};

// ---- Send order -------------------------------------------------------------

/// Per-edge FNV-1a digests of every part sent (kind, fragment and bytes,
/// streamed chunks included), in send order. RunStats prices a frame's
/// envelopes in any order, so it cannot see the order capture-and-replay
/// promises (DESIGN.md §10); these digests can.
using SendDigests = std::map<std::pair<SiteId, SiteId>, uint64_t>;

/// An in-process backend that digests what it is asked to send. Each edge's
/// sends come from one site's delivery, so its digest does not depend on
/// how the backend schedules sites.
template <typename Base>
class DigestingTransport : public Base {
 public:
  using Base::Base;

  void Send(Envelope env) override {
    MixParts(env);
    Base::Send(std::move(env));
  }

  void StreamBegin(Envelope head) override {
    MixParts(head);
    Base::StreamBegin(std::move(head));
  }

  void StreamAppend(RunId run, SiteId from, SiteId to, std::string_view bytes,
                    uint64_t logical_bytes, uint64_t phantom_bytes) override {
    Mix(from, to, bytes);
    Base::StreamAppend(run, from, to, bytes, logical_bytes, phantom_bytes);
  }

  /// The digests of everything sent since the last call.
  SendDigests Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(digests_, {});
  }

 private:
  void MixParts(const Envelope& env) {
    for (const WirePart& part : env.parts) {
      const std::string head = std::to_string(static_cast<int>(part.kind)) +
                               ":" + std::to_string(part.fragment) + ":";
      Mix(env.from, env.to, head);
      Mix(env.from, env.to, part.bytes);
    }
  }

  void Mix(SiteId from, SiteId to, std::string_view bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t& hash =
        digests_.try_emplace({from, to}, 14695981039346656037ULL).first->second;
    for (unsigned char c : bytes) {
      hash ^= c;
      hash *= 1099511628211ULL;
    }
  }

  std::mutex mu_;
  SendDigests digests_;
};

/// Evaluates `query` on `transport` and takes the run's send digests.
template <typename T>
std::pair<Result<DistributedResult>, SendDigests> EvaluateDigested(
    const Cluster& cluster, const std::string& query,
    const EngineOptions& options, T* transport) {
  Result<DistributedResult> r =
      EvaluateWorkload(cluster, query, options, transport);
  return {std::move(r), transport->Take()};
}

// ---- Running a cell ---------------------------------------------------------

/// One run of a cell; `sends` is set where the matrix can digest them
/// (direct submission on an in-process backend).
struct Outcome {
  size_t query;
  Result<DistributedResult> result;
  std::optional<SendDigests> sends;
};

/// A cell's first failing run: empty `what` when every run passed.
struct Failure {
  std::string what;
  size_t query = 0;

  bool ok() const { return what.empty(); }
};

/// What the knobs did, summed over the matrix: each sum must be nonzero
/// for the equalities to mean anything.
struct Tally {
  uint64_t threaded_pool_tasks = 0;  // cells with site_threads 4
  uint64_t serial_pool_tasks = 0;    // cells with site_threads 1
  uint64_t split_pool_tasks = 0;     // in-process split cells ...
  uint64_t lane_pool_tasks = 0;      // ... and the same runs at split 0
  uint64_t memo_second_run_hits = 0;
  size_t runs = 0;

  Tally& operator+=(const Tally& o) {
    threaded_pool_tasks += o.threaded_pool_tasks;
    serial_pool_tasks += o.serial_pool_tasks;
    split_pool_tasks += o.split_pool_tasks;
    lane_pool_tasks += o.lane_pool_tasks;
    memo_second_run_hits += o.memo_second_run_hits;
    runs += o.runs;
    return *this;
  }
};

EngineOptions Options(const Cell& c) {
  EngineOptions options;
  const DistributedAlgorithm algorithms[] = {
      DistributedAlgorithm::kPaX2, DistributedAlgorithm::kPaX3,
      DistributedAlgorithm::kNaiveCentralized,
      DistributedAlgorithm::kPaX2};  // Reach: the data picks the family
  options.algorithm = algorithms[c[kAlgorithm]];
  options.pax.use_annotations = c[kAnnotations] == 1;
  options.pax.ship_mode = c[kShipMode] == 1 ? AnswerShipMode::kReferences
                                            : AnswerShipMode::kSubtrees;
  return options;
}

TransportKind Kind(const Cell& c) {
  return c[kBackend] == kSyncBackend ? TransportKind::kSync
         : c[kBackend] == kPooled    ? TransportKind::kPooled
                                     : TransportKind::kSocket;
}

class Matrix {
 public:
  explicit Matrix(std::vector<World>* worlds) : worlds_(worlds) {}

  /// Runs `queries` (indices into the world's list) in `cell`. `tally`
  /// may be null (shrinking reruns do not count).
  Failure Run(const Cell& cell, const std::vector<size_t>& queries,
              Tally* tally) {
    World& world = (*worlds_)[cell[kWorld]];
    const EngineOptions options = Options(cell);
    const bool memo = cell[kMemo] == 1;
    TransportOptions topts;
    topts.site_threads = kThreadValues[cell[kThreads]];
    topts.split_threshold_pct = kSplitValues[cell[kSplit]];
    topts.peer_concurrent_rounds = kRoundValues[cell[kRounds]];
    topts.batching = cell[kBatching] == 0;
    if (memo) topts.fragment_memo = std::make_shared<FragmentMemo>();
    // In-process split cells also count the pool tasks of their lanes
    // alone, at split 0, below.
    const bool split_counted = topts.site_threads > 1 &&
                               topts.split_threshold_pct > 0 && !memo &&
                               cell[kSubmission] == 0 &&
                               cell[kBackend] <= kPooled;
    // Declared before every client transport, so it outlives them.
    std::optional<InProcessPeers> peers;
    if (cell[kBackend] == kSocket) {
      peers.emplace(world.cluster.get(),
                    memo ? std::make_shared<FragmentMemo>() : nullptr);
      topts.remote_endpoints = peers->endpoints();
    } else if (cell[kBackend] == kProcesses) {
      topts.remote_endpoints = world.Processes().endpoints();
    }

    for (int pass = 0; pass < (memo ? 2 : 1); ++pass) {
      std::vector<Outcome> runs;
      if (cell[kSubmission] == 1) {
        // A stream at depth 4 with every query twice, priorities mixed.
        Engine engine(*world.cluster, {.depth = 4,
                                       .transport = Kind(cell),
                                       .transport_options = topts,
                                       .defaults = options});
        std::vector<std::pair<size_t, QueryHandle>> handles;
        for (int rep = 0; rep < 2; ++rep) {
          for (size_t q : queries) {
            SubmitOptions submit;
            submit.priority = handles.size() % 3 == 0 ? 10 : 0;
            handles.emplace_back(q, engine.Submit(world.queries[q], submit));
          }
        }
        for (auto& [q, handle] : handles) {
          QueryReport report = handle.TakeReport();
          if (report.result.ok() &&
              report.rounds != report.result->stats.rounds) {
            return {"the report's rounds differ from its RunStats", q};
          }
          runs.push_back({q, std::move(report.result), std::nullopt});
        }
        if (engine.transport().open_run_count() != 0) {
          return {"the engine left runs open", queries[0]};
        }
      } else if (cell[kBackend] == kSyncBackend) {
        DigestingTransport<SyncTransport> transport(topts);
        for (size_t q : queries) {
          auto [r, sends] = EvaluateDigested(*world.cluster, world.queries[q],
                                             options, &transport);
          runs.push_back({q, std::move(r), std::move(sends)});
        }
      } else if (cell[kBackend] == kPooled) {
        DigestingTransport<PooledTransport> transport(
            world.cluster->worker_pool(), topts);
        for (size_t q : queries) {
          auto [r, sends] = EvaluateDigested(*world.cluster, world.queries[q],
                                             options, &transport);
          runs.push_back({q, std::move(r), std::move(sends)});
        }
      } else {
        std::unique_ptr<Transport> transport =
            MakeTransportFor(*world.cluster, Kind(cell), topts);
        for (size_t q : queries) {
          runs.push_back({q,
                          EvaluateWorkload(*world.cluster, world.queries[q],
                                           options, transport.get()),
                          std::nullopt});
        }
      }
      for (const Outcome& run : runs) {
        Failure failure = Check(cell, run);
        if (!failure.ok()) return failure;
        const Result<DistributedResult>& r = run.result;
        if (tally == nullptr) continue;
        ++tally->runs;
        (topts.site_threads > 1 ? tally->threaded_pool_tasks
                                : tally->serial_pool_tasks) +=
            r->stats.pool_tasks;
        if (pass == 1) {
          tally->memo_second_run_hits += r->stats.memo_fragment_hits;
        }
        if (split_counted) tally->split_pool_tasks += r->stats.pool_tasks;
      }
    }
    if (tally != nullptr && split_counted) {
      TransportOptions lanes = topts;
      lanes.split_threshold_pct = 0;
      for (size_t q : queries) {
        auto r = testing::EvaluateOn(*world.cluster, world.queries[q],
                                     options, Kind(cell), lanes);
        if (!r.ok()) return {"run failed: " + r.status().ToString(), q};
        tally->lane_pool_tasks += r->stats.pool_tasks;
      }
    }
    return {};
  }

  /// The failing query's text and what went wrong.
  std::string Explain(const Cell& cell, const Failure& failure) const {
    return "query \"" + (*worlds_)[cell[kWorld]].queries[failure.query] +
           "\": " + failure.what;
  }

  /// Run, up to `attempts` times while it passes: a failure that depends
  /// on a thread schedule may need more than one try to show.
  Failure RunRepeated(const Cell& cell, const std::vector<size_t>& queries,
                      int attempts = 3) {
    Failure failure;
    for (int i = 0; i < attempts && failure.ok(); ++i) {
      failure = Run(cell, queries, nullptr);
    }
    return failure;
  }

 private:
  Failure Check(const Cell& cell, const Outcome& run) {
    const size_t q = run.query;
    const Result<DistributedResult>& r = run.result;
    if (!r.ok()) return {"run failed: " + r.status().ToString(), q};
    const World& world = (*worlds_)[cell[kWorld]];
    if (r->answers != world.oracle[q]) {
      return {std::to_string(r->answers.size()) + " answers, the oracle has " +
                  std::to_string(world.oracle[q].size()) + " (or others)",
              q};
    }
    const auto& [ref, ref_sends] = Reference(cell, q);
    if (!ref.ok()) {
      return {"reference run failed: " + ref.status().ToString(), q};
    }
    const bool framed = cell[kBatching] == 0;
    std::string mismatch = ContractMismatch(r->stats, ref->stats, framed);
    if (!mismatch.empty()) return {std::move(mismatch), q};
    if (!framed && (r->stats.total_messages != r->stats.total_envelopes ||
                    r->stats.total_messages < ref->stats.total_messages)) {
      return {"unbatched, messages != envelopes or fewer than batched", q};
    }
    uint64_t edge_bytes = 0;
    for (const auto& [edge, e] : r->stats.edges) {
      if (edge.first == edge.second) return {"a self-edge was accounted", q};
      edge_bytes += e.bytes;
    }
    if (edge_bytes != r->stats.total_bytes) {
      return {"per-edge bytes do not sum to total_bytes", q};
    }
    if (run.sends.has_value() && *run.sends != ref_sends) {
      return {"the parts sent on some edge differ from the reference's, in "
              "bytes or in order",
              q};
    }
    return {};
  }

  /// SyncTransport with default options, for the cell's world, algorithm,
  /// annotations, ship mode and `q`, with its send digests.
  const std::pair<Result<DistributedResult>, SendDigests>& Reference(
      const Cell& cell, size_t q) {
    const auto key = std::make_tuple(cell[kWorld], cell[kAlgorithm],
                                     cell[kAnnotations], cell[kShipMode], q);
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = references_.find(key);
      if (it != references_.end()) return it->second;
    }
    const World& world = (*worlds_)[cell[kWorld]];
    DigestingTransport<SyncTransport> sync;
    auto reference = EvaluateDigested(*world.cluster, world.queries[q],
                                      Options(cell), &sync);
    std::lock_guard<std::mutex> lock(mu_);
    // Another cell may have got there first: the runs are equal.
    return references_.emplace(key, std::move(reference)).first->second;
  }

  std::vector<World>* worlds_;
  std::mutex mu_;  // guards references_; its nodes never move
  std::map<std::tuple<uint8_t, uint8_t, uint8_t, uint8_t, size_t>,
           std::pair<Result<DistributedResult>, SendDigests>>
      references_;
};

/// Cuts a failing cell down: to its one failing query if that fails alone,
/// then each config axis to the value nearest the reference that still
/// fails. Returns the minimal failing config.
std::string Shrink(Matrix* matrix, Cell cell, const std::vector<size_t>& all,
                   Failure failure) {
  std::vector<size_t> queries = {failure.query};
  Failure alone = matrix->RunRepeated(cell, queries);
  if (alone.ok()) {
    queries = all;
  } else {
    failure = alone;
  }
  for (size_t axis = kBackend; axis < kAxisCount; ++axis) {
    for (uint8_t v = 0; v < cell[axis]; ++v) {
      Cell smaller = cell;
      smaller[axis] = v;
      if (smaller[kBackend] < kSocket) smaller[kRounds] = 0;
      if (!Valid(smaller, /*sampled=*/false)) continue;
      Failure still = matrix->RunRepeated(smaller, queries);
      if (!still.ok()) {
        cell = smaller;
        failure = still;
        break;
      }
    }
  }
  return "minimal failing cell: " + Describe(cell) + "\n  " +
         matrix->Explain(cell, failure);
}

TEST(EquivalenceMatrixTest, EveryCellReproducesTheSyncReference) {
  std::vector<World> worlds = BuildWorlds();
  Matrix matrix(&worlds);
  std::vector<Cell> cells = SampledCells();
  const size_t sampled = cells.size();
  for (const Cell& c : FixedCells()) {
    ASSERT_TRUE(Valid(c, /*sampled=*/false)) << Describe(c);
    cells.push_back(c);
  }
  std::printf("equivalence matrix: %zu cells (%zu sampled to cover every "
              "pair of axis values, %zu fixed)\n",
              cells.size(), sampled, cells.size() - sampled);
  auto all_queries = [&](const Cell& cell) {
    std::vector<size_t> all(worlds[cell[kWorld]].queries.size());
    std::iota(all.begin(), all.end(), size_t{0});
    return all;
  };

  // Cells are independent, so the sampled ones run on a few threads. The
  // fixed cells run after them, one at a time: they share real processes,
  // which serve one client at a time.
  std::vector<Failure> failures(cells.size());
  std::vector<Tally> tallies(cells.size());
  std::atomic<size_t> next{0};
  auto run_sampled = [&] {
    for (size_t i = next++; i < sampled; i = next++) {
      failures[i] = matrix.Run(cells[i], all_queries(cells[i]), &tallies[i]);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) threads.emplace_back(run_sampled);
  for (std::thread& t : threads) t.join();
  for (size_t i = sampled; i < cells.size(); ++i) {
    failures[i] = matrix.Run(cells[i], all_queries(cells[i]), &tallies[i]);
  }

  Tally tally;
  size_t shrunk = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    tally += tallies[i];
    if (failures[i].ok()) continue;
    // Shrinking reruns cells; a few minimal configs say enough.
    if (shrunk++ < 3) {
      ADD_FAILURE() << Shrink(&matrix, cells[i], all_queries(cells[i]),
                              failures[i]);
    } else {
      ADD_FAILURE() << "failing cell: " << Describe(cells[i]) << "\n  "
                    << matrix.Explain(cells[i], failures[i]);
    }
  }
  std::printf("equivalence matrix: %zu runs checked\n", tally.runs);

  // Non-vacuity: the lanes fanned out, only when asked to; the split added
  // pool work beyond the lanes; the memo served second runs.
  EXPECT_GT(tally.threaded_pool_tasks, 0u);
  EXPECT_EQ(tally.serial_pool_tasks, 0u);
  EXPECT_GT(tally.split_pool_tasks, tally.lane_pool_tasks);
  EXPECT_GT(tally.memo_second_run_hits, 0u);
}

}  // namespace
}  // namespace paxml
