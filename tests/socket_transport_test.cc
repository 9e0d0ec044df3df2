// End-to-end tests of the multi-process socket engine (DESIGN.md §9).
//
// Each test saves a fragmented document to disk, spawns one real
// `paxml_site` process per remote site on loopback (ephemeral ports, read
// back from the child's stdout; tests/site_process.h), and drives
// evaluations through EvaluateWorkload on a socket transport, or through
// an Engine whose transport_options.remote_endpoints name the peers. The
// acceptance bar is the in-process equality guarantee made end-to-end: a
// multi-process run reproduces SyncTransport's *exact* RunStats — answers,
// rounds, visits, byte totals, per-edge byte/message/envelope splits — for
// PaX2, PaX3 and the naive baseline, including on the paper's four-machine
// FT2 placement.
//
// Failure semantics (invariant 5) are pinned too: killing a site process
// mid-session surfaces a clean NetworkError on runs that touch it, with no
// hang, while runs confined to the surviving sites are undisturbed; and a
// spawned peer dies with the process that spawned it.

#include <gtest/gtest.h>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/workload.h"
#include "fragment/fragmenter.h"
#include "fragment/storage.h"
#include "harness.h"
#include "runtime/socket_server.h"
#include "runtime/socket_transport.h"
#include "serving/fragment_memo.h"
#include "site_process.h"
#include "test_util.h"

namespace paxml {
namespace {

using testing::Deployment;
using testing::EvaluateOn;

// ---- Exact-equality helpers -------------------------------------------------

std::vector<int> Visits(const RunStats& s) {
  std::vector<int> v;
  for (const SiteStats& p : s.per_site) v.push_back(p.visits);
  return v;
}

/// Every count the paper's guarantees are stated in, the full per-site and
/// per-edge splits, and the wire bytes (each frame is priced by its one
/// kFrame encoding, whichever backend sealed it). The delta-codec fields
/// are envelope-level and deterministic, so they belong here too. Timing
/// fields are wall-clock and excluded.
void ExpectStatsEqual(const RunStats& socket, const RunStats& sync,
                      const std::string& label) {
  EXPECT_EQ(socket.rounds, sync.rounds) << label;
  EXPECT_EQ(Visits(socket), Visits(sync)) << label;
  EXPECT_EQ(socket.total_messages, sync.total_messages) << label;
  EXPECT_EQ(socket.total_envelopes, sync.total_envelopes) << label;
  EXPECT_EQ(socket.total_bytes, sync.total_bytes) << label;
  EXPECT_EQ(socket.answer_bytes, sync.answer_bytes) << label;
  EXPECT_EQ(socket.data_bytes_shipped, sync.data_bytes_shipped) << label;
  EXPECT_EQ(socket.delta_logical_bytes, sync.delta_logical_bytes) << label;
  EXPECT_EQ(socket.delta_wire_bytes, sync.delta_wire_bytes) << label;
  EXPECT_EQ(socket.wire_bytes, sync.wire_bytes) << label;
  EXPECT_EQ(socket.wire_raw_bytes, sync.wire_raw_bytes) << label;
  EXPECT_EQ(socket.edges, sync.edges) << label;
  ASSERT_EQ(socket.per_site.size(), sync.per_site.size()) << label;
  for (size_t s = 0; s < sync.per_site.size(); ++s) {
    EXPECT_EQ(socket.per_site[s].bytes_sent, sync.per_site[s].bytes_sent)
        << label << " site " << s;
    EXPECT_EQ(socket.per_site[s].bytes_received,
              sync.per_site[s].bytes_received)
        << label << " site " << s;
    EXPECT_EQ(socket.per_site[s].messages_sent,
              sync.per_site[s].messages_sent)
        << label << " site " << s;
    EXPECT_EQ(socket.per_site[s].messages_received,
              sync.per_site[s].messages_received)
        << label << " site " << s;
  }
}

/// CI smoke hook: PAXML_SITE_THREADS=N re-runs every socket test in this
/// file with intra-site parallel delivery at the peers — the stats
/// assertions below then double as determinism checks (DESIGN.md §10).
size_t EnvSiteThreads() {
  if (const char* env = std::getenv("PAXML_SITE_THREADS")) {
    const long v = std::atol(env);
    if (v > 1) return static_cast<size_t>(v);
  }
  return 1;
}

/// CI smoke hook: PAXML_SPLIT_PCT=N re-runs every socket test with
/// intra-fragment splitting offered at that threshold (DESIGN.md §14) —
/// combined with PAXML_SITE_THREADS the whole file pins split determinism
/// over real processes.
uint64_t EnvSplitPct() {
  if (const char* env = std::getenv("PAXML_SPLIT_PCT")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<uint64_t>(v);
  }
  return 0;
}

EngineOptions Options(DistributedAlgorithm algo, bool annotations) {
  EngineOptions options;
  options.algorithm = algo;
  options.pax.use_annotations = annotations;
  return options;
}

/// The client side of a deployment, with the CI smoke hooks applied.
TransportOptions SocketOptions(const std::map<SiteId, std::string>& endpoints) {
  TransportOptions options;
  options.remote_endpoints = endpoints;
  options.site_threads = EnvSiteThreads();
  options.split_threshold_pct = EnvSplitPct();
  return options;
}

/// `query` on the in-process reference backend.
Result<DistributedResult> RunSync(const Cluster& cluster,
                                  const std::string& query,
                                  DistributedAlgorithm algo, bool annotations,
                                  TransportOptions options = {}) {
  return EvaluateOn(cluster, query, Options(algo, annotations),
                    TransportKind::kSync, std::move(options));
}

/// `query` over the peers `options.remote_endpoints` names.
Result<DistributedResult> RunSocket(const Cluster& cluster,
                                    const std::string& query,
                                    DistributedAlgorithm algo,
                                    bool annotations,
                                    TransportOptions options) {
  return EvaluateOn(cluster, query, Options(algo, annotations),
                    TransportKind::kSocket, std::move(options));
}

// ---- Clientele: every algorithm, with and without annotations ---------------

struct ClienteleWorld {
  std::shared_ptr<FragmentedDocument> doc;
  std::unique_ptr<Cluster> cluster;
};

/// The paper's Fig. 1 document on four machines: S_Q holds the root
/// fragment, Anna's broker and Lisa's client share site 1, the two market
/// fragments sit alone on sites 2 and 3.
ClienteleWorld MakeClienteleWorld() {
  ClienteleWorld w;
  Tree t = testing::BuildClienteleTree();
  auto doc = FragmentByCuts(t, testing::ClienteleCuts(t));
  PAXML_CHECK(doc.ok());
  w.doc = std::make_shared<FragmentedDocument>(std::move(doc).ValueOrDie());
  ClusterOptions copts;
  copts.parallel_execution = false;
  w.cluster = std::make_unique<Cluster>(w.doc, 4, copts);
  PAXML_CHECK(w.cluster->Place(0, 0).ok());
  PAXML_CHECK(w.cluster->Place(1, 1).ok());
  PAXML_CHECK(w.cluster->Place(2, 2).ok());
  PAXML_CHECK(w.cluster->Place(3, 3).ok());
  PAXML_CHECK(w.cluster->Place(4, 1).ok());
  return w;
}

TEST(SocketTransportTest, ClienteleReproducesSyncExactly) {
  ClienteleWorld w = MakeClienteleWorld();
  Deployment deployment(*w.doc, *w.cluster);

  const std::vector<std::string> queries = {
      "clientele/client[country/text() = \"US\"]/"
      "broker[market/name/text() = \"NASDAQ\"]/name",
      "clientele/client/broker/name",
      "//stock/code",
      "//market[name/text() = \"NASDAQ\"]//buy",
  };
  for (const std::string& query : queries) {
    for (auto algo : {DistributedAlgorithm::kPaX2, DistributedAlgorithm::kPaX3,
                      DistributedAlgorithm::kNaiveCentralized}) {
      for (bool annotations : {false, true}) {
        const std::string label = std::string(AlgorithmName(algo)) +
                                  (annotations ? "|xa|" : "|") + query;
        auto sync = RunSync(*w.cluster, query, algo, annotations);
        auto socket = RunSocket(*w.cluster, query, algo, annotations,
                                SocketOptions(deployment.endpoints()));
        ASSERT_TRUE(sync.ok()) << label << ": " << sync.status();
        ASSERT_TRUE(socket.ok()) << label << ": " << socket.status();
        EXPECT_EQ(socket->answers, sync->answers) << label;
        ExpectStatsEqual(socket->stats, sync->stats, label);
      }
    }
  }
}

// Boolean queries delegate to ParBoX; its one-visit protocol must cross
// the wire identically too.
TEST(SocketTransportTest, BooleanQueryViaParBoX) {
  ClienteleWorld w = MakeClienteleWorld();
  Deployment deployment(*w.doc, *w.cluster);

  const std::string query = ".[//market/name/text() = \"TSE\"]";
  auto sync = RunSync(*w.cluster, query, DistributedAlgorithm::kPaX2, false);
  auto socket = RunSocket(*w.cluster, query, DistributedAlgorithm::kPaX2,
                          false, SocketOptions(deployment.endpoints()));
  ASSERT_TRUE(sync.ok()) << sync.status();
  ASSERT_TRUE(socket.ok()) << socket.status();
  EXPECT_EQ(socket->answers, sync->answers);
  ExpectStatsEqual(socket->stats, sync->stats, "parbox");
}

// ---- The acceptance bar: FT2 on the paper's four machines -------------------

TEST(SocketTransportTest, FT2PaperPlacementReproducesSyncExactly) {
  // A scaled-down FT2 keeps the test fast; the placement and protocol are
  // the paper's (bench/harness.h).
  bench::Workload w = bench::MakeFT2Paper(0.05);
  Deployment deployment(*w.doc, *w.cluster);

  for (const auto& q : xmark::ExperimentQueries()) {
    for (auto algo : {DistributedAlgorithm::kPaX2, DistributedAlgorithm::kPaX3,
                      DistributedAlgorithm::kNaiveCentralized}) {
      const std::string label = std::string(AlgorithmName(algo)) + "|" + q.name;
      auto sync = RunSync(*w.cluster, q.text, algo, false);
      auto socket = RunSocket(*w.cluster, q.text, algo, false,
                              SocketOptions(deployment.endpoints()));
      ASSERT_TRUE(sync.ok()) << label << ": " << sync.status();
      ASSERT_TRUE(socket.ok()) << label << ": " << socket.status();
      EXPECT_EQ(socket->answers, sync->answers) << label;
      ExpectStatsEqual(socket->stats, sync->stats, label);
    }
  }
}

// The tentpole acceptance bar: the same four-machine deployment with
// intra-site parallel delivery (site_threads = 4, mirrored to the peers
// via the Hello record) reproduces the serial SyncTransport's *exact*
// RunStats — the capture-and-replay plane end-to-end over real processes.
TEST(SocketTransportTest, FT2ParallelSitesReproduceSyncExactly) {
  bench::Workload w = bench::MakeFT2Paper(0.05);
  Deployment deployment(*w.doc, *w.cluster);

  for (const auto& q : xmark::ExperimentQueries()) {
    for (auto algo : {DistributedAlgorithm::kPaX2, DistributedAlgorithm::kPaX3,
                      DistributedAlgorithm::kNaiveCentralized}) {
      const std::string label =
          std::string(AlgorithmName(algo)) + "|threads=4|" + q.name;
      auto sync = RunSync(*w.cluster, q.text, algo, false);
      TransportOptions parallel = SocketOptions(deployment.endpoints());
      parallel.site_threads = 4;
      auto socket = RunSocket(*w.cluster, q.text, algo, false, parallel);
      ASSERT_TRUE(sync.ok()) << label << ": " << sync.status();
      ASSERT_TRUE(socket.ok()) << label << ": " << socket.status();
      EXPECT_EQ(socket->answers, sync->answers) << label;
      ExpectStatsEqual(socket->stats, sync->stats, label);
    }
  }
}

// ---- Intra-fragment splitting over real processes (DESIGN.md §14) -----------

// The split threshold forced to 1% travels in the Hello, the peers fan
// splittable requests out below the fragment grain, and the RunStats still
// reproduce the serial SyncTransport's exactly. PaX2 with annotations on
// qualifier-free selections is the splittable shape; the RoundDone records
// carry the peers' pool counters back, proving the path fired.
TEST(SocketTransportTest, ForcedSplitReproducesSyncExactly) {
  ClienteleWorld w = MakeClienteleWorld();
  Deployment deployment(*w.doc, *w.cluster);

  uint64_t split_pool_tasks = 0;
  for (const std::string& query :
       {std::string("//stock/code"), std::string("clientele/client/broker"),
        std::string("//market//buy")}) {
    auto sync = RunSync(*w.cluster, query, DistributedAlgorithm::kPaX2, true);
    TransportOptions split = SocketOptions(deployment.endpoints());
    split.site_threads = 4;
    split.split_threshold_pct = 1;
    auto socket =
        RunSocket(*w.cluster, query, DistributedAlgorithm::kPaX2, true, split);
    ASSERT_TRUE(sync.ok()) << query << ": " << sync.status();
    ASSERT_TRUE(socket.ok()) << query << ": " << socket.status();
    EXPECT_EQ(socket->answers, sync->answers) << query;
    ExpectStatsEqual(socket->stats, sync->stats, query);
    EXPECT_EQ(sync->stats.pool_tasks, 0u) << query;
    split_pool_tasks += socket->stats.pool_tasks;
  }
  EXPECT_GT(split_pool_tasks, 0u);
}

// ---- Cross-run fan-out on one peer (DESIGN.md §14) --------------------------

// Two independent runs over ONE SocketTransport — one connection per peer —
// with peer_concurrent_rounds = 2: the peers deliver both runs' rounds
// concurrently on their round pools, and each run still reproduces its solo
// SyncTransport RunStats exactly (the per-run barrier never interleaves
// rounds of one run, so nothing observable may change).
TEST(SocketTransportTest, ConcurrentRunsOnOnePeerReproduceSoloStats) {
  ClienteleWorld w = MakeClienteleWorld();
  Deployment deployment(*w.doc, *w.cluster);

  const std::string query_a =
      "clientele/client[country/text() = \"US\"]/"
      "broker[market/name/text() = \"NASDAQ\"]/name";
  const std::string query_b = "//market[name/text() = \"NASDAQ\"]//buy";
  const EngineOptions options = Options(DistributedAlgorithm::kPaX2, false);
  auto solo_a = EvaluateOn(*w.cluster, query_a, options, TransportKind::kSync);
  auto solo_b = EvaluateOn(*w.cluster, query_b, options, TransportKind::kSync);
  ASSERT_TRUE(solo_a.ok()) << solo_a.status();
  ASSERT_TRUE(solo_b.ok()) << solo_b.status();

  TransportOptions topts;
  topts.remote_endpoints = deployment.endpoints();
  topts.site_threads = EnvSiteThreads();
  topts.split_threshold_pct = EnvSplitPct();
  topts.peer_concurrent_rounds = 2;
  SocketTransport socket(topts);

  // Several passes so the runs' rounds genuinely overlap on the shared
  // connections rather than racing past each other once.
  for (int pass = 0; pass < 3; ++pass) {
    Result<DistributedResult> got_a = Status::Internal("unset");
    Result<DistributedResult> got_b = Status::Internal("unset");
    std::thread ta([&] {
      got_a = EvaluateWorkload(*w.cluster, query_a, options, &socket);
    });
    std::thread tb([&] {
      got_b = EvaluateWorkload(*w.cluster, query_b, options, &socket);
    });
    ta.join();
    tb.join();
    const std::string label = "pass " + std::to_string(pass);
    ASSERT_TRUE(got_a.ok()) << label << ": " << got_a.status();
    ASSERT_TRUE(got_b.ok()) << label << ": " << got_b.status();
    EXPECT_EQ(got_a->answers, solo_a->answers) << label;
    EXPECT_EQ(got_b->answers, solo_b->answers) << label;
    ExpectStatsEqual(got_a->stats, solo_a->stats, label + "|run A");
    ExpectStatsEqual(got_b->stats, solo_b->stats, label + "|run B");
  }
}

// A client asking for cross-run fan-out against a server capped at one
// round (paxml_site --rounds 1 semantics) degrades to the serial loop —
// same answers, same stats, no protocol confusion.
TEST(SocketTransportTest, ConcurrentRunsDegradeCleanlyWhenServerCapsRounds) {
  ClienteleWorld w = MakeClienteleWorld();

  // In-process server so the cap is settable (the Deployment harness
  // spawns paxml_site with default flags).
  const SiteId served = 2;
  SiteServer server(w.cluster.get(), served,
                    MakeSiteProgramFactory(w.cluster.get()),
                    /*max_site_threads=*/0, /*memo=*/nullptr,
                    /*max_concurrent_rounds=*/1);
  auto port = server.Listen("127.0.0.1", 0);
  ASSERT_TRUE(port.ok()) << port.status();
  std::thread serving([&] {
    const Status st = server.Serve();
    (void)st;  // shutdown races surface as benign accept errors
  });

  // Remaining remote sites are served by real processes.
  Deployment deployment(*w.doc, *w.cluster);
  std::map<SiteId, std::string> endpoints = deployment.endpoints();
  endpoints[served] = "127.0.0.1:" + std::to_string(*port);

  const std::string query = "//stock/code";
  const EngineOptions options = Options(DistributedAlgorithm::kPaX2, false);
  auto solo = EvaluateOn(*w.cluster, query, options, TransportKind::kSync);
  ASSERT_TRUE(solo.ok()) << solo.status();

  Result<DistributedResult> got_a = Status::Internal("unset");
  Result<DistributedResult> got_b = Status::Internal("unset");
  {
    // Scoped: the transport must close its connections before Shutdown —
    // the serving thread sits in a blocking read on the live connection
    // until the client hangs up.
    TransportOptions topts;
    topts.remote_endpoints = endpoints;
    topts.peer_concurrent_rounds = 4;  // the capped server serializes anyway
    SocketTransport socket(topts);
    std::thread ta([&] {
      got_a = EvaluateWorkload(*w.cluster, query, options, &socket);
    });
    std::thread tb([&] {
      got_b = EvaluateWorkload(*w.cluster, query, options, &socket);
    });
    ta.join();
    tb.join();
  }
  server.Shutdown();
  serving.join();

  ASSERT_TRUE(got_a.ok()) << got_a.status();
  ASSERT_TRUE(got_b.ok()) << got_b.status();
  EXPECT_EQ(got_a->answers, solo->answers);
  EXPECT_EQ(got_b->answers, solo->answers);
  ExpectStatsEqual(got_a->stats, solo->stats, "capped|run A");
  ExpectStatsEqual(got_b->stats, solo->stats, "capped|run B");
}

// ---- One wire version ------------------------------------------------------

/// In-process SiteServers for every non-query site of `cluster`, serving on
/// loopback threads until Stop() — for tests that need a server knob the
/// paxml_site harness does not pass.
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

  /// Every client transport must be gone first: a server sits in a
  /// blocking read on a live connection until its client hangs up.
  ~InProcessPeers() {
    for (auto& server : servers_) server->Shutdown();
    for (auto& t : threads_) t.join();
  }

  const std::map<SiteId, std::string>& endpoints() const { return endpoints_; }

 private:
  std::vector<std::unique_ptr<SiteServer>> servers_;
  std::vector<std::thread> threads_;
  std::map<SiteId, std::string> endpoints_;
};

/// Reads one whole record from `fd`: nullopt at EOF.
std::optional<WireRecord> ReadRecord(int fd, RecordBuffer* buf) {
  char chunk[4096];
  while (true) {
    auto record = buf->Next();
    PAXML_CHECK(record.ok());
    if (record->has_value()) return std::move(*record);
    auto n = ReadSome(fd, chunk, sizeof(chunk));
    if (!n.ok() || *n == 0) return std::nullopt;
    buf->Append({chunk, *n});
  }
}

// A Hello one version off on either side is refused: the peer answers with
// a kError record naming the mismatch and closes the connection.
TEST(SocketTransportTest, PeerRejectsEveryOtherWireVersion) {
  ClienteleWorld w = MakeClienteleWorld();
  const SiteId served = 2;
  SiteServer server(w.cluster.get(), served,
                    MakeSiteProgramFactory(w.cluster.get()));
  auto port = server.Listen("127.0.0.1", 0);
  ASSERT_TRUE(port.ok()) << port.status();

  for (uint32_t version : {kWireProtocolVersion - 1, kWireProtocolVersion + 1}) {
    Status served_status;
    std::thread serving([&] { served_status = server.ServeOne(); });
    auto fd = DialEndpoint("127.0.0.1:" + std::to_string(*port));
    ASSERT_TRUE(fd.ok()) << fd.status();
    HelloRecord hello;
    hello.version = version;
    hello.site = served;
    std::string bytes;
    AppendControlRecord(RecordType::kHello, hello, &bytes);
    ASSERT_TRUE(WriteAll(*fd, bytes).ok());

    RecordBuffer buf;
    std::optional<WireRecord> reply = ReadRecord(*fd, &buf);
    ASSERT_TRUE(reply.has_value()) << "v" << version;
    ASSERT_EQ(reply->type, RecordType::kError) << "v" << version;
    ByteReader reader(reply->payload);
    auto error = ErrorRecord::Decode(&reader);
    ASSERT_TRUE(error.ok()) << error.status();
    EXPECT_EQ(error->run, kNullRun);
    EXPECT_NE(error->message.find("version mismatch"), std::string::npos)
        << error->message;
    // ... and then the connection closes.
    EXPECT_FALSE(ReadRecord(*fd, &buf).has_value()) << "v" << version;
    CloseFd(*fd);
    serving.join();
    EXPECT_FALSE(served_status.ok()) << "v" << version;
  }
}

// The client's half: a peer that refuses the Hello (as a peer of another
// version does) surfaces as a clean Status at the run's first round — no
// abort, no hang.
TEST(SocketTransportTest, RejectedHandshakeFailsTheFirstRoundCleanly) {
  ClienteleWorld w = MakeClienteleWorld();
  auto listen_fd = ListenOn("127.0.0.1", 0);
  ASSERT_TRUE(listen_fd.ok()) << listen_fd.status();
  auto port = BoundPort(*listen_fd);
  ASSERT_TRUE(port.ok()) << port.status();
  std::thread peer([fd = *listen_fd] {
    auto conn = AcceptOn(fd);
    PAXML_CHECK(conn.ok());
    RecordBuffer buf;
    std::optional<WireRecord> hello = ReadRecord(*conn, &buf);
    PAXML_CHECK(hello.has_value() && hello->type == RecordType::kHello);
    ErrorRecord error;
    error.message = "wire protocol version mismatch: hello speaks v" +
                    std::to_string(kWireProtocolVersion) + ", this build v" +
                    std::to_string(kWireProtocolVersion + 1);
    std::string bytes;
    AppendControlRecord(RecordType::kError, error, &bytes);
    PAXML_CHECK(WriteAll(*conn, bytes).ok());
    CloseFd(*conn);
  });

  TransportOptions topts;
  topts.remote_endpoints[2] = "127.0.0.1:" + std::to_string(*port);
  SocketTransport socket(topts);
  peer.join();
  CloseFd(*listen_fd);
  EXPECT_FALSE(socket.EnsureConnected().ok());
  auto got = EvaluateWorkload(*w.cluster, "//stock/code",
                              Options(DistributedAlgorithm::kPaX2, false),
                              &socket);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNetworkError) << got.status();
  EXPECT_NE(got.status().message().find("peer rejected handshake"),
            std::string::npos)
      << got.status();
  EXPECT_NE(got.status().message().find("version mismatch"), std::string::npos)
      << got.status();
}

// ---- Memo and lanes together on the peers -----------------------------------

// Peers serving with a fragment memo (paxml_site --memo) at site_threads=4:
// site 1 hosts two fragments, so its rounds fan out into lanes while the
// memo records and then replays each fragment's replies. The repeated
// query's hits come home through RoundDone, and both runs' contract fields
// equal the sync run's.
TEST(SocketTransportTest, MemoPeersWithLanesReproduceSyncExactly) {
  ClienteleWorld w = MakeClienteleWorld();
  ASSERT_GE(w.cluster->fragments_at(1).size(), 2u);
  InProcessPeers peers(w.cluster.get(), std::make_shared<FragmentMemo>());

  for (const std::string& query :
       {std::string("//stock/code"),
        std::string("clientele/client[country/text() = \"US\"]/broker/name")}) {
    auto sync = RunSync(*w.cluster, query, DistributedAlgorithm::kPaX2, false);
    ASSERT_TRUE(sync.ok()) << query << ": " << sync.status();
    TransportOptions options = SocketOptions(peers.endpoints());
    options.site_threads = 4;
    options.split_threshold_pct = 0;
    auto recording = RunSocket(*w.cluster, query, DistributedAlgorithm::kPaX2,
                               false, options);
    auto replaying = RunSocket(*w.cluster, query, DistributedAlgorithm::kPaX2,
                               false, options);
    ASSERT_TRUE(recording.ok()) << query << ": " << recording.status();
    ASSERT_TRUE(replaying.ok()) << query << ": " << replaying.status();
    EXPECT_EQ(recording->answers, sync->answers) << query;
    EXPECT_EQ(replaying->answers, sync->answers) << query;
    ExpectStatsEqual(recording->stats, sync->stats, query + "|recording");
    ExpectStatsEqual(replaying->stats, sync->stats, query + "|replaying");
    EXPECT_EQ(recording->stats.memo_fragment_hits, 0u) << query;
    EXPECT_GT(replaying->stats.memo_fragment_hits, 0u) << query;
    EXPECT_GT(recording->stats.pool_tasks, 0u) << query;
    EXPECT_GT(replaying->stats.pool_tasks, 0u) << query;
  }
}

// ---- The session API, unchanged over sockets --------------------------------

TEST(SocketTransportTest, EngineSubmitWorksUnchangedOverSockets) {
  ClienteleWorld w = MakeClienteleWorld();
  Deployment deployment(*w.doc, *w.cluster);

  EngineConfig config;
  config.depth = 3;
  config.transport_options.remote_endpoints = deployment.endpoints();
  config.transport_options.site_threads = EnvSiteThreads();
  Engine engine(*w.cluster, config);

  const std::vector<std::string> queries = {
      "//stock/code",
      "clientele/client/broker/name",
      "clientele/client[country/text() = \"US\"]/name",
  };
  std::vector<QueryHandle> handles;
  for (const std::string& q : queries) {
    SubmitOptions submit;
    submit.priority = 1;
    handles.push_back(engine.Submit(q, submit));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryReport& report = handles[i].Wait();
    ASSERT_TRUE(report.result.ok())
        << queries[i] << ": " << report.result.status();
    auto baseline =
        RunSync(*w.cluster, queries[i], DistributedAlgorithm::kPaX2, false);
    ASSERT_TRUE(baseline.ok());
    EXPECT_EQ(report.result->answers, baseline->answers) << queries[i];
    ExpectStatsEqual(report.stats, baseline->stats, queries[i]);
    EXPECT_GT(handles[i].Progress().rounds, 0) << queries[i];
  }
}

// ---- Failure semantics ------------------------------------------------------

TEST(SocketTransportTest, DialFailureIsACleanError) {
  ClienteleWorld w = MakeClienteleWorld();
  // Nobody listens here (ephemeral-range port on loopback).
  std::map<SiteId, std::string> endpoints = {{1, "127.0.0.1:1"},
                                             {2, "127.0.0.1:1"},
                                             {3, "127.0.0.1:1"}};
  auto r = RunSocket(*w.cluster, "//stock/code", DistributedAlgorithm::kPaX2,
                     false, SocketOptions(endpoints));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNetworkError);
}

TEST(SocketTransportTest, QuerySiteMustBeLocal) {
  ClienteleWorld w = MakeClienteleWorld();
  Deployment deployment(*w.doc, *w.cluster);
  std::map<SiteId, std::string> endpoints = deployment.endpoints();
  endpoints[0] = endpoints.begin()->second;  // claim S_Q is remote
  auto r = RunSocket(*w.cluster, "//stock/code", DistributedAlgorithm::kPaX2,
                     false, SocketOptions(endpoints));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// Killing a site process fails runs that touch it — promptly and cleanly —
// while runs confined to the surviving sites are undisturbed (invariant 5).
TEST(SocketTransportTest, KilledSiteFailsItsRunsAndSparesOthers) {
  ClienteleWorld w = MakeClienteleWorld();
  Deployment deployment(*w.doc, *w.cluster);

  // With annotations, this qualifier-free query prunes the market
  // fragments: F2 (site 2) and F3 (site 3) contain no broker/name path.
  const std::string narrow = "clientele/client/broker/name";
  // This one needs the stocks and touches every site.
  const std::string wide = "//stock/code";

  // Pin the premise: the narrow query's traffic never touches site 3.
  auto narrow_sync =
      RunSync(*w.cluster, narrow, DistributedAlgorithm::kPaX2, true);
  ASSERT_TRUE(narrow_sync.ok());
  EXPECT_EQ(narrow_sync->stats.per_site[3].visits, 0);
  for (const auto& [edge, e] : narrow_sync->stats.edges) {
    EXPECT_NE(edge.first, 3);
    EXPECT_NE(edge.second, 3);
  }

  EngineConfig config;
  config.depth = 2;
  config.transport_options.remote_endpoints = deployment.endpoints();
  config.transport_options.site_threads = EnvSiteThreads();
  Engine engine(*w.cluster, config);

  // Healthy first: both queries work over the deployment.
  {
    QueryHandle h = engine.Submit(wide);
    ASSERT_TRUE(h.Wait().result.ok()) << h.Wait().result.status();
  }

  deployment.KillSiteProcess(3);

  // The run touching the dead site surfaces a clean error, no hang.
  QueryHandle doomed = engine.Submit(wide);
  const QueryReport& doomed_report = doomed.Wait();
  ASSERT_FALSE(doomed_report.result.ok());
  EXPECT_EQ(doomed_report.result.status().code(), StatusCode::kNetworkError);

  // A concurrent-capable engine keeps serving runs on the healthy sites.
  SubmitOptions spared_options;
  spared_options.engine_options = Options(DistributedAlgorithm::kPaX2, true);
  QueryHandle spared = engine.Submit(narrow, spared_options);
  const QueryReport& spared_report = spared.Wait();
  ASSERT_TRUE(spared_report.result.ok()) << spared_report.result.status();
  auto baseline =
      RunSync(*w.cluster, narrow, DistributedAlgorithm::kPaX2, true);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(spared_report.result->answers, baseline->answers);
}

// A peer outlives no spawner: this process becomes a subreaper, an
// intermediate process spawns a site and exits without reaping it, and the
// orphaned site — reparented here — must end by SIGKILL within a bound.
TEST(SocketTransportTest, SpawnedPeerDiesWithItsSpawner) {
  ClienteleWorld w = MakeClienteleWorld();
  const std::string dir = testing::MakeTempDir();
  ASSERT_TRUE(SaveDocument(*w.doc, dir).ok());
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  int pid_pipe[2];
  ASSERT_EQ(::pipe(pid_pipe), 0);
  const pid_t spawner = ::fork();
  ASSERT_GE(spawner, 0);
  if (spawner == 0) {
    const pid_t site = testing::SpawnSite(dir, *w.cluster, 1).pid;
    const bool reported = ::write(pid_pipe[1], &site, sizeof(site)) > 0;
    ::_exit(reported ? 0 : 1);
  }
  ::close(pid_pipe[1]);
  pid_t site = -1;
  const ssize_t n = ::read(pid_pipe[0], &site, sizeof(site));
  ::close(pid_pipe[0]);
  ::waitpid(spawner, nullptr, 0);
  ASSERT_EQ(n, static_cast<ssize_t>(sizeof(site)));

  int status = 0;
  pid_t reaped = 0;
  for (int i = 0; i < 500 && reaped == 0; ++i) {  // 5 s
    reaped = ::waitpid(site, &status, WNOHANG);
    if (reaped == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (reaped == 0) {
    ::kill(site, SIGKILL);
    ::waitpid(site, nullptr, 0);
  }
  ::prctl(PR_SET_CHILD_SUBREAPER, 0);
  ASSERT_EQ(reaped, site) << "the orphaned site outlived its spawner";
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) << status;
}

// ---- paxml_site argument validation -----------------------------------------

// Numeric flags are strict and --compress is gone: each malformed command
// line exits 2 with the usage line before the server binds. Every case is
// one token away from the valid line, which does start listening.
TEST(PaxmlSiteCliTest, MalformedFlagsExitWithUsageBeforeListening) {
  ClienteleWorld w = MakeClienteleWorld();
  const std::string dir = testing::SaveToTempDir(*w.doc);
  const std::string sites = std::to_string(w.cluster->site_count());
  auto command = [&](const std::string& site, const std::string& site_count,
                     const std::string& port) {
    return std::vector<std::string>{
        dir,  "--site", site, "--sites", site_count, "--placement",
        testing::PlacementString(*w.cluster), "--port", port};
  };

  const testing::SiteExit valid =
      testing::RunSiteToExit(command("1", sites, "0"));
  EXPECT_EQ(valid.exit_code, -1) << "the valid line must listen: "
                                 << valid.output;

  std::vector<std::vector<std::string>> malformed = {
      command("x", sites, "0"),    // not a number
      command("1", sites, "7x"),   // trailing junk
      command("1", "-1", "0"),     // negative count
      command(sites, sites, "0"),  // site out of range
      command("1", sites, "65536"),
      command("1", sites, ""),
  };
  malformed.push_back(command("1", sites, "0"));
  malformed.back().push_back("--compress");  // the removed flag

  for (const std::vector<std::string>& args : malformed) {
    std::string label;
    for (size_t i = 1; i < args.size(); ++i) label += args[i] + " ";
    const testing::SiteExit got = testing::RunSiteToExit(args);
    EXPECT_EQ(got.exit_code, 2) << label << "\n" << got.output;
    EXPECT_EQ(got.output.find("PAXML_SITE LISTENING"), std::string::npos)
        << label;
    EXPECT_NE(got.output.find("usage: paxml_site"), std::string::npos)
        << label << "\n" << got.output;
  }
}

}  // namespace
}  // namespace paxml
