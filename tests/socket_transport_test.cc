// End-to-end tests of the multi-process socket engine (DESIGN.md §9).
//
// Most tests save a fragmented document to disk, spawn one real
// `paxml_site` process per remote site on loopback (ephemeral ports, read
// back from the child's stdout; tests/site_process.h), and drive
// evaluations through a socket transport or an Engine whose
// transport_options.remote_endpoints name the peers. That a socket run
// reproduces SyncTransport's exact RunStats, in-process peers and real
// processes alike, is the equivalence matrix's job
// (equivalence_matrix_test.cc); this file pins the protocol around it: the
// round cap, the wire version, round reports, the session API over
// sockets and the paxml_site command line.
//
// Failure semantics (invariant 5) are pinned too: killing a site process
// mid-session surfaces a clean NetworkError on runs that touch it, with no
// hang, while runs confined to the surviving sites are undisturbed; and a
// spawned peer dies with the process that spawned it.

#include <gtest/gtest.h>

#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
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
#include "runtime/socket_server.h"
#include "runtime/socket_transport.h"
#include "site_process.h"
#include "test_util.h"

namespace paxml {
namespace {

using testing::Deployment;
using testing::EvaluateOn;
using testing::ExpectContractEqual;

EngineOptions Options(DistributedAlgorithm algo, bool annotations) {
  EngineOptions options;
  options.algorithm = algo;
  options.pax.use_annotations = annotations;
  return options;
}

/// The client side of a deployment.
TransportOptions SocketOptions(const std::map<SiteId, std::string>& endpoints) {
  TransportOptions options;
  options.remote_endpoints = endpoints;
  return options;
}

/// `query` on the in-process reference backend.
Result<DistributedResult> RunSync(const Cluster& cluster,
                                  const std::string& query,
                                  DistributedAlgorithm algo, bool annotations) {
  return EvaluateOn(cluster, query, Options(algo, annotations),
                    TransportKind::kSync);
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

// ---- The clientele deployment -----------------------------------------------

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

// ---- Cross-run fan-out on one peer (DESIGN.md §14) --------------------------

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
  ExpectContractEqual(got_a->stats, solo->stats, "capped|run A");
  ExpectContractEqual(got_b->stats, solo->stats, "capped|run B");
}

// ---- One wire version ------------------------------------------------------

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

// ---- Round reports ----------------------------------------------------------

/// A hand-driven peer for `site`: acknowledges the Hello, answers each
/// kRoundStart with the records `on_round` returns, and ignores every other
/// record. With `hang_up` it closes the connection after its first round's
/// answer; otherwise it serves until the client hangs up.
class ScriptedPeer {
 public:
  using OnRound = std::function<std::string(const RoundStartRecord&)>;

  ScriptedPeer(SiteId site, OnRound on_round, bool hang_up) {
    auto fd = ListenOn("127.0.0.1", 0);
    PAXML_CHECK(fd.ok());
    listen_fd_ = *fd;
    auto port = BoundPort(listen_fd_);
    PAXML_CHECK(port.ok());
    endpoint_ = "127.0.0.1:" + std::to_string(*port);
    thread_ = std::thread([this, site, on_round = std::move(on_round),
                           hang_up] {
      auto conn = AcceptOn(listen_fd_);
      if (!conn.ok()) return;  // never dialed: the destructor shut it down
      RecordBuffer buf;
      while (std::optional<WireRecord> record = ReadRecord(*conn, &buf)) {
        std::string reply;
        bool round = false;
        if (record->type == RecordType::kHello) {
          HelloAckRecord ack;
          ack.site = site;
          AppendControlRecord(RecordType::kHelloAck, ack, &reply);
        } else if (record->type == RecordType::kRoundStart) {
          ByteReader reader(record->payload);
          auto start = RoundStartRecord::Decode(&reader);
          PAXML_CHECK(start.ok());
          reply = on_round(*start);
          round = true;
        }
        if (!WriteAll(*conn, reply).ok() || (round && hang_up)) break;
      }
      CloseFd(*conn);
    });
  }

  /// The client transport must be gone first (a peer that does not hang
  /// up serves until its client does).
  ~ScriptedPeer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    thread_.join();
    CloseFd(listen_fd_);
  }

  ScriptedPeer(const ScriptedPeer&) = delete;
  ScriptedPeer& operator=(const ScriptedPeer&) = delete;

  const std::string& endpoint() const { return endpoint_; }

 private:
  int listen_fd_ = -1;
  std::string endpoint_;
  std::thread thread_;
};

std::string RoundDoneBytes(const RoundStartRecord& start, Status status,
                           const DeliveryReport& report) {
  RoundDoneRecord done;
  done.run = start.run;
  done.site = start.site;
  done.status = std::move(status);
  done.report = report;
  std::string bytes;
  AppendControlRecord(RecordType::kRoundDone, done, &bytes);
  return bytes;
}

// One peer fails the round at once; another holds its kRoundDone until the
// round has ended, then sends it and hangs up. The report of the peer that
// answered reaches RunStats (memo and pool counters, and its cost as the
// site's duration); nothing of the late report does, although its run is
// still open when it arrives.
TEST(SocketTransportTest, LateRoundDoneReportNeverReachesRunStats) {
  ClienteleWorld w = MakeClienteleWorld();
  DeliveryReport answered;
  answered.seconds = 0.25;
  answered.memo = MemoSavings{2, 64, 0.5};
  answered.pool = PoolStats{5, 3, 1};
  DeliveryReport late;
  late.seconds = 9;
  late.memo = MemoSavings{1000, 1 << 20, 100};
  late.pool = PoolStats{1000, 64, 64};

  std::promise<void> round_over;
  std::shared_future<void> released = round_over.get_future().share();
  ScriptedPeer failing(
      2,
      [&](const RoundStartRecord& start) {
        return RoundDoneBytes(start, Status::Internal("scripted failure"),
                              answered);
      },
      /*hang_up=*/false);
  ScriptedPeer slow(
      3,
      [&](const RoundStartRecord& start) {
        released.wait();
        return RoundDoneBytes(start, Status::OK(), late);
      },
      /*hang_up=*/true);

  TransportOptions topts;
  topts.remote_endpoints[2] = failing.endpoint();
  topts.remote_endpoints[3] = slow.endpoint();
  {
    SocketTransport socket(topts);
    ASSERT_TRUE(socket.EnsureConnected().ok());
    RunStats stats;
    stats.per_site.resize(w.cluster->site_count());
    const RunId run = socket.OpenRun(w.cluster.get(), &stats);
    std::vector<double> durations;
    const Status status = socket.RunRound(
        run, {2, 3}, [](SiteId, std::vector<Envelope>) {}, &durations);
    round_over.set_value();
    EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
    ASSERT_EQ(durations.size(), 2u);
    EXPECT_EQ(durations[0], 0.25);
    EXPECT_EQ(durations[1], 0.0);

    // The late RoundDone precedes the hang-up on its connection, so once
    // the transport has seen the connection die it has handled the report.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (socket.EnsureConnected().ok() &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_FALSE(socket.EnsureConnected().ok());
    EXPECT_EQ(stats.memo_fragment_hits, 2u);
    EXPECT_EQ(stats.memo_saved_bytes, 64u);
    EXPECT_EQ(stats.memo_saved_seconds, 0.5);
    EXPECT_EQ(stats.pool_tasks, 5u);
    EXPECT_EQ(stats.pool_busy_peak, 3u);
    EXPECT_EQ(stats.pool_queue_peak, 1u);
    socket.CloseRun(run);
  }
}

// ---- The session API, unchanged over sockets --------------------------------

TEST(SocketTransportTest, EngineSubmitWorksUnchangedOverSockets) {
  ClienteleWorld w = MakeClienteleWorld();
  Deployment deployment(*w.doc, *w.cluster);

  EngineConfig config;
  config.depth = 3;
  config.transport_options.remote_endpoints = deployment.endpoints();
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
    ExpectContractEqual(report.stats, baseline->stats, queries[i]);
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
