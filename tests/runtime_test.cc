// Tests for the runtime layer: Transport accounting, run namespacing, the
// pooled backend's rounds and the coordinator. That every backend reproduces
// SyncTransport's answers and RunStats is the equivalence matrix's job
// (equivalence_matrix_test.cc).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>

#include "core/engine.h"
#include "fragment/fragmenter.h"
#include "runtime/coordinator.h"
#include "runtime/site_runtime.h"
#include "runtime/transport.h"
#include "runtime/worker_pool.h"
#include "test_util.h"

namespace paxml {
namespace {

std::shared_ptr<FragmentedDocument> MakeClienteleDoc() {
  Tree t = testing::BuildClienteleTree();
  auto doc = FragmentByCuts(t, testing::ClienteleCuts(t));
  PAXML_CHECK(doc.ok());
  return std::make_shared<FragmentedDocument>(std::move(doc).ValueOrDie());
}

/// Accepts (and drops) every part — for tests that only exercise the
/// coordinator/transport machinery.
struct NullHandlers : MessageHandlers {
  Status OnPart(SiteContext&, const Envelope&, const WirePart&) override {
    return Status::OK();
  }
};

Envelope PayloadEnvelope(RunId run, SiteId from, SiteId to, std::string bytes,
                         PayloadCategory category = PayloadCategory::kControl) {
  Envelope env;
  env.run = run;
  env.from = from;
  env.to = to;
  env.category = category;
  env.parts.push_back(
      {MessageKind::kAnswerUp, kNullFragment, std::move(bytes), true});
  return env;
}

// ---- Transport::Send: the accounting choke point ----------------------------
// These tests pin the *unbatched* plane (TransportOptions{batching=false}):
// one envelope = one accounted message at Send time, the seed semantics.
// The batched (default) plane's staging, sealing and codec are covered by
// tests/frame_test.cc.

TEST(TransportTest, AccountsBytesMessagesAndEdges) {
  auto doc = MakeClienteleDoc();
  Cluster c(doc, 3);
  SyncTransport transport(TransportOptions{.batching = false});
  RunStats stats;
  stats.per_site.resize(3);
  const RunId run = transport.OpenRun(&c, &stats);

  transport.Send(PayloadEnvelope(run, 0, 1, std::string(100, 'x')));
  transport.Send(PayloadEnvelope(run, 1, 0, std::string(50, 'x')));
  transport.Send(PayloadEnvelope(run, 2, 0, std::string(30, 'x'),
                                 PayloadCategory::kAnswer));
  Envelope data = PayloadEnvelope(run, 1, 0, "", PayloadCategory::kData);
  data.phantom_bytes = 1000;
  transport.Send(std::move(data));

  EXPECT_EQ(stats.total_messages, 4u);
  EXPECT_EQ(stats.total_envelopes, 4u);
  EXPECT_EQ(stats.total_bytes, 1180u);
  EXPECT_EQ(stats.answer_bytes, 30u);
  EXPECT_EQ(stats.data_bytes_shipped, 1000u);
  EXPECT_EQ(stats.per_site[0].bytes_sent, 100u);
  EXPECT_EQ(stats.per_site[0].bytes_received, 1080u);
  EXPECT_EQ(stats.per_site[1].messages_sent, 2u);
  EXPECT_EQ(stats.per_site[1].messages_received, 1u);

  ASSERT_EQ(stats.edges.size(), 3u);
  EXPECT_EQ((stats.edges.at({0, 1})), (EdgeStats{1, 1, 100}));
  EXPECT_EQ((stats.edges.at({1, 0})), (EdgeStats{2, 2, 1050}));
  EXPECT_EQ((stats.edges.at({2, 0})), (EdgeStats{1, 1, 30}));
}

TEST(TransportTest, LocalDeliveryIsFreeButStillDelivered) {
  auto doc = MakeClienteleDoc();
  Cluster c(doc, 2);
  SyncTransport transport;
  RunStats stats;
  stats.per_site.resize(2);
  const RunId run = transport.OpenRun(&c, &stats);

  transport.Send(PayloadEnvelope(run, 1, 1, std::string(64, 'x')));
  EXPECT_EQ(stats.total_messages, 0u);
  EXPECT_EQ(stats.total_bytes, 0u);
  EXPECT_TRUE(stats.edges.empty());
  EXPECT_TRUE(transport.HasMail(run, 1));
  EXPECT_EQ(transport.Drain(run, 1).size(), 1u);
}

TEST(TransportTest, ControlPlaneRequestsAreFree) {
  auto doc = MakeClienteleDoc();
  Cluster c(doc, 2);
  SyncTransport transport(TransportOptions{.batching = false});
  RunStats stats;
  stats.per_site.resize(2);
  const RunId run = transport.OpenRun(&c, &stats);

  Envelope req = MakeRequestEnvelope(MessageKind::kSelRequest, 1, 2);
  req.run = run;
  req.from = 0;
  transport.Send(std::move(req));
  EXPECT_EQ(stats.total_messages, 0u);
  EXPECT_EQ(stats.total_bytes, 0u);
  ASSERT_TRUE(transport.HasMail(run, 1));

  // The unaccounted AnswerUp id list rides free next to phantom XML bytes.
  Envelope ans;
  ans.run = run;
  ans.from = 1;
  ans.to = 0;
  ans.category = PayloadCategory::kAnswer;
  ans.phantom_bytes = 77;
  ans.parts.push_back(
      {MessageKind::kAnswerUp, kNullFragment, std::string(9, 'x'), false});
  EXPECT_EQ(ans.WireBytes(), 77u);
  transport.Send(std::move(ans));
  EXPECT_EQ(stats.total_messages, 1u);
  EXPECT_EQ(stats.total_bytes, 77u);
  EXPECT_EQ(stats.answer_bytes, 77u);
}

TEST(TransportTest, QueryShipEnvelopeAccountsPhantomBytes) {
  Envelope env = MakeQueryShipEnvelope(3, 41);
  EXPECT_EQ(env.to, 3);
  EXPECT_TRUE(env.accounted);
  EXPECT_EQ(env.WireBytes(), 41u);
  ASSERT_EQ(env.parts.size(), 1u);
  EXPECT_EQ(env.parts[0].kind, MessageKind::kQueryShip);
}

// ---- Run namespacing: one transport, many concurrent evaluations ------------

TEST(TransportTest, OpenRunsNamespaceMailboxesAndStats) {
  auto doc = MakeClienteleDoc();
  Cluster c(doc, 2);
  SyncTransport transport(TransportOptions{.batching = false});
  RunStats stats_a, stats_b;
  stats_a.per_site.resize(2);
  stats_b.per_site.resize(2);
  const RunId a = transport.OpenRun(&c, &stats_a);
  const RunId b = transport.OpenRun(&c, &stats_b);
  ASSERT_NE(a, b);
  EXPECT_EQ(transport.open_run_count(), 2u);

  transport.Send(PayloadEnvelope(a, 0, 1, std::string(100, 'x')));
  transport.Send(PayloadEnvelope(b, 0, 1, std::string(7, 'y')));
  transport.Send(PayloadEnvelope(b, 1, 0, std::string(9, 'y')));

  // No accounting bleed: each run's stats see only its own traffic.
  EXPECT_EQ(stats_a.total_messages, 1u);
  EXPECT_EQ(stats_a.total_bytes, 100u);
  EXPECT_EQ(stats_b.total_messages, 2u);
  EXPECT_EQ(stats_b.total_bytes, 16u);
  EXPECT_EQ((stats_a.edges.at({0, 1})), (EdgeStats{1, 1, 100}));
  EXPECT_EQ((stats_b.edges.at({0, 1})), (EdgeStats{1, 1, 7}));

  // No mail bleed: draining one run leaves the other's mailboxes intact.
  EXPECT_EQ(transport.Drain(a, 1).size(), 1u);
  EXPECT_FALSE(transport.HasPendingMail(a));
  EXPECT_TRUE(transport.HasMail(b, 1));
  EXPECT_TRUE(transport.HasMail(b, 0));

  // Closing one run does not disturb the other.
  transport.CloseRun(a);
  EXPECT_EQ(transport.open_run_count(), 1u);
  EXPECT_EQ(transport.Drain(b, 1).size(), 1u);
  EXPECT_EQ(transport.Drain(b, 0).size(), 1u);
  transport.CloseRun(b);
  EXPECT_EQ(transport.open_run_count(), 0u);
}

// CloseRun discards whatever mail an abandoned protocol left behind (error
// and cancellation paths rely on this), and a successor run starts with a
// fresh id and empty mailboxes.
TEST(TransportTest, CloseRunDiscardsPendingMailAndNeverReusesIds) {
  auto doc = MakeClienteleDoc();
  Cluster c(doc, 2);
  SyncTransport transport(TransportOptions{.batching = false});
  RunStats stats;
  stats.per_site.resize(2);
  const RunId run = transport.OpenRun(&c, &stats);
  transport.Send(PayloadEnvelope(run, 0, 1, "abandoned"));
  EXPECT_TRUE(transport.HasPendingMail(run));
  transport.CloseRun(run);
  EXPECT_EQ(transport.open_run_count(), 0u);

  RunStats stats2;
  stats2.per_site.resize(2);
  const RunId run2 = transport.OpenRun(&c, &stats2);
  EXPECT_NE(run, run2);
  EXPECT_FALSE(transport.HasPendingMail(run2));
  transport.Send(PayloadEnvelope(run2, 0, 1, "x"));
  EXPECT_EQ(stats2.total_messages, 1u);
  EXPECT_EQ(stats.total_messages, 1u);  // the old run's stats are untouched
  transport.CloseRun(run2);
}

// The query methods are const: a read-only transport view (e.g. the one
// Engine::transport() exposes) can introspect open runs and pending mail.
TEST(TransportTest, QueryMethodsAreConstCallable) {
  auto doc = MakeClienteleDoc();
  Cluster c(doc, 2);
  SyncTransport transport;
  RunStats stats;
  stats.per_site.resize(2);
  const RunId run = transport.OpenRun(&c, &stats);
  transport.Send(PayloadEnvelope(run, 0, 1, "mail"));

  const Transport& view = transport;
  EXPECT_EQ(view.open_run_count(), 1u);
  EXPECT_TRUE(view.HasMail(run, 1));
  EXPECT_FALSE(view.HasMail(run, 0));
  EXPECT_TRUE(view.HasPendingMail(run));
  transport.CloseRun(run);
  EXPECT_EQ(view.open_run_count(), 0u);
}

// ---- Delivery rounds --------------------------------------------------------

TEST(PooledTransportTest, RunRoundDeliversEverySiteOnPersistentPool) {
  auto doc = MakeClienteleDoc();
  Cluster c(doc, 4);
  PooledTransport transport;
  EXPECT_GE(transport.worker_count(), 2u);
  RunStats stats;
  stats.per_site.resize(4);
  const RunId run = transport.OpenRun(&c, &stats);

  std::atomic<int> delivered{0};
  std::set<std::thread::id> thread_ids;
  std::mutex mu;
  for (int round = 0; round < 3; ++round) {
    std::vector<double> durations;
    transport.RunRound(
        run, {0, 1, 2, 3},
        [&](SiteId, std::vector<Envelope>) {
          ++delivered;
          std::lock_guard<std::mutex> lock(mu);
          thread_ids.insert(std::this_thread::get_id());
        },
        &durations);
    ASSERT_EQ(durations.size(), 4u);
  }
  EXPECT_EQ(delivered.load(), 12);
  // The pool persists across rounds: deliveries never run on fresh
  // per-round threads beyond the pool size.
  EXPECT_LE(thread_ids.size(), transport.worker_count());
}

// The regression the shared-pool refactor fixes: two concurrent RunRound
// calls used to share one inflight_ counter and one done_cv_, so each
// caller could wake on the other's completion (or deadlock waiting for
// tasks that were never its own). Per-round latches make RunRound fully
// reentrant: every delivery lands in the right run, exactly once.
TEST(PooledTransportTest, ConcurrentRunRoundsAreReentrant) {
  auto doc = MakeClienteleDoc();
  Cluster c(doc, 4);
  PooledTransport transport(std::make_shared<WorkerPool>(2));
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;

  std::vector<RunStats> stats(kThreads);
  std::vector<RunId> runs(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    stats[t].per_site.resize(4);
    runs[t] = transport.OpenRun(&c, &stats[t]);
  }

  std::vector<std::atomic<int>> delivered(kThreads);
  std::vector<std::atomic<int>> mail_seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        transport.Send(PayloadEnvelope(runs[t], 0, 1, std::string(8, 'x')));
        std::vector<double> durations;
        transport.RunRound(
            runs[t], {0, 1, 2, 3},
            [&](SiteId site, std::vector<Envelope> mail) {
              ++delivered[t];
              if (site == 1) {
                // Each round must see exactly the one envelope its own
                // thread sent for this round — never another run's mail.
                mail_seen[t] += static_cast<int>(mail.size());
                for (const Envelope& env : mail) {
                  EXPECT_EQ(env.run, runs[t]);
                }
              } else {
                EXPECT_TRUE(mail.empty());
              }
            },
            &durations);
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(delivered[t].load(), kRounds * 4) << "thread " << t;
    EXPECT_EQ(mail_seen[t].load(), kRounds) << "thread " << t;
    EXPECT_EQ(stats[t].total_messages, static_cast<uint64_t>(kRounds));
    transport.CloseRun(runs[t]);
  }
}

TEST(SyncTransportTest, SnapshotKeepsRoundBoundaries) {
  auto doc = MakeClienteleDoc();
  Cluster c(doc, 2);
  SyncTransport transport;
  RunStats stats;
  stats.per_site.resize(2);
  const RunId run = transport.OpenRun(&c, &stats);

  transport.Send(PayloadEnvelope(run, 0, 1, "a"));
  int seen = 0;
  std::vector<double> durations;
  transport.RunRound(
      run, {1},
      [&](SiteId site, std::vector<Envelope> mail) {
        seen += static_cast<int>(mail.size());
        // Mail sent during a round is delivered in the *next* round.
        transport.Send(PayloadEnvelope(run, site, 1, "b"));
      },
      &durations);
  EXPECT_EQ(seen, 1);
  EXPECT_TRUE(transport.HasMail(run, 1));
}

TEST(CoordinatorTest, SitesOfDeduplicatesAndSorts) {
  auto doc = MakeClienteleDoc();
  Cluster c(doc, 2);  // round robin: F0,F2,F4 -> S0; F1,F3 -> S1
  SyncTransport transport;
  NullHandlers handlers;
  Coordinator coord(&c, &transport, &handlers);
  EXPECT_EQ(coord.SitesOf({0, 2, 4}), (std::vector<SiteId>{0}));
  EXPECT_EQ(coord.SitesOf({4, 1, 0, 3}), (std::vector<SiteId>{0, 1}));
  EXPECT_EQ(coord.AllSites(), (std::vector<SiteId>{0, 1}));
}

// Regression: a stage pruned down to no participants is not a round. The
// early-return path used to bump stats().rounds anyway, inflating the
// reported round count of annotation-pruned evaluations.
TEST(CoordinatorTest, EmptyRoundIsNotCounted) {
  auto doc = MakeClienteleDoc();
  Cluster c(doc, 2);
  SyncTransport transport;
  NullHandlers handlers;
  Coordinator coord(&c, &transport, &handlers);

  ASSERT_TRUE(coord.RunRound("pruned-out-stage", {}).ok());
  EXPECT_EQ(coord.stats().rounds, 0);
  EXPECT_EQ(coord.stats().total_visits(), 0u);

  ASSERT_TRUE(coord.RunRound("real-stage", {1}).ok());
  EXPECT_EQ(coord.stats().rounds, 1);
  EXPECT_EQ(coord.stats().per_site[1].visits, 1);

  ASSERT_TRUE(coord.RunRound("another-pruned-stage", {}).ok());
  EXPECT_EQ(coord.stats().rounds, 1);
}

// Each Coordinator owns one run on the shared transport; destruction
// releases it.
TEST(CoordinatorTest, CoordinatorsOpenAndCloseTheirRuns) {
  auto doc = MakeClienteleDoc();
  Cluster c(doc, 2);
  SyncTransport transport;
  NullHandlers handlers;
  {
    Coordinator a(&c, &transport, &handlers);
    Coordinator b(&c, &transport, &handlers);
    EXPECT_NE(a.run(), b.run());
    EXPECT_EQ(transport.open_run_count(), 2u);
  }
  EXPECT_EQ(transport.open_run_count(), 0u);
}

}  // namespace
}  // namespace paxml
