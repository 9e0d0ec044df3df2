// Tests for the session-based engine API (core/engine.h): Engine::Submit +
// QueryHandle::{Wait,TryGet,Cancel} on both transport backends,
// priority-ordered admission, cancellation (queued and mid-run) and
// deadline expiry — each yielding its distinct error status while
// concurrent runs' answers and accounting stay byte-for-byte untouched
// (invariant 5, DESIGN.md §6/§7). That a stream of submissions reproduces
// the runs' sequential RunStats is checked by the equivalence matrix
// (equivalence_matrix_test.cc).

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "fragment/fragmenter.h"
#include "test_util.h"

namespace paxml {
namespace {

using std::chrono::milliseconds;

class EngineTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  void SetUp() override {
    Tree t = testing::BuildClienteleTree();
    auto doc = FragmentByCuts(t, testing::ClienteleCuts(t));
    ASSERT_TRUE(doc.ok());
    doc_ = std::make_shared<FragmentedDocument>(std::move(doc).ValueOrDie());
    cluster_ = std::make_unique<Cluster>(doc_, 4);
    cluster_->PlaceRootAndSpread();

    // A second cluster over the same document whose rounds sleep out a
    // modeled network delay: slow enough that a test can cancel or expire
    // an evaluation before it finishes, without any algorithm changes.
    ClusterOptions slow;
    NetworkCostModel net;
    net.latency_seconds = 0.05;  // 50 ms per message: rounds take seconds
    slow.simulated_network = net;
    slow_cluster_ = std::make_unique<Cluster>(doc_, 4, slow);
    slow_cluster_->PlaceRootAndSpread();
  }

  EngineConfig Config(size_t depth) const {
    EngineConfig config;
    config.depth = depth;
    config.transport = GetParam();
    return config;
  }

  std::shared_ptr<FragmentedDocument> doc_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Cluster> slow_cluster_;
};

const char* kQueryA = "clientele/client/broker/name";
const char* kQueryB = "//stock/code";
const char* kQueryC = "//market[name/text() = \"NASDAQ\"]/stock/code";

// ---- Submit / Wait / TryGet -------------------------------------------------

TEST_P(EngineTest, TryGetIsNullUntilCompletion) {
  Engine engine(*cluster_, Config(1));
  QueryHandle handle = engine.Submit(kQueryA);
  // Poll until done; TryGet never blocks.
  const QueryReport* report = handle.TryGet();
  while (report == nullptr) {
    std::this_thread::sleep_for(milliseconds(1));
    report = handle.TryGet();
  }
  EXPECT_TRUE(report->result.ok()) << report->result.status();
  EXPECT_EQ(report, &handle.Wait());  // same report, now settled
}

// ---- Per-round progress on the handle ---------------------------------------

// Progress is live: with 50 ms of modeled latency per message the driver
// spends long stretches sleeping out the network between rounds, so a
// client polling the handle must see completed rounds (and their accounted
// bytes) while TryGet() is still null.
TEST_P(EngineTest, ProgressIsVisibleBeforeWaitResolves) {
  Engine engine(*slow_cluster_, Config(1));
  QueryHandle handle = engine.Submit(kQueryA);

  RunProgress before_done;
  bool observed_before_done = false;
  while (handle.TryGet() == nullptr) {
    RunProgress p = handle.Progress();
    if (p.rounds > 0) {
      before_done = p;
      observed_before_done = true;
    }
    std::this_thread::sleep_for(milliseconds(1));
  }
  const QueryReport& report = handle.Wait();
  ASSERT_TRUE(report.result.ok()) << report.result.status();
  EXPECT_TRUE(observed_before_done);
  EXPECT_GT(before_done.bytes, 0u);
  EXPECT_GT(before_done.messages, 0u);
  EXPECT_LE(before_done.rounds, report.stats.rounds);
  EXPECT_LE(before_done.bytes, report.stats.total_bytes);
}

// Once the query completes, the last published progress is exactly the
// final accounting (and a still-queued query reports all zeroes).
TEST_P(EngineTest, ProgressMatchesFinalStats) {
  Engine engine(*cluster_, Config(2));
  QueryHandle handle = engine.Submit(kQueryB);
  EXPECT_EQ(QueryHandle(handle).Progress(), handle.Progress());  // copyable
  const QueryReport& report = handle.Wait();
  ASSERT_TRUE(report.result.ok());
  const RunProgress progress = handle.Progress();
  EXPECT_EQ(progress.rounds, report.stats.rounds);
  EXPECT_EQ(progress.messages, report.stats.total_messages);
  EXPECT_EQ(progress.envelopes, report.stats.total_envelopes);
  EXPECT_EQ(progress.bytes, report.stats.total_bytes);
}

TEST_P(EngineTest, CompileErrorsSurfaceInTheReport) {
  Engine engine(*cluster_, Config(2));
  QueryHandle bad = engine.Submit("this is not xpath ((");
  QueryHandle good = engine.Submit(kQueryA);
  EXPECT_FALSE(bad.Wait().result.ok());
  EXPECT_TRUE(good.Wait().result.ok()) << good.Wait().result.status();
}

// ---- Cancellation -----------------------------------------------------------

TEST_P(EngineTest, CancelWhileQueuedYieldsCancelledWithoutRunning) {
  // Depth 1: the slow query occupies the only driver, so the second
  // submission is still queued when the cancel lands.
  Engine engine(*slow_cluster_, Config(1));
  QueryHandle running = engine.Submit(kQueryA);
  QueryHandle queued = engine.Submit(kQueryB);
  EXPECT_TRUE(queued.Cancel());

  const QueryReport& report = queued.Wait();
  EXPECT_EQ(report.result.status().code(), StatusCode::kCancelled);
  // Rejected at admission: the query never opened a run — no rounds, no
  // traffic, no visits.
  EXPECT_EQ(report.rounds, 0);
  EXPECT_EQ(report.stats.total_bytes, 0u);
  EXPECT_EQ(report.stats.total_visits(), 0u);

  // The run it was queued behind is untouched.
  EXPECT_TRUE(running.Wait().result.ok()) << running.Wait().result.status();
}

TEST_P(EngineTest, CancelMidRunUnwindsWithoutDisturbingConcurrentRuns) {
  Engine engine(*slow_cluster_, Config(3));
  QueryHandle victim = engine.Submit(kQueryA);
  QueryHandle survivor = engine.Submit(kQueryB);

  // Let the victim get into its (seconds-long, network-delayed) rounds,
  // then cancel it mid-flight.
  std::this_thread::sleep_for(milliseconds(100));
  victim.Cancel();
  const QueryReport& cancelled = victim.Wait();
  EXPECT_EQ(cancelled.result.status().code(), StatusCode::kCancelled);

  // Invariant 5: the concurrent run's answers and accounting are
  // byte-for-byte those of an isolated sequential evaluation.
  auto baseline = testing::EvaluateOn(*cluster_, kQueryB, {}, GetParam());
  ASSERT_TRUE(baseline.ok());
  const QueryReport& kept = survivor.Wait();
  ASSERT_TRUE(kept.result.ok()) << kept.result.status();
  EXPECT_EQ(kept.result->answers, baseline->answers);
  EXPECT_EQ(kept.result->stats.edges, baseline->stats.edges);
  EXPECT_EQ(kept.result->stats.total_bytes, baseline->stats.total_bytes);
  EXPECT_EQ(kept.result->stats.total_messages, baseline->stats.total_messages);

  // And the engine keeps serving: a fresh submission on the same (fast)
  // engine is unaffected by the aborted run's discarded mail.
  Engine fresh(*cluster_, Config(2));
  QueryHandle after = fresh.Submit(kQueryA);
  ASSERT_TRUE(after.Wait().result.ok()) << after.Wait().result.status();
}

TEST_P(EngineTest, CancelAfterCompletionReturnsFalse) {
  Engine engine(*cluster_, Config(1));
  QueryHandle handle = engine.Submit(kQueryA);
  const QueryReport& report = handle.Wait();
  ASSERT_TRUE(report.result.ok());
  EXPECT_FALSE(handle.Cancel());
  // The settled report is not disturbed by the late cancel.
  EXPECT_TRUE(handle.Wait().result.ok());
}

// ---- Deadlines --------------------------------------------------------------

TEST_P(EngineTest, AlreadyExpiredDeadlineIsRejectedAtAdmission) {
  Engine engine(*cluster_, Config(2));
  SubmitOptions expired;
  expired.deadline = milliseconds(0);  // expires at submission
  QueryHandle dead = engine.Submit(kQueryA, expired);
  QueryHandle live = engine.Submit(kQueryB);

  const QueryReport& report = dead.Wait();
  EXPECT_EQ(report.result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(report.rounds, 0);
  EXPECT_EQ(report.stats.total_bytes, 0u);
  EXPECT_TRUE(live.Wait().result.ok()) << live.Wait().result.status();
}

TEST_P(EngineTest, DeadlineExpiryMidRunUnwindsAtARoundBoundary) {
  Engine engine(*slow_cluster_, Config(2));
  SubmitOptions tight;
  tight.deadline = milliseconds(150);  // the delayed rounds take seconds
  QueryHandle expiring = engine.Submit(kQueryA, tight);
  QueryHandle unbounded = engine.Submit(kQueryB);

  const QueryReport& report = expiring.Wait();
  EXPECT_EQ(report.result.status().code(), StatusCode::kDeadlineExceeded);
  // The concurrent, deadline-free run is untouched.
  auto baseline = testing::EvaluateOn(*cluster_, kQueryB, {}, GetParam());
  ASSERT_TRUE(baseline.ok());
  const QueryReport& kept = unbounded.Wait();
  ASSERT_TRUE(kept.result.ok()) << kept.result.status();
  EXPECT_EQ(kept.result->answers, baseline->answers);
  EXPECT_EQ(kept.result->stats.edges, baseline->stats.edges);
}

// ---- Priorities -------------------------------------------------------------

TEST_P(EngineTest, HigherPriorityIsAdmittedFirst) {
  // Depth 1 over the slow cluster: while the first query runs, the other
  // two wait in the queue — the high-priority one must be admitted first
  // even though it was submitted last.
  Engine engine(*slow_cluster_, Config(1));
  QueryHandle first = engine.Submit(kQueryA);
  SubmitOptions low;
  low.priority = 0;
  SubmitOptions high;
  high.priority = 10;
  QueryHandle background = engine.Submit(kQueryB, low);
  QueryHandle urgent = engine.Submit(kQueryC, high);

  const QueryReport& urgent_report = urgent.Wait();
  const QueryReport& background_report = background.Wait();
  ASSERT_TRUE(first.Wait().result.ok());
  ASSERT_TRUE(urgent_report.result.ok()) << urgent_report.result.status();
  ASSERT_TRUE(background_report.result.ok())
      << background_report.result.status();
  // Admission order shows up as queue time: the urgent query left the
  // queue while the background one was still waiting behind it.
  EXPECT_LT(urgent_report.queue_seconds, background_report.queue_seconds);
}

INSTANTIATE_TEST_SUITE_P(Backends, EngineTest,
                         ::testing::Values(TransportKind::kSync,
                                           TransportKind::kPooled),
                         [](const ::testing::TestParamInfo<TransportKind>& i) {
                           return i.param == TransportKind::kSync ? "Sync"
                                                                  : "Pooled";
                         });

// ---- Engine lifecycle -------------------------------------------------------

TEST(EngineLifecycleTest, DestructionDrainsInFlightWork) {
  Tree t = testing::BuildClienteleTree();
  auto doc = FragmentByCuts(t, testing::ClienteleCuts(t));
  ASSERT_TRUE(doc.ok());
  auto shared = std::make_shared<FragmentedDocument>(std::move(doc).ValueOrDie());
  Cluster cluster(shared, 4);
  cluster.PlaceRootAndSpread();

  QueryHandle handle;
  EXPECT_FALSE(handle.valid());
  {
    EngineConfig config;
    config.depth = 2;
    Engine engine(cluster, config);
    handle = engine.Submit("clientele/client/broker/name");
    EXPECT_TRUE(handle.valid());
  }  // engine destroyed: drains first
  ASSERT_NE(handle.TryGet(), nullptr);  // completed, not abandoned
  EXPECT_TRUE(handle.TryGet()->result.ok()) << handle.TryGet()->result.status();
}

}  // namespace
}  // namespace paxml
