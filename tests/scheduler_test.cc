// Tests for the shared WorkerPool and the multi-query scheduler: per-batch
// completion latches (reentrancy), round-robin fairness across batches,
// stream-depth admission, and the EvalBatch engine surface (per-query
// errors, shared pool reuse, simulated network delay).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "fragment/fragmenter.h"
#include "runtime/query_scheduler.h"
#include "runtime/worker_pool.h"
#include "test_util.h"

namespace paxml {
namespace {

// ---- WorkerPool -------------------------------------------------------------

TEST(WorkerPoolTest, RunAllExecutesEveryTaskAndBlocks) {
  WorkerPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 20; ++i) tasks.push_back([&] { ++ran; });
  pool.RunAll(std::move(tasks));
  // RunAll returned => every task has finished, not merely been queued.
  EXPECT_EQ(ran.load(), 20);
  pool.RunAll({});  // empty batch is a no-op
}

// The bug the pool extraction fixes: completion state is per batch, so any
// number of threads may run batches concurrently. With the old shared
// inflight_ counter this configuration deadlocked or woke callers early.
TEST(WorkerPoolTest, ConcurrentBatchesEachWaitOnTheirOwnLatch) {
  WorkerPool pool(2);
  constexpr int kCallers = 6;
  constexpr int kBatches = 20;
  constexpr int kTasksPerBatch = 5;
  std::vector<std::thread> callers;
  std::vector<std::atomic<int>> ran(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int b = 0; b < kBatches; ++b) {
        std::atomic<int> batch_ran{0};
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < kTasksPerBatch; ++i) {
          tasks.push_back([&] {
            ++batch_ran;
            ++ran[t];
          });
        }
        pool.RunAll(std::move(tasks));
        // The latch property: when RunAll returns, *this* batch is done,
        // whatever the other five callers are doing.
        ASSERT_EQ(batch_ran.load(), kTasksPerBatch);
      }
    });
  }
  for (auto& th : callers) th.join();
  for (int t = 0; t < kCallers; ++t) {
    EXPECT_EQ(ran[t].load(), kBatches * kTasksPerBatch);
  }
}

// Round-robin across batches: a single worker alternates between two
// queued batches instead of draining the first before touching the second,
// so a wide round cannot starve a concurrent query's round.
TEST(WorkerPoolTest, ServesConcurrentBatchesRoundRobin) {
  WorkerPool pool(1);
  std::mutex order_mu;
  std::vector<char> order;

  std::vector<std::function<void()>> batch_a;
  for (int i = 0; i < 4; ++i) {
    batch_a.push_back([&, i] {
      if (i == 0) {
        // Hold the only worker until batch B is queued behind batch A's
        // remaining tasks (A itself still counts: 3 tasks are unstarted).
        while (pool.queued_batch_count() < 2) std::this_thread::yield();
      }
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back('A');
    });
  }
  std::thread caller_a([&] { pool.RunAll(std::move(batch_a)); });
  // Queue B only after A: were B queued first, it would drain alone and
  // leave A's first task waiting for a second batch that never comes.
  while (pool.queued_batch_count() < 1) std::this_thread::yield();

  std::vector<std::function<void()>> batch_b;
  for (int i = 0; i < 3; ++i) {
    batch_b.push_back([&] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back('B');
    });
  }
  std::thread caller_b([&] { pool.RunAll(std::move(batch_b)); });
  caller_a.join();
  caller_b.join();

  ASSERT_EQ(order.size(), 7u);
  const std::string trace(order.begin(), order.end());
  const size_t first_b = trace.find('B');
  const size_t last_a = trace.rfind('A');
  ASSERT_NE(first_b, std::string::npos);
  // FIFO service would drain A completely first ("AAAABBB"); round-robin
  // interleaves, so some B task runs before A's last task.
  EXPECT_LT(first_b, last_a) << "batch B was starved behind batch A: "
                             << trace;
}

// ---- QueryScheduler ---------------------------------------------------------

TEST(QuerySchedulerTest, RunsEveryJobWithinDepth) {
  constexpr size_t kDepth = 3;
  QueryScheduler scheduler(kDepth);
  EXPECT_EQ(scheduler.depth(), kDepth);

  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 24; ++i) {
    scheduler.Submit([&] {
      const int now = ++running;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      --running;
      ++done;
    });
  }
  scheduler.Wait();
  EXPECT_EQ(done.load(), 24);
  EXPECT_LE(peak.load(), static_cast<int>(kDepth));
}

TEST(QuerySchedulerTest, WaitIsReusableAcrossSubmissionWaves) {
  QueryScheduler scheduler(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 4; ++i) scheduler.Submit([&] { ++done; });
  scheduler.Wait();
  EXPECT_EQ(done.load(), 4);
  for (int i = 0; i < 4; ++i) scheduler.Submit([&] { ++done; });
  scheduler.Wait();
  EXPECT_EQ(done.load(), 8);
}

TEST(QuerySchedulerTest, DepthZeroIsClampedToOne) {
  QueryScheduler scheduler(0);
  EXPECT_EQ(scheduler.depth(), 1u);
  std::atomic<int> done{0};
  scheduler.Submit([&] { ++done; });
  scheduler.Wait();
  EXPECT_EQ(done.load(), 1);
}

// Admission is by descending priority, ties in submission order — not FIFO.
// A gate job holds the single driver while the queue fills, so the
// admission order of the queued jobs is observed deterministically.
TEST(QuerySchedulerTest, PriorityOverridesSubmissionOrder) {
  QueryScheduler scheduler(1);
  std::atomic<bool> release{false};
  std::mutex order_mu;
  std::vector<std::string> order;
  auto record = [&](const char* name) {
    return [&, name] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(name);
    };
  };

  std::atomic<bool> gate_running{false};
  scheduler.Submit([&] {
    gate_running = true;
    while (!release.load()) std::this_thread::yield();
  });
  // Only queue once the gate holds the driver — otherwise the driver could
  // pick the high-priority job first, before the gate was even admitted.
  while (!gate_running.load()) std::this_thread::yield();
  // Queue while the driver is held: two low-priority, then one high.
  QueryScheduler::Job low1;
  low1.run = record("low1");
  QueryScheduler::Job low2;
  low2.run = record("low2");
  QueryScheduler::Job high;
  high.run = record("high");
  high.priority = 10;
  scheduler.Submit(std::move(low1));
  scheduler.Submit(std::move(low2));
  scheduler.Submit(std::move(high));
  EXPECT_EQ(scheduler.queued_count(), 3u);

  release = true;
  scheduler.Wait();
  EXPECT_EQ(order,
            (std::vector<std::string>{"high", "low1", "low2"}));
}

// Within one priority band admission is earliest-deadline-first: a nearer
// deadline wins, any deadline beats none, and only the remaining ties fall
// back to submission order.
TEST(QuerySchedulerTest, EarliestDeadlineFirstWithinPriorityBand) {
  QueryScheduler scheduler(1);
  std::atomic<bool> release{false};
  std::atomic<bool> gate_running{false};
  scheduler.Submit([&] {
    gate_running = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!gate_running.load()) std::this_thread::yield();

  std::mutex order_mu;
  std::vector<std::string> order;
  auto record = [&](const char* name) {
    return [&, name] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(name);
    };
  };
  // Deadlines generous enough that nothing expires while queued.
  const auto now = std::chrono::steady_clock::now();
  QueryScheduler::Job no_deadline;
  no_deadline.run = record("no-deadline");
  QueryScheduler::Job far;
  far.deadline = now + std::chrono::hours(2);
  far.run = record("far");
  QueryScheduler::Job near;
  near.deadline = now + std::chrono::hours(1);
  near.run = record("near");
  // A higher band ignores deadlines below it entirely.
  QueryScheduler::Job high;
  high.priority = 5;
  high.run = record("high");
  scheduler.Submit(std::move(no_deadline));
  scheduler.Submit(std::move(far));
  scheduler.Submit(std::move(near));
  scheduler.Submit(std::move(high));

  release = true;
  scheduler.Wait();
  EXPECT_EQ(order, (std::vector<std::string>{"high", "near", "far",
                                             "no-deadline"}));
}

// Dead-on-arrival work is reaped ahead of priority selection: an expired
// job must not wait behind higher-priority queued work for its verdict.
TEST(QuerySchedulerTest, ExpiredJobsAreReapedAheadOfPrioritySelection) {
  QueryScheduler scheduler(1);
  std::atomic<bool> release{false};
  std::atomic<bool> gate_running{false};
  scheduler.Submit([&] {
    gate_running = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!gate_running.load()) std::this_thread::yield();

  std::mutex order_mu;
  std::vector<std::string> order;
  QueryScheduler::Job high;
  high.priority = 10;
  high.run = [&] {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back("high-ran");
  };
  QueryScheduler::Job expired;
  expired.deadline = std::chrono::steady_clock::now();
  expired.run = [&] {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back("expired-ran");  // must never happen
  };
  expired.reject = [&](const Status& s) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(s.code() == StatusCode::kDeadlineExceeded
                        ? "expired-rejected"
                        : "expired-wrong-status");
  };
  scheduler.Submit(std::move(high));
  scheduler.Submit(std::move(expired));

  release = true;
  scheduler.Wait();
  EXPECT_EQ(order,
            (std::vector<std::string>{"expired-rejected", "high-ran"}));
}

TEST(QuerySchedulerTest, ExpiredDeadlineJobsAreRejectedNotRun) {
  QueryScheduler scheduler(1);
  std::atomic<bool> ran{false};
  Status rejection;
  std::mutex mu;

  QueryScheduler::Job job;
  job.run = [&] { ran = true; };
  job.reject = [&](const Status& s) {
    std::lock_guard<std::mutex> lock(mu);
    rejection = s;
  };
  job.deadline = std::chrono::steady_clock::now();  // already expired
  scheduler.Submit(std::move(job));
  scheduler.Wait();

  EXPECT_FALSE(ran.load());
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(rejection.code(), StatusCode::kDeadlineExceeded);
}

TEST(QuerySchedulerTest, CancelledQueuedJobsAreRejectedNotRun) {
  QueryScheduler scheduler(1);
  std::atomic<bool> ran{false};
  Status rejection;
  std::mutex mu;

  QueryScheduler::Job job;
  job.run = [&] { ran = true; };
  job.reject = [&](const Status& s) {
    std::lock_guard<std::mutex> lock(mu);
    rejection = s;
  };
  job.cancelled = [] { return true; };
  scheduler.Submit(std::move(job));
  scheduler.Wait();

  EXPECT_FALSE(ran.load());
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(rejection.code(), StatusCode::kCancelled);
}

// Wait() covers reject callbacks: a rejected job's verdict must be fully
// delivered (not merely scheduled) by the time Wait() returns — the reaped
// job counts as in-flight work across its callback.
TEST(QuerySchedulerTest, WaitCoversRejectCallbacks) {
  QueryScheduler scheduler(1);
  std::atomic<bool> rejected{false};
  QueryScheduler::Job job;
  job.deadline = std::chrono::steady_clock::now();  // dead on arrival
  job.reject = [&](const Status&) {
    // Widen the race window: with the bug, Wait() returned while this
    // callback was still running.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    rejected = true;
  };
  scheduler.Submit(std::move(job));
  scheduler.Wait();
  EXPECT_TRUE(rejected.load());
}

// Saturation-adaptive admission: while the shared pool's queued-batch
// backlog exceeds its worker count, the scheduler sheds admission slots
// (floor 1) instead of piling more concurrent rounds onto it.
TEST(QuerySchedulerTest, AdmissionLimitShrinksUnderPoolSaturation) {
  auto pool = std::make_shared<WorkerPool>(1);
  QueryScheduler scheduler(4, pool);
  EXPECT_EQ(scheduler.admission_limit(), 4u);

  std::atomic<bool> release{false};
  // Batch A: one task pins the only worker, one stays queued (backlog 1).
  std::thread caller_a([&] {
    std::vector<std::function<void()>> tasks;
    tasks.push_back([&] {
      while (!release.load()) std::this_thread::yield();
    });
    tasks.push_back([] {});
    pool->RunAll(std::move(tasks));
  });
  // Batch B: queued behind the pinned worker (backlog 2 > 1 worker).
  std::thread caller_b([&] {
    while (pool->queued_batch_count() < 1) std::this_thread::yield();
    pool->RunAll({[] {}});
  });

  // Wait for both batches to be queued, then observe the shrunken limit:
  // backlog 2, workers 1 → one slot shed.
  while (pool->queued_batch_count() < 2) std::this_thread::yield();
  EXPECT_EQ(scheduler.admission_limit(), 3u);

  release = true;
  caller_a.join();
  caller_b.join();
  EXPECT_EQ(scheduler.admission_limit(), 4u);
}

// ---- EvalBatch --------------------------------------------------------------

class EvalBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tree t = testing::BuildClienteleTree();
    auto doc = FragmentByCuts(t, testing::ClienteleCuts(t));
    ASSERT_TRUE(doc.ok());
    doc_ = std::make_shared<FragmentedDocument>(std::move(doc).ValueOrDie());
    cluster_ = std::make_unique<Cluster>(doc_, 4);
    cluster_->PlaceRootAndSpread();
  }

  std::shared_ptr<FragmentedDocument> doc_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(EvalBatchTest, PerQueryErrorsDoNotDisturbTheStream) {
  std::vector<std::string> stream = {
      "clientele/client/broker/name",
      "this is not xpath ((",
      "//stock/code",
  };
  std::vector<double> latencies;
  auto results = EvalBatch(*cluster_, stream, {}, 2, &latencies);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_EQ(latencies.size(), 3u);

  EXPECT_TRUE(results[0].ok()) << results[0].status();
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok()) << results[2].status();

  auto lone = EvaluateDistributed(*cluster_, stream[2]);
  ASSERT_TRUE(lone.ok());
  EXPECT_EQ(results[2]->answers, lone->answers);
}

TEST_F(EvalBatchTest, EmptyStreamIsANoOp) {
  EXPECT_TRUE(EvalBatch(*cluster_, {}).empty());
}

TEST_F(EvalBatchTest, SharedPoolServesRepeatedBatches) {
  // The cluster hands every pooled consumer the same WorkerPool: a stream
  // of batches must not spawn per-run pools.
  auto pool = cluster_->worker_pool();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(cluster_->worker_pool().get(), pool.get());

  EngineOptions options;
  options.transport = TransportKind::kPooled;
  std::vector<std::string> stream(6, "clientele/client/broker/name");
  for (int wave = 0; wave < 3; ++wave) {
    auto results = EvalBatch(*cluster_, stream, options, 3);
    for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.status();
  }
}

// A cluster that realizes network delay still computes identical results —
// the model only stretches wall time.
TEST_F(EvalBatchTest, SimulatedNetworkDelayDoesNotChangeAnswers) {
  ClusterOptions options;
  options.simulated_network = NetworkCostModel{};  // the paper's LAN
  Cluster delayed(doc_, 4, options);
  delayed.PlaceRootAndSpread();

  const std::string query = "clientele/client/broker/name";
  auto plain = EvaluateDistributed(*cluster_, query);
  auto slowed = EvaluateDistributed(delayed, query);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(slowed.ok());
  EXPECT_EQ(plain->answers, slowed->answers);
  EXPECT_EQ(plain->stats.total_bytes, slowed->stats.total_bytes);
  EXPECT_EQ(plain->stats.edges, slowed->stats.edges);
}

}  // namespace
}  // namespace paxml
