// QueryScheduler: priority-aware admission control for a stream of query
// evaluations over one shared transport and worker pool.
//
// The paper's guarantees are per query, but a server faces a *stream* of
// queries over one cluster. Each algorithm is a blocking protocol script
// (Post rounds, wait, unify, repeat — see runtime/coordinator.h), so the
// scheduler admits up to `depth` scripts at a time, each on its own driver
// thread against its own Coordinator (= its own transport run). The rounds
// of concurrent evaluations interleave on the shared WorkerPool, which
// serves one task from each blocked round in turn — round-robin across
// ready queries — so a wide round cannot starve the rest (worker_pool.h).
// While one query's driver sits in coordinator-side unification (or in a
// simulated network delay), the pool keeps crunching the other queries'
// site work; that overlap is the throughput win bench_multiquery measures.
//
// Admission order and rejection (the session API's contract, DESIGN.md §7):
//   * Jobs are admitted by descending priority; within a priority band,
//     earliest absolute deadline first (EDF — a deadline-carrying job
//     always outranks a deadline-free one in its band), remaining ties in
//     submission order. A high-priority query jumps the queue but never
//     preempts an evaluation already in flight.
//   * A job whose deadline has passed is *rejected* (its reject callback
//     runs with DeadlineExceeded) without ever opening a transport run;
//     likewise a job whose cancelled() predicate has turned true is
//     rejected with Cancelled. Drivers reap dead-on-arrival work ahead of
//     priority selection each time they examine the queue, so a rejection
//     is never stuck behind higher-priority work — though with every
//     driver busy evaluating, it waits for the next one to come free.
//     Queued work that can no longer meet its deadline costs the cluster
//     nothing.
//   * When the shared WorkerPool is saturated (more round batches queued
//     than there are workers), drivers stop admitting new evaluations
//     beyond a shrunken limit until the backlog drains: admitting more
//     concurrent rounds than the pool can serve only inflates every
//     query's latency. admission_limit() exposes the current value.
//
// The scheduler knows nothing about algorithms: jobs are opaque closures.
// The engine-level surface that pairs it with a shared transport is
// Engine::Submit (core/engine.h).

#ifndef PAXML_RUNTIME_QUERY_SCHEDULER_H_
#define PAXML_RUNTIME_QUERY_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/status.h"

namespace paxml {

class WorkerPool;

class QueryScheduler {
 public:
  /// One schedulable evaluation.
  struct Job {
    /// The evaluation itself; runs on a driver thread.
    std::function<void()> run;

    /// Invoked *instead of* run when the job is rejected at admission
    /// (deadline expired or cancelled while queued). May be null.
    std::function<void(const Status&)> reject;

    /// Polled at admission; true means the job was cancelled while queued
    /// and is rejected without running. May be null.
    std::function<bool()> cancelled;

    /// Higher runs first; within a band, earliest deadline first, then
    /// submission order.
    int priority = 0;

    /// Absolute deadline; a job still queued past it is rejected, and a
    /// nearer deadline wins admission within a priority band (EDF).
    std::optional<std::chrono::steady_clock::time_point> deadline;
  };

  /// `depth` = maximum evaluations in flight (the stream depth); at least 1.
  /// A non-null `pool` enables saturation-adaptive admission: while the
  /// pool's queued-batch backlog exceeds its worker count, the effective
  /// depth shrinks (one slot per excess batch, floor 1) until it drains.
  explicit QueryScheduler(size_t depth,
                          std::shared_ptr<WorkerPool> pool = nullptr);

  /// Runs or rejects every remaining job, then joins the drivers.
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  size_t depth() const { return drivers_.size(); }

  /// Enqueues one evaluation; never blocks.
  void Submit(Job job);

  /// Convenience: a plain closure is a priority-0 job with no deadline.
  void Submit(std::function<void()> job);

  /// Blocks until every job submitted so far has finished or been rejected.
  void Wait();

  /// The number of evaluations drivers may currently have in flight:
  /// depth(), shrunk while the shared pool is saturated. Introspection.
  size_t admission_limit();

  /// Jobs submitted but not yet admitted or rejected. Introspection.
  size_t queued_count();

 private:
  struct QueuedJob {
    Job job;
    uint64_t seq = 0;  // submission order, the priority tie-breaker
  };

  void DriverLoop();
  size_t AdmissionLimitLocked() const;
  /// Index into queue_ of the best admissible job, or queue_.size().
  size_t BestJobIndexLocked() const;

  std::mutex mu_;
  std::condition_variable work_cv_;  // drivers wait for jobs / admission
  std::condition_variable idle_cv_;  // Wait() waits for quiescence
  std::vector<QueuedJob> queue_;     // unordered; selection scans for best
  uint64_t next_seq_ = 0;
  size_t running_ = 0;
  bool stopping_ = false;
  std::shared_ptr<WorkerPool> pool_;
  std::vector<std::thread> drivers_;
};

}  // namespace paxml

#endif  // PAXML_RUNTIME_QUERY_SCHEDULER_H_
