// The session-based evaluation engine: the public entry point for driving
// distributed query evaluation.
//
// A long-lived Engine owns the binding to one Cluster — one shared
// Transport (so every evaluation's bytes flow through one accounted message
// plane) and one QueryScheduler (priority-aware admission control over the
// cluster's WorkerPool). Submitting a query returns a QueryHandle to the
// in-flight evaluation:
//
//   auto doc = std::make_shared<FragmentedDocument>(
//       FragmentByCuts(tree, cuts).ValueOrDie());
//   Cluster cluster(doc, /*site_count=*/4);
//   cluster.PlaceRootAndSpread();
//
//   Engine engine(cluster, {.depth = 8});
//   QueryHandle urgent = engine.Submit(
//       "//broker[//stock/code = \"GOOG\"]/name",
//       {.priority = 10, .deadline = std::chrono::milliseconds(50)});
//   QueryHandle background = engine.Submit("//stock/code");
//   background.Cancel();                    // cooperative, round-granular
//   const QueryReport& report = urgent.Wait();
//   if (report.result.ok()) Use(report.result->answers);
//
// Lifecycle of a submission (DESIGN.md §7): Submit enqueues the query and
// never blocks; the scheduler admits queued work by descending priority
// (ties in submission order) up to a depth that adapts to WorkerPool
// saturation; each admitted evaluation runs as its own transport run, so
// concurrent queries share the message plane without touching each other's
// mailboxes or accounting (invariant 5, DESIGN.md §6). Cancel() and
// deadline expiry reject queued work at admission and unwind running work
// at the next Coordinator round boundary; either way the handle's
// QueryReport carries a distinct error status (kCancelled /
// kDeadlineExceeded) plus the RunStats the aborted run accumulated.
//
// There are exactly two ways to run a query: Engine::Submit(std::string)
// here, and the primitive it drives, EvaluateWorkload (core/workload.h),
// for callers that bring their own transport. Both take the query as text;
// the cluster's workload family owns its syntax.
//
// Serving layer (DESIGN.md §12): with EngineConfig::serving.answer_cache
// on, Submit(query) consults an answer cache keyed by (canonical query
// fingerprint — family, algorithm, options, query text — and the cluster's
// data epoch) before admitting the run. A repeated query is served
// entirely from the cache:
//
//   Engine engine(cluster, {.serving = {.answer_cache = true}});
//   engine.Submit("//broker/name").Wait();          // evaluates: N rounds
//   const QueryReport& hit =
//       engine.Submit("//broker/name").Wait();      // cache hit
//   // hit.served_from_cache == true, hit.rounds == 0,
//   // hit.stats.total_bytes == 0, hit.stats.wire_bytes == 0 — and
//   // hit.result->answers bit-identical to the first run's.
//
// N concurrent identical submissions coalesce into a single flight: one
// evaluates (the leader), the rest wait on its result. Cluster mutations
// must call Cluster::AdvanceDataEpoch(), which invalidates every cached
// answer (the epoch is part of the key).

#ifndef PAXML_CORE_ENGINE_H_
#define PAXML_CORE_ENGINE_H_

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/result.h"
#include "core/distributed_result.h"
#include "core/naive.h"
#include "core/pax2.h"
#include "core/pax3.h"
#include "runtime/query_scheduler.h"
#include "runtime/run_control.h"
#include "runtime/transport.h"
#include "serving/answer_cache.h"
#include "serving/fragment_memo.h"
#include "sim/cluster.h"

namespace paxml {

enum class DistributedAlgorithm : uint8_t {
  kPaX3,
  kPaX2,
  kNaiveCentralized,
};

const char* AlgorithmName(DistributedAlgorithm a);

/// Per-query options: which XML algorithm runs and how. The message plane
/// is not a per-query choice — it is the transport the query runs on.
struct EngineOptions {
  DistributedAlgorithm algorithm = DistributedAlgorithm::kPaX2;
  PaxOptions pax;
};

/// The engine's serving layer (DESIGN.md §12): what makes repeated, skewed
/// traffic cheap.
struct ServingOptions {
  /// Answer cache at Submit admission (see the header comment). A hit
  /// returns a completed handle with the cached answers in zero rounds and
  /// zero wire bytes; concurrent identical submissions single-flight.
  bool answer_cache = false;
  size_t answer_cache_capacity = 1024;

  /// Share one cache across engines (wins over the two knobs above when
  /// set). Safe across workloads — the key's family/fingerprint isolate
  /// entries — but only across engines over the *same* cluster: the data
  /// epoch in the key is that cluster's.
  std::shared_ptr<AnswerCache> shared_answer_cache;

  /// Fragment-stage memo for the engine's transport (in-process sites
  /// only; paxml_site peers bring their own via --memo). Lets repeated
  /// queries reuse per-fragment partial answers even when the full answer
  /// is not cached; savings show up in RunStats::memo_*
  /// (serving/fragment_memo.h).
  std::shared_ptr<FragmentMemo> fragment_memo;
};

/// How an Engine is wired to its cluster.
struct EngineConfig {
  /// Maximum evaluations in flight (the stream depth); at least 1. The
  /// effective depth shrinks while the shared WorkerPool is saturated
  /// (see runtime/query_scheduler.h).
  size_t depth = 8;

  /// Message backend for the engine's shared transport. Unset: the
  /// cluster's default (pooled iff parallel_execution), or the socket
  /// backend when transport_options.remote_endpoints is non-empty.
  std::optional<TransportKind> transport = std::nullopt;

  /// Message-plane knobs of the engine's shared transport (frame batching
  /// on by default; see runtime/transport.h). Its remote_endpoints map is
  /// the multi-process deployment: site -> "host:port" of the paxml_site
  /// process serving it. Sites absent from the map — the query site must be
  /// one — run in-process. Submit() behaves identically either way;
  /// answers, visits and per-edge traffic reproduce the in-process run
  /// exactly (tested property).
  TransportOptions transport_options = {};

  /// Per-query options used when a submission does not override them.
  EngineOptions defaults = {};

  /// The serving layer: answer cache and fragment memo (both off by
  /// default — an engine without them behaves exactly as before).
  ServingOptions serving = {};
};

/// Everything the engine reports about one submitted query.
struct QueryReport {
  /// The evaluation's outcome. Distinct error codes for the session
  /// lifecycle: kCancelled (Cancel() before or during evaluation),
  /// kDeadlineExceeded (deadline passed while queued or between rounds).
  Result<DistributedResult> result = Status::Internal("query was not evaluated");

  /// Submission to completion, wall clock — what a client observes,
  /// including time spent queued.
  double latency_seconds = 0;

  /// Submission to admission (== latency_seconds for work rejected while
  /// queued). latency - queue is the evaluation's own wall time.
  double queue_seconds = 0;

  /// Coordinator rounds the run executed (also for aborted runs).
  int rounds = 0;

  /// RunStats snapshot of the run. For successful queries this equals
  /// result->stats; for cancelled / expired / failed ones it holds the
  /// accounting of the partial run (zeroes if rejected while queued).
  RunStats stats;

  /// True when the answer came from the serving layer's answer cache (or a
  /// coalesced flight another submission evaluated): no run was opened, so
  /// rounds and every traffic counter are zero.
  bool served_from_cache = false;
};

namespace internal {
struct QueryState;
}  // namespace internal

/// Caller's end of one submitted query. Cheap to copy (shared state with
/// the engine); all methods are thread-safe. A default-constructed handle
/// is empty — using it is a programming error guarded by PAXML_CHECK.
/// Handles outlive their Engine safely: the shared state survives, and the
/// engine drains in-flight work before destruction.
class QueryHandle {
 public:
  QueryHandle();
  ~QueryHandle();
  QueryHandle(const QueryHandle&);
  QueryHandle& operator=(const QueryHandle&);
  QueryHandle(QueryHandle&&) noexcept;
  QueryHandle& operator=(QueryHandle&&) noexcept;

  bool valid() const;

  /// Blocks until the evaluation completes (or is rejected) and returns its
  /// report. The reference stays valid while any handle to this query lives.
  const QueryReport& Wait() const;

  /// Non-blocking: the report if the query has completed, else nullptr.
  const QueryReport* TryGet() const;

  /// Non-blocking live view of the in-flight evaluation: rounds completed
  /// and traffic accounted so far, published at every Coordinator round
  /// boundary — available *before* Wait() resolves (all zeroes while the
  /// query is still queued; for a finished query it matches the report's
  /// RunStats). Monotone across calls.
  RunProgress Progress() const;

  /// Requests cooperative cancellation: a queued query is rejected at
  /// admission, a running one unwinds at its next round boundary (without
  /// disturbing concurrent runs). Returns false if the query had already
  /// completed, true if the request was registered in time to matter
  /// (the evaluation may still complete if it was past its last round).
  bool Cancel() const;

  /// Moves the report out (e.g. to avoid copying a large answer set).
  /// Blocks like Wait(); the handle's report is left moved-from. Requires
  /// exclusive access to the query: no other thread may concurrently read
  /// the report through Wait()/TryGet() references on another copy of the
  /// handle (those are read without the lock once settled).
  QueryReport TakeReport();

 private:
  friend class Engine;
  explicit QueryHandle(std::shared_ptr<internal::QueryState> state);

  std::shared_ptr<internal::QueryState> state_;
};

/// What a query submission may override (see EngineConfig::defaults).
struct SubmitOptions {
  /// Higher-priority submissions are admitted first; within a priority
  /// band the earliest deadline runs first (EDF), remaining ties in
  /// submission order. In-flight evaluations are never preempted.
  int priority = 0;

  /// Relative deadline, measured from submission. Expiry rejects the query
  /// while queued and unwinds it at the next round boundary while running;
  /// either way the report carries kDeadlineExceeded. Within a priority
  /// band, a nearer deadline also wins admission (EDF).
  std::optional<std::chrono::steady_clock::duration> deadline;

  /// Per-query engine options (algorithm, pax options); unset uses the
  /// engine's defaults. Every submission runs over the engine's shared
  /// transport, chosen at EngineConfig time.
  std::optional<EngineOptions> engine_options;
};

/// A long-lived evaluation session over one cluster: one shared transport,
/// one scheduler, any number of submitted queries. Thread-safe: any thread
/// may Submit or use handles concurrently. Destruction drains in-flight
/// and queued work first.
class Engine {
 public:
  explicit Engine(const Cluster& cluster, EngineConfig config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Enqueues a query for evaluation; never blocks. The query string is
  /// routed by the cluster's workload family (core/workload.h): XPath over
  /// XML data, "reach <s> <t>" over graph data. It is parsed/compiled on
  /// the driver thread, overlapping other queries' evaluation; compile
  /// errors surface in the handle's report. With the answer cache on, a
  /// repeated query returns an already-completed handle and concurrent
  /// identical queries coalesce into one evaluation (see the header
  /// comment).
  QueryHandle Submit(std::string query, SubmitOptions options = {});

  /// Blocks until every query submitted so far has completed.
  void Drain();

  const Cluster& cluster() const { return *cluster_; }

  /// Read-only view of the engine's message plane (open_run_count() etc.).
  const Transport& transport() const { return *transport_; }

  /// The engine's answer cache (null when the serving layer is off); its
  /// Stats expose hit/miss/coalesced counts.
  const std::shared_ptr<AnswerCache>& answer_cache() const { return cache_; }

  /// Maximum evaluations in flight.
  size_t depth() const { return scheduler_.depth(); }

  /// Current adaptive admission limit (<= depth()). Introspection.
  size_t admission_limit() { return scheduler_.admission_limit(); }

  /// Submissions not yet admitted or rejected. Introspection.
  size_t queued_count() { return scheduler_.queued_count(); }

 private:
  /// Invoked with the evaluation's outcome before the handle settles (and
  /// with the rejection status if the job never ran) — the answer cache's
  /// publish hook: a leader's followers observe the entry no later than
  /// the leader's own Wait() returning.
  using CompleteFn = std::function<void(const Result<DistributedResult>&)>;

  /// Runs one admitted query through EvaluateWorkload (core/workload.h),
  /// which owns everything family-specific — the engine's scheduling
  /// machinery never names a workload.
  void Execute(const std::shared_ptr<internal::QueryState>& state,
               double queue_seconds, const std::string& query,
               const EngineOptions& options, const CompleteFn& on_complete);
  QueryHandle SubmitJob(std::string query, SubmitOptions options,
                        CompleteFn on_complete = nullptr);

  /// An already-completed handle serving `cached` (answer-cache hit).
  QueryHandle CachedHandle(const std::shared_ptr<const DistributedResult>& cached);

  /// A handle that settles when `flight` (another submission's in-flight
  /// evaluation of the same key) completes.
  QueryHandle FollowerHandle(const std::shared_ptr<AnswerCache::Flight>& flight);

  const Cluster* cluster_;
  EngineConfig config_;
  std::shared_ptr<AnswerCache> cache_;
  std::unique_ptr<Transport> transport_;
  QueryScheduler scheduler_;
};

}  // namespace paxml

#endif  // PAXML_CORE_ENGINE_H_
