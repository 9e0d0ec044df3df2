#include "core/engine.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <utility>

#include "common/logging.h"
#include "core/workload.h"
#include "runtime/run_control.h"
#include "runtime/worker_pool.h"
#include "serving/fingerprint.h"

namespace paxml {

const char* AlgorithmName(DistributedAlgorithm a) {
  switch (a) {
    case DistributedAlgorithm::kPaX3:
      return "PaX3";
    case DistributedAlgorithm::kPaX2:
      return "PaX2";
    case DistributedAlgorithm::kNaiveCentralized:
      return "NaiveCentralized";
  }
  return "?";
}

// ---- Session state ----------------------------------------------------------

namespace internal {

/// Shared between the Engine's driver and every QueryHandle to the query.
struct QueryState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  QueryReport report;
  RunControl control;
  std::chrono::steady_clock::time_point submit_time;
};

}  // namespace internal

namespace {

using internal::QueryState;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The pool whose saturation should throttle admission: whatever pool the
/// engine's own transport delivers rounds on (nullptr for sync backends).
std::shared_ptr<WorkerPool> SchedulerPoolOf(Transport* transport) {
  auto* pooled = dynamic_cast<PooledTransport*>(transport);
  return pooled != nullptr ? pooled->pool() : nullptr;
}

}  // namespace

// ---- QueryHandle ------------------------------------------------------------

QueryHandle::QueryHandle() = default;
QueryHandle::~QueryHandle() = default;
QueryHandle::QueryHandle(const QueryHandle&) = default;
QueryHandle& QueryHandle::operator=(const QueryHandle&) = default;
QueryHandle::QueryHandle(QueryHandle&&) noexcept = default;
QueryHandle& QueryHandle::operator=(QueryHandle&&) noexcept = default;

QueryHandle::QueryHandle(std::shared_ptr<internal::QueryState> state)
    : state_(std::move(state)) {}

bool QueryHandle::valid() const { return state_ != nullptr; }

const QueryReport& QueryHandle::Wait() const {
  PAXML_CHECK(state_ != nullptr);
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  return state_->report;
}

const QueryReport* QueryHandle::TryGet() const {
  PAXML_CHECK(state_ != nullptr);
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done ? &state_->report : nullptr;
}

RunProgress QueryHandle::Progress() const {
  PAXML_CHECK(state_ != nullptr);
  return state_->control.progress();
}

bool QueryHandle::Cancel() const {
  PAXML_CHECK(state_ != nullptr);
  // Flag first, then observe: if the query completes concurrently the flag
  // is a harmless no-op, and a false return guarantees it was already done.
  state_->control.RequestCancel();
  std::lock_guard<std::mutex> lock(state_->mu);
  return !state_->done;
}

QueryReport QueryHandle::TakeReport() {
  PAXML_CHECK(state_ != nullptr);
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  return std::move(state_->report);
}

// ---- Engine -----------------------------------------------------------------

namespace {

/// The engine's transport options: the configured ones, plus the serving
/// layer's fragment memo when one is set.
TransportOptions MergedTransportOptions(const EngineConfig& config) {
  TransportOptions options = config.transport_options;
  if (config.serving.fragment_memo != nullptr) {
    options.fragment_memo = config.serving.fragment_memo;
  }
  return options;
}

std::shared_ptr<AnswerCache> MakeAnswerCache(const ServingOptions& serving) {
  if (serving.shared_answer_cache != nullptr) return serving.shared_answer_cache;
  if (serving.answer_cache) {
    return std::make_shared<AnswerCache>(serving.answer_cache_capacity);
  }
  return nullptr;
}

/// The zero-cost stats of a serving-layer hit: no rounds, no bytes, no
/// messages — only the per_site shape matches the cluster so hit and miss
/// reports stay structurally comparable.
RunStats CacheHitStats(size_t site_count) {
  RunStats stats;
  stats.per_site.resize(site_count);
  return stats;
}

}  // namespace

Engine::Engine(const Cluster& cluster, EngineConfig config)
    : cluster_(&cluster),
      config_(std::move(config)),
      cache_(MakeAnswerCache(config_.serving)),
      transport_(MakeTransportFor(cluster, config_.transport,
                                  MergedTransportOptions(config_))),
      scheduler_(config_.depth, SchedulerPoolOf(transport_.get())) {}

// The scheduler (declared last) is destroyed first, draining every
// in-flight and queued job before the shared transport goes away.
Engine::~Engine() = default;

void Engine::Drain() { scheduler_.Wait(); }

QueryHandle Engine::Submit(std::string query, SubmitOptions options) {
  // Parsing/compiling happens inside EvaluateWorkload, on the job's thread,
  // overlapping other queries' evaluation.
  if (cache_ == nullptr) return SubmitJob(std::move(query), std::move(options));

  // Serving-layer admission. The key is the run's full serving identity
  // (serving/fingerprint.h) plus the cluster's data epoch (re-placement can
  // never serve a stale answer) plus the workload data's identity (a cache
  // shared across engines — the multi-front-end deployment — must never
  // collide across documents; answers depend on the data, not the
  // placement, so clusters sharing one store share entries).
  const EngineOptions& opts = options.engine_options.has_value()
                                  ? *options.engine_options
                                  : config_.defaults;
  RunSpec spec;
  spec.algorithm = AlgorithmName(opts.algorithm);
  spec.query = query;
  spec.use_annotations = opts.pax.use_annotations;
  spec.ship_mode = static_cast<uint8_t>(opts.pax.ship_mode);
  spec.family = std::string(cluster_->data().family());
  const std::string key =
      RunFingerprint(spec) + "@" + std::to_string(cluster_->data_epoch()) +
      "#" +
      std::to_string(reinterpret_cast<uintptr_t>(
          static_cast<const void*>(&cluster_->data())));

  AnswerCache::Ticket ticket = cache_->Begin(key);
  switch (ticket.role) {
    case AnswerCache::Role::kHit:
      return CachedHandle(ticket.cached);
    case AnswerCache::Role::kFollower:
      return FollowerHandle(ticket.flight);
    case AnswerCache::Role::kLeader:
      break;
  }
  // Leader: run the evaluation and settle the flight either way — including
  // queue rejection (SubmitJob's reject path also invokes on_complete), so
  // followers can never wait on a flight nobody is flying.
  return SubmitJob(
      std::move(query), std::move(options),
      [cache = cache_, flight = ticket.flight,
       key](const Result<DistributedResult>& result) {
        if (result.ok()) {
          cache->Publish(flight, key,
                         std::make_shared<const DistributedResult>(*result));
        } else {
          cache->Abort(flight, key, result.status());
        }
      });
}

QueryHandle Engine::CachedHandle(
    const std::shared_ptr<const DistributedResult>& cached) {
  auto state = std::make_shared<QueryState>();
  state->submit_time = std::chrono::steady_clock::now();
  // Deep-copy the answers but report a zero-cost run: the hit opened no run,
  // moved no bytes, visited no site.
  DistributedResult copy;
  copy.answers = cached->answers;
  copy.stats = CacheHitStats(cluster_->site_count());
  std::lock_guard<std::mutex> lock(state->mu);
  state->report.stats = copy.stats;
  state->report.result = std::move(copy);
  state->report.served_from_cache = true;
  state->report.rounds = 0;
  state->report.latency_seconds = SecondsSince(state->submit_time);
  state->report.queue_seconds = 0;
  state->done = true;
  return QueryHandle(std::move(state));
}

QueryHandle Engine::FollowerHandle(
    const std::shared_ptr<AnswerCache::Flight>& flight) {
  auto state = std::make_shared<QueryState>();
  state->submit_time = std::chrono::steady_clock::now();
  flight->AddWaiter([state, flight, site_count = cluster_->site_count()] {
    // The flight is done; read its outcome under its lock (Complete wrote it
    // there) so the hand-off is clean under TSan.
    std::shared_ptr<const DistributedResult> result;
    Status failure = Status::OK();
    {
      std::lock_guard<std::mutex> flight_lock(flight->mu);
      result = flight->result;
      failure = flight->failure;
    }
    std::lock_guard<std::mutex> lock(state->mu);
    if (result != nullptr) {
      DistributedResult copy;
      copy.answers = result->answers;
      copy.stats = CacheHitStats(site_count);
      state->report.stats = copy.stats;
      state->report.result = std::move(copy);
      state->report.served_from_cache = true;
    } else {
      state->report.result = failure;
    }
    state->report.rounds = 0;
    state->report.latency_seconds = SecondsSince(state->submit_time);
    // The whole wait rode on the leader's run; the follower itself was
    // never queued.
    state->report.queue_seconds = state->report.latency_seconds;
    state->done = true;
    state->cv.notify_all();
  });
  return QueryHandle(std::move(state));
}

QueryHandle Engine::SubmitJob(std::string query, SubmitOptions options,
                              CompleteFn on_complete) {
  auto state = std::make_shared<QueryState>();
  state->submit_time = std::chrono::steady_clock::now();
  if (options.deadline.has_value()) {
    state->control.set_deadline(state->submit_time + *options.deadline);
  }

  QueryScheduler::Job job;
  job.priority = options.priority;
  if (options.deadline.has_value()) {
    job.deadline = state->submit_time + *options.deadline;
  }
  job.cancelled = [state] { return state->control.cancel_requested(); };
  job.reject = [state, on_complete](const Status& status) {
    // A rejected leader still settles its flight: followers observe the
    // rejection instead of waiting forever.
    if (on_complete != nullptr) on_complete(status);
    std::lock_guard<std::mutex> lock(state->mu);
    state->report.result = status;
    state->report.latency_seconds = SecondsSince(state->submit_time);
    state->report.queue_seconds = state->report.latency_seconds;
    state->done = true;
    state->cv.notify_all();
  };
  job.run = [this, state, query = std::move(query),
             on_complete = std::move(on_complete),
             engine_options =
                 options.engine_options.value_or(config_.defaults)] {
    // Queue time ends at admission — before parsing/compiling, which is
    // part of the evaluation's own wall time.
    const double queue_seconds = SecondsSince(state->submit_time);
    Execute(state, queue_seconds, query, engine_options, on_complete);
  };
  scheduler_.Submit(std::move(job));
  return QueryHandle(std::move(state));
}

void Engine::Execute(const std::shared_ptr<internal::QueryState>& state,
                     double queue_seconds, const std::string& query,
                     const EngineOptions& options,
                     const CompleteFn& on_complete) {
  Result<DistributedResult> result = EvaluateWorkload(
      *cluster_, query, options, transport_.get(), &state->control);

  // Settle the serving layer before the handle: whoever observes this
  // query's completion can already hit its cache entry.
  if (on_complete != nullptr) on_complete(result);

  std::lock_guard<std::mutex> lock(state->mu);
  state->report.queue_seconds = queue_seconds;
  state->report.latency_seconds = SecondsSince(state->submit_time);
  // Aborted or failed runs report through the Coordinator's published
  // snapshot (runtime/run_control.h); successful ones carry their stats in
  // the result itself.
  state->report.stats =
      result.ok() ? result->stats : state->control.TakeStats();
  state->report.rounds = state->report.stats.rounds;
  state->report.result = std::move(result);
  state->done = true;
  state->cv.notify_all();
}

}  // namespace paxml
