// paxml_bench: the measuring program of the repository benchmark.
//
//   paxml_bench --workload W [--seed S] [--seconds T] [--trace FILE]
//               [--quick] [--inject-mismatch] [--work-dir DIR]
//
// Runs one workload end to end through the public Engine API (Submit then
// Wait) and prints every metric as "W.metric = value unit", then one JSON
// line {"correct", "attempted", "failed", "metrics"} as the last line of
// standard output. benchmark/run.py builds this program and drives it.
//
// A run has four phases:
//   1. set-up, repeated (five times, once with --quick): generate the
//      seeded inputs, fragment and place them, save them and spawn the
//      paxml_site peers for the socket workload, open the Engine and answer
//      one cold query. The last deployment is kept for the rest of the run.
//      Six more set-ups follow the window; setup_s is the median of all.
//   2. verification: every distinct query of the workload once, checked
//      against the centralized (XPath) or BFS (reachability) oracle and
//      against the paper's visit and round bounds; on the socket workload
//      the accounted RunStats must equal a SyncTransport run's. Each
//      answer's checksum is kept for phase 4.
//   3. warm-up, one second of the measured loop with results discarded.
//   4. the measured window of --seconds, in one-second segments. Every
//      answer is checked against its checksum; a mismatch fails the run
//      (--inject-mismatch corrupts one expected checksum to prove the path
//      fires).
//
// The host's speed drifts, so a HostProbe runs around every set-up and
// between the window's segments, and every end-to-end time is reported at
// the probe's reference speed (see HostProbe).
//
// With --trace FILE the window is split in two halves over the same
// queries, both calling EvaluateWorkload directly: an untraced half on a
// plain transport and a traced half on a TracingTransport (trace.h). The
// output is then the per-layer metric set and the Chrome trace in FILE.
// serve-zipf keeps the Engine in both halves, because the answer cache lives
// there, and traces only its request spans.

#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/reach.h"
#include "core/workload.h"
#include "eval/centralized.h"
#include "fixtures.h"
#include "fragment/storage.h"
#include "serving/fragment_memo.h"
#include "trace.h"
#include "xpath/query_plan.h"

namespace paxml::perf {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Workloads --------------------------------------------------------------

enum class Family { kXml, kGraph };
enum class Placement { kPaper, kOneHot, kRoundRobin };

struct WorkloadSpec {
  const char* name = "";
  Family family = Family::kXml;
  double scale = 1;  ///< FT2 scale, or the vertex count of the digraph
  size_t sites = 4;
  size_t fragments = 10;  ///< graph only; FT2 always has ten
  Placement placement = Placement::kPaper;
  bool socket = false;  ///< sites 1..3 run as paxml_site processes
  size_t clients = 1;   ///< closed-loop client threads
  size_t depth = 4;
  size_t site_threads = 1;
  uint64_t split_pct = 0;
  bool annotations = false;
  bool serving = false;  ///< answer cache and fragment memo; Zipf draws
};

// Sized for a 4-core host: one load-generating process, at most four
// client threads and four connections.
const WorkloadSpec kWorkloads[] = {
    // Compute-bound with concurrent runs: site evaluation, the shared
    // transport lock and the worker pool.
    {.name = "ft2-inproc", .scale = 1.0, .clients = 2, .depth = 2},
    // Fixed-cost-bound: wire, frames, round barrier and run set-up.
    {.name = "ft2-socket", .scale = 0.05, .socket = true, .clients = 2,
     .depth = 2},
    // Intra-site parallelism: lanes, splitting, capture and replay.
    {.name = "onehot-split", .scale = 2.0, .sites = 3,
     .placement = Placement::kOneHot, .clients = 1, .depth = 1,
     .site_threads = 4, .split_pct = 50, .annotations = true},
    // The serving layer: cache hits, misses after each epoch bump, memo.
    {.name = "serve-zipf", .scale = 0.5, .clients = 2, .serving = true},
    // The same runtime used by one-round reachability.
    {.name = "reach-graph", .family = Family::kGraph, .scale = 200000,
     .fragments = 8, .placement = Placement::kRoundRobin, .clients = 4},
};

/// serve-zipf advances the data epoch once per this many requests: each
/// bump invalidates the answer cache and fragment memo, so misses come in
/// bursts.
constexpr uint64_t kEpochRequests = 128;

std::vector<std::string> QueriesOf(const WorkloadSpec& spec, uint64_t seed) {
  const std::string name = spec.name;
  if (name == "onehot-split") return SplitMix();
  if (name == "serve-zipf") return ServeQueries();
  if (name == "reach-graph") {
    return ReachQueries(static_cast<int32_t>(spec.scale), spec.fragments, seed);
  }
  return Ft2Mix();
}

// ---- Deployment -------------------------------------------------------------

struct Peer {
  pid_t pid = -1;
  int port = 0;
};

/// Starts one paxml_site serving `site`; returns once it listens. Must be
/// called from the main thread: the peer is killed when its parent thread
/// exits.
Peer SpawnPeer(const std::string& dir, const Cluster& cluster, SiteId site) {
  std::string placement;
  for (size_t f = 0; f < cluster.fragment_count(); ++f) {
    if (!placement.empty()) placement += ',';
    placement += std::to_string(cluster.site_of(static_cast<FragmentId>(f)));
  }
  const std::string site_arg = std::to_string(site);
  const std::string sites_arg = std::to_string(cluster.site_count());
  const char* binary = PAXML_SITE_BIN;

  int out[2];
  PAXML_CHECK(::pipe2(out, O_CLOEXEC) == 0);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  PAXML_CHECK(pid >= 0);
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    ::dup2(out[1], STDOUT_FILENO);
    ::execl(binary, binary, dir.c_str(), "--site", site_arg.c_str(), "--sites",
            sites_arg.c_str(), "--placement", placement.c_str(), "--port", "0",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(out[1]);
  std::string line;
  char c;
  while (line.find('\n') == std::string::npos && ::read(out[0], &c, 1) == 1) {
    line.push_back(c);
  }
  ::close(out[0]);
  Peer peer;
  peer.pid = pid;
  if (std::sscanf(line.c_str(), "PAXML_SITE LISTENING %d", &peer.port) != 1) {
    std::fprintf(stderr, "paxml_bench: %s did not start\n", binary);
    std::exit(2);
  }
  return peer;
}

struct SetupTimes {
  double generate = 0;
  double fragment = 0;  ///< fragmenting, cluster construction, placement
  double save = 0;
  double spawn = 0;  ///< peers plus the Engine (dial and Hello)
  double first_query = 0;
  double host = 1;  ///< the host's slowness around the set-up (HostProbe)

  double total() const {
    return generate + fragment + save + spawn + first_query;
  }
};

/// One set-up instance: the inputs, their oracle and the deployed Engine.
struct Deployment {
  Tree tree;  ///< unfragmented XML, the centralized oracle's input
  std::shared_ptr<FragmentedDocument> doc;
  Digraph graph;  ///< the BFS oracle's input
  std::unique_ptr<Cluster> cluster;
  std::string data_dir;
  std::vector<Peer> peers;
  TransportOptions transport_options;
  EngineConfig config;
  std::shared_ptr<FragmentMemo> memo;
  std::unique_ptr<Engine> engine;
  SetupTimes times;
  double peer_rss_mb = 0;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() { Shutdown(); }

  /// Closes the Engine, stops the peers (recording their peak RSS) and
  /// removes the saved data. Idempotent.
  void Shutdown() {
    engine.reset();
    for (const Peer& peer : peers) {
      ::kill(peer.pid, SIGTERM);
      int status = 0;
      struct rusage usage {};
      if (::wait4(peer.pid, &status, 0, &usage) == peer.pid) {
        peer_rss_mb += static_cast<double>(usage.ru_maxrss) / 1024.0;
      }
    }
    peers.clear();
    if (!data_dir.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(data_dir, ignored);
      data_dir.clear();
    }
  }
};

std::unique_ptr<Deployment> SetUp(const WorkloadSpec& spec, uint64_t seed,
                                  const std::string& work_dir, int instance,
                                  const std::string& first_query) {
  auto d = std::make_unique<Deployment>();
  auto start = Clock::now();
  if (spec.family == Family::kXml) {
    d->tree = GenerateFT2(spec.scale, seed);
  } else {
    d->graph = BandedDigraph(static_cast<int32_t>(spec.scale), seed);
  }
  d->times.generate = SecondsSince(start);

  start = Clock::now();
  if (spec.family == Family::kXml) {
    d->doc = FragmentFT2(d->tree);
    d->cluster = std::make_unique<Cluster>(d->doc, spec.sites);
  } else {
    d->cluster = std::make_unique<Cluster>(
        ContiguousPartition(d->graph, spec.fragments), spec.sites);
  }
  switch (spec.placement) {
    case Placement::kPaper: PlaceFT2Paper(*d->cluster); break;
    case Placement::kOneHot: PlaceOneHot(*d->cluster); break;
    case Placement::kRoundRobin: d->cluster->PlaceRoundRobin(); break;
  }
  d->times.fragment = SecondsSince(start);

  TransportOptions& topts = d->transport_options;
  topts.site_threads = spec.site_threads;
  topts.split_threshold_pct = spec.split_pct;
  if (spec.socket) {
    start = Clock::now();
    d->data_dir = work_dir + "/" + spec.name + "-" +
                  std::to_string(::getpid()) + "-" + std::to_string(instance);
    PAXML_CHECK(SaveDocument(*d->doc, d->data_dir).ok());
    d->times.save = SecondsSince(start);
  }

  start = Clock::now();
  if (spec.socket) {
    for (SiteId s = 1; s < static_cast<SiteId>(spec.sites); ++s) {
      d->peers.push_back(SpawnPeer(d->data_dir, *d->cluster, s));
      topts.remote_endpoints[s] =
          "127.0.0.1:" + std::to_string(d->peers.back().port);
    }
  }
  d->config.depth = spec.depth;
  d->config.transport =
      spec.socket ? TransportKind::kSocket : TransportKind::kPooled;
  d->config.transport_options = topts;
  d->config.defaults.algorithm = DistributedAlgorithm::kPaX2;
  d->config.defaults.pax.use_annotations = spec.annotations;
  if (spec.serving) {
    d->memo = std::make_shared<FragmentMemo>();
    d->config.serving.answer_cache = true;
    d->config.serving.fragment_memo = d->memo;
  }
  d->engine = std::make_unique<Engine>(*d->cluster, d->config);
  d->times.spawn = SecondsSince(start);

  start = Clock::now();
  const QueryReport first = d->engine->Submit(first_query).TakeReport();
  if (!first.result.ok()) {
    std::fprintf(stderr, "paxml_bench: first query failed: %s\n",
                 first.result.status().ToString().c_str());
    std::exit(2);
  }
  d->times.first_query = SecondsSince(start);
  return d;
}

// ---- Verification -----------------------------------------------------------

uint64_t AnswerChecksum(const std::vector<GlobalNodeId>& answers) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(answers.size());
  for (const GlobalNodeId& g : answers) {
    mix(static_cast<uint64_t>(g.fragment));
    mix(static_cast<uint64_t>(g.node));
  }
  return h;
}

/// The RunStats fields every backend must reproduce exactly.
bool SameContractStats(const RunStats& a, const RunStats& b) {
  if (a.rounds != b.rounds || a.total_messages != b.total_messages ||
      a.total_envelopes != b.total_envelopes ||
      a.total_bytes != b.total_bytes || a.answer_bytes != b.answer_bytes ||
      a.wire_bytes != b.wire_bytes || !(a.edges == b.edges) ||
      a.per_site.size() != b.per_site.size()) {
    return false;
  }
  for (size_t s = 0; s < a.per_site.size(); ++s) {
    if (a.per_site[s].visits != b.per_site[s].visits) return false;
  }
  return true;
}

struct Verification {
  bool ok = true;
  std::vector<uint64_t> checksums;  ///< per distinct query
  double wire_bytes_per_query = 0;
};

Verification Verify(const WorkloadSpec& spec, Deployment& d,
                    const std::vector<std::string>& queries) {
  Verification v;
  auto fail = [&v](const std::string& query, const std::string& why) {
    std::fprintf(stderr, "paxml_bench: verification failed for %s: %s\n",
                 query.c_str(), why.c_str());
    v.ok = false;
  };
  TransportOptions sync_options = d.transport_options;
  sync_options.remote_endpoints.clear();
  double wire_bytes = 0;
  for (const std::string& q : queries) {
    QueryReport report = d.engine->Submit(q).TakeReport();
    v.checksums.push_back(0);
    if (!report.result.ok()) {
      fail(q, report.result.status().ToString());
      continue;
    }
    const DistributedResult& r = *report.result;
    v.checksums.back() = AnswerChecksum(r.answers);
    wire_bytes += static_cast<double>(r.stats.wire_bytes);

    if (spec.family == Family::kXml) {
      auto compiled = CompileXPath(q, d.doc->symbols());
      PAXML_CHECK(compiled.ok());
      std::vector<NodeId> want = EvaluateCentralized(d.tree, *compiled).answers;
      std::sort(want.begin(), want.end());
      if (r.ToSourceIds(*d.doc) != want) fail(q, "answers differ from oracle");
      if (r.stats.max_visits() > 2 || r.stats.rounds > 2) {
        fail(q, "PaX2 visited a site more than twice");
      }
    } else {
      auto parsed = ParseReachQuery(q);
      PAXML_CHECK(parsed.ok());
      if (r.answers.empty() ==
          ReachesBFS(d.graph, parsed->source, parsed->target)) {
        fail(q, "answer differs from BFS");
      }
      if (r.stats.rounds != 1 || r.stats.max_visits() != 1) {
        fail(q, "reachability took more than one round");
      }
    }
    if (spec.socket) {
      SyncTransport sync(sync_options);
      auto reference =
          EvaluateWorkload(*d.cluster, q, d.config.defaults, &sync);
      if (!reference.ok() || reference->answers != r.answers ||
          !SameContractStats(reference->stats, r.stats)) {
        fail(q, "socket RunStats differ from SyncTransport's");
      }
    }
  }
  v.wire_bytes_per_query = wire_bytes / static_cast<double>(queries.size());
  return v;
}

// ---- Host speed -------------------------------------------------------------

/// How slow the host runs, measured with fixed kernels of the benchmark's
/// own code, which no change to the program can move.
///
/// The host is a virtual machine on shared hardware. The speed of each of
/// its vCPUs drifts with the neighbours' load, by up to 1.8x over seconds
/// to minutes, in compute, memory latency and thread wake-ups alike. So
/// every timing metric is divided by the host's slowness around it and
/// reported at the reference speed: the speed at which the kernels take
/// their kReference* times. The kernels run between the measured segments,
/// while the program is idle, on as many threads as the workloads use. A
/// program that kept threads busy while idle would slow the kernels and so
/// flatter its own times; the traced run reports the factor itself
/// (bench.host_slowness), and every run prints its times as measured too.
class HostProbe {
 public:
  HostProbe()
      : threads_(std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4)),
        next_(kSlots) {
    // One random cycle through every slot (Sattolo's shuffle), the same in
    // every run.
    for (uint32_t i = 0; i < kSlots; ++i) next_[i] = i;
    Rng rng(0x9e3779b97f4a7c15ULL);
    for (uint32_t i = kSlots - 1; i > 0; --i) {
      std::swap(next_[i], next_[rng.NextBounded(i)]);
    }
  }

  /// Runs the three kernels once. 1 is the reference speed; 1.5 means they
  /// took half as long again.
  double Measure() const {
    const double chase = OnEveryThread([this](size_t t) { return Chase(t); });
    const double hash = OnEveryThread([](size_t t) { return Hash(t); });
    const double handoff = Handoff();
    return (chase / kReferenceChase + hash / kReferenceHash +
            handoff / kReferenceHandoff) /
           3;
  }

  /// The probe's table, resident for the whole run.
  double resident_mb() const {
    return static_cast<double>(next_.size() * sizeof(uint32_t)) /
           (1024.0 * 1024.0);
  }

 private:
  static constexpr uint32_t kSlots = 1u << 21;  // 8 MiB
  // Median seconds per thread on the 4-vCPU machine the bounds in
  // BENCHMARK.json were calibrated on (Intel Xeon, KVM).
  static constexpr double kReferenceChase = 0.025;
  static constexpr double kReferenceHash = 0.0085;
  static constexpr double kReferenceHandoff = 0.0045;

  /// Dependent loads around the cycle: memory latency.
  uint64_t Chase(size_t thread) const {
    uint32_t at = static_cast<uint32_t>(thread * (kSlots / threads_));
    uint64_t h = 0;
    for (uint32_t i = 0; i < (1u << 19); ++i) {
      at = next_[at];
      h = (h ^ at) * 0x100000001b3ULL;
      h ^= h >> 29;
    }
    return h;
  }

  /// A multiply-xor chain: integer throughput.
  static uint64_t Hash(size_t thread) {
    uint64_t h = thread;
    for (uint32_t i = 0; i < (1u << 22); ++i) {
      h = (h ^ i) * 0x100000001b3ULL;
      h ^= h >> 29;
    }
    return h;
  }

  /// Mean seconds per thread of `kernel`, run on every thread at once.
  double OnEveryThread(const std::function<uint64_t(size_t)>& kernel) const {
    std::vector<double> seconds(threads_);
    std::atomic<uint64_t> sink{0};
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads_; ++t) {
      workers.emplace_back([&, t] {
        const auto start = Clock::now();
        sink += kernel(t);
        seconds[t] = SecondsSince(start);
      });
    }
    for (std::thread& w : workers) w.join();
    double sum = 0;
    for (double s : seconds) sum += s;
    return sum / static_cast<double>(threads_);
  }

  /// Two threads passing a turn back and forth: wake-up latency.
  static double Handoff() {
    constexpr int kRounds = 400;
    std::mutex mu;
    std::condition_variable cv;
    bool theirs = false;
    const auto start = Clock::now();
    std::thread other([&] {
      for (int i = 0; i < kRounds; ++i) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return theirs; });
        theirs = false;
        cv.notify_all();
      }
    });
    for (int i = 0; i < kRounds; ++i) {
      std::unique_lock<std::mutex> lock(mu);
      theirs = true;
      cv.notify_all();
      cv.wait(lock, [&] { return !theirs; });
    }
    other.join();
    return SecondsSince(start);
  }

  size_t threads_;
  std::vector<uint32_t> next_;
};

// ---- Measured loops ---------------------------------------------------------

struct Outcome {
  bool ok = false;
  double seconds = 0;  ///< submit to answer; the answer check is not timed
  uint64_t checksum = 0;
  bool from_cache = false;
  double queue_seconds = 0;
  RunStats stats;
};

/// Evaluates query `index` of the workload.
using EvalFn = std::function<Outcome(size_t index)>;

struct Sample {
  double latency = 0;  ///< seconds, as measured
  double host = 1;     ///< the host's slowness around it (HostProbe)
  double queue = 0;    ///< QueryReport::queue_seconds
  bool from_cache = false;
};

struct Phase {
  std::vector<Sample> samples;  ///< successful, checked answers
  std::vector<RunStats> stats;  ///< of evaluated (not cached) answers
  uint64_t attempted = 0;
  uint64_t failed = 0;       ///< errors plus checksum mismatches
  double seconds = 0;        ///< start to last completion
  double host_seconds = 0;   ///< the same at the reference speed
  std::vector<double> hosts;  ///< the probes taken during the phase

  void Record(const Outcome& out, Sample sample, uint64_t expected,
              bool keep_stats) {
    ++attempted;
    if (!out.ok || out.checksum != expected) {
      ++failed;
      return;
    }
    samples.push_back(sample);
    if (keep_stats && !out.from_cache) stats.push_back(out.stats);
  }

  /// Sets the host's slowness of every sample.
  void AtHost(double host) {
    for (Sample& s : samples) s.host = host;
    host_seconds = seconds / host;
  }

  void Merge(Phase&& other) {
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    stats.insert(stats.end(), std::make_move_iterator(other.stats.begin()),
                 std::make_move_iterator(other.stats.end()));
    attempted += other.attempted;
    failed += other.failed;
    seconds += other.seconds;
    host_seconds += other.host_seconds;
  }
};

Outcome FromReport(QueryReport report, bool keep_stats) {
  Outcome out;
  out.ok = report.result.ok();
  if (out.ok) out.checksum = AnswerChecksum(report.result->answers);
  out.from_cache = report.served_from_cache;
  out.queue_seconds = report.queue_seconds;
  if (keep_stats) out.stats = std::move(report.stats);
  return out;
}

/// The order in which closed-loop clients issue queries. Most workloads
/// walk their distinct queries in turn, each client from its own offset.
/// serve-zipf draws them Zipf(1) by rank, from a seeded sequence per
/// client, and advances the data epoch every kEpochRequests requests over
/// all clients, starting with the first: the hit rate then depends on the
/// seed alone, not on how fast the host runs.
class QueryStream {
 public:
  QueryStream(const WorkloadSpec& spec, size_t query_count, uint64_t seed,
              Cluster* cluster)
      : query_count_(query_count),
        cluster_(spec.serving ? cluster : nullptr) {
    for (size_t c = 0; c < spec.clients; ++c) {
      cursor_.push_back(c * query_count / spec.clients);
      rngs_.emplace_back(seed * 0x9e3779b97f4a7c15ULL + c);
    }
    for (size_t rank = 1; rank <= query_count; ++rank) {
      weights_.push_back(1.0 / static_cast<double>(rank));
    }
  }

  /// The next query of `client`; called on that client's thread only.
  size_t Next(size_t client) {
    if (cluster_ == nullptr) return cursor_[client]++ % query_count_;
    if (requests_.fetch_add(1) % kEpochRequests == 0) {
      cluster_->AdvanceDataEpoch();
    }
    return rngs_[client].NextWeighted(weights_);
  }

 private:
  size_t query_count_;
  Cluster* cluster_;
  std::vector<size_t> cursor_;
  std::vector<Rng> rngs_;
  std::vector<double> weights_;
  std::atomic<uint64_t> requests_{0};
};

/// `clients` threads, each submitting its next query when the previous one
/// answered, until `seconds` have passed.
Phase RunClosedLoop(size_t clients, double seconds, QueryStream& stream,
                    const std::vector<uint64_t>& expected, const EvalFn& eval,
                    bool keep_stats) {
  std::vector<Phase> per_client(clients);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (Clock::now() < deadline) {
        const size_t q = stream.Next(c);
        Outcome out = eval(q);
        Sample sample;
        sample.latency = out.seconds;
        sample.queue = out.queue_seconds;
        sample.from_cache = out.from_cache;
        per_client[c].Record(out, sample, expected[q], keep_stats);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Phase phase;
  for (Phase& p : per_client) phase.Merge(std::move(p));
  phase.seconds = SecondsSince(start);
  phase.host_seconds = phase.seconds;
  return phase;
}

// ---- Metrics ----------------------------------------------------------------

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t i = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(i, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50); }

/// Returns freed heap to the kernel and restarts the peak-RSS counter, so
/// PeakRssMb() covers only what follows (earlier set-ups excluded).
void ResetPeakRss() {
  ::malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// This process's peak resident set since the last ResetPeakRss().
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< printed on the human line only
};

void Emit(const std::string& workload, const std::vector<Metric>& metrics,
          bool correct, uint64_t attempted, uint64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("%s.%s = %.6g %s%s\n", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str(), m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Latencies in seconds; at the reference host speed unless `measured`.
std::vector<double> Latencies(const Phase& phase, bool misses_only,
                              bool measured = false) {
  std::vector<double> out;
  for (const Sample& s : phase.samples) {
    if (!misses_only || !s.from_cache) {
      out.push_back(measured ? s.latency : s.latency / s.host);
    }
  }
  return out;
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

// ---- The run ----------------------------------------------------------------

/// Set-ups before and after the measured window; setup_s is their median.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 6;

/// The measured window runs in segments this long, with a host probe
/// between each two.
constexpr double kSegmentSeconds = 1.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_file;  ///< non-empty: the traced run
  bool quick = false;
  bool inject_mismatch = false;
  std::string work_dir = ".";
};

/// A run up to its measured window: set-ups, verification and warm-up.
struct Prepared {
  const WorkloadSpec* spec = nullptr;
  std::vector<std::string> queries;
  HostProbe probe;
  std::vector<SetupTimes> setups;
  std::unique_ptr<Deployment> d;  ///< the last set-up
  Verification verification;
  std::vector<uint64_t> expected;  ///< checksums the window compares with
  Phase warmup;
  double warmup_seconds = 0;

  /// `count` set-ups in a row, each timed between the host probes on either
  /// side of it; returns the last one. Each deployment is torn down, outside
  /// the timing, before the next set-up; `before_last` runs just before the
  /// last one.
  std::unique_ptr<Deployment> SetUps(const Args& args, int count,
                                     void (*before_last)() = nullptr) {
    std::unique_ptr<Deployment> last;
    double before = probe.Measure();
    for (int i = 0; i < count; ++i) {
      last.reset();
      if (i + 1 == count && before_last != nullptr) before_last();
      last = SetUp(*spec, args.seed, args.work_dir,
                   static_cast<int>(setups.size()), queries[0]);
      const double after = probe.Measure();
      last->times.host = (before + after) / 2;
      setups.push_back(last->times);
      before = after;
    }
    return last;
  }

  /// Set-ups after the window: repeating set-up on both sides of the window
  /// keeps a few seconds of host noise from moving the whole median.
  void SetUpAgain(const Args& args) {
    if (!args.quick) SetUps(args, kSetupsAfter);
  }

  /// Median over the set-ups of `field`, at the reference host speed.
  double SetupMedian(double (*field)(const SetupTimes&)) const {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(field(t) / t.host);
    return Median(v);
  }

  /// One query through the deployed Engine. With a trace buffer the query
  /// becomes one request.hit or request.miss span.
  Outcome Submit(size_t q, TraceBuffer* trace, bool keep_stats) const {
    static std::atomic<uint64_t> next_request{1};
    const int64_t start = NowNs();
    QueryReport report = d->engine->Submit(queries[q]).TakeReport();
    const int64_t end = NowNs();
    Outcome out = FromReport(std::move(report), keep_stats);
    out.seconds = static_cast<double>(end - start) / 1e9;
    if (trace != nullptr) {
      trace->Add({next_request++, 0,
                  out.from_cache ? "request.hit" : "request.miss", start,
                  end, ThreadIndex(), -1, -1});
    }
    return out;
  }

  /// The workload's closed loop through the Engine for `seconds`.
  Phase EngineLoop(double seconds, QueryStream& stream, TraceBuffer* trace,
                   bool keep_stats) const {
    return RunClosedLoop(
        spec->clients, seconds, stream, expected,
        [&](size_t q) { return Submit(q, trace, keep_stats); }, keep_stats);
  }

  /// The measured window: segments of about kSegmentSeconds with a host
  /// probe before each and after the last. A segment's samples carry the
  /// mean of the two probes around it.
  Phase Window(double seconds, uint64_t seed) {
    QueryStream stream(*spec, queries.size(), seed, d->cluster.get());
    const int segments =
        std::max(1, static_cast<int>(std::lround(seconds / kSegmentSeconds)));
    Phase window;
    window.hosts.push_back(probe.Measure());
    for (int i = 0; i < segments; ++i) {
      Phase segment = EngineLoop(seconds / segments, stream, nullptr, false);
      window.hosts.push_back(probe.Measure());
      segment.AtHost((window.hosts[i] + window.hosts[i + 1]) / 2);
      window.Merge(std::move(segment));
    }
    return window;
  }
};

Prepared Prepare(const WorkloadSpec& spec, const Args& args) {
  Prepared p;
  p.spec = &spec;
  p.queries = QueriesOf(spec, args.seed);
  p.d = p.SetUps(args, args.quick ? 1 : kSetupsBefore, ResetPeakRss);
  p.verification = Verify(spec, *p.d, p.queries);
  p.expected = p.verification.checksums;
  if (args.inject_mismatch) p.expected[0] ^= 1;

  const auto start = Clock::now();
  QueryStream stream(spec, p.queries.size(), args.seed + 1, p.d->cluster.get());
  p.warmup = p.EngineLoop(args.quick ? 0.2 : 1.0, stream, nullptr, false);
  p.warmup_seconds = SecondsSince(start);
  return p;
}

std::vector<Metric> EndToEndMetrics(Prepared& p, const Args& args,
                                    Phase* measured) {
  *measured = p.Window(args.seconds, args.seed + 2);
  p.d->Shutdown();
  const double peak_rss_mb =
      PeakRssMb() - p.probe.resident_mb() + p.d->peer_rss_mb;
  p.SetUpAgain(args);

  const std::vector<double> lat = Latencies(*measured, false);
  const std::vector<double> raw = Latencies(*measured, false, true);
  const std::string n = " (n=" + std::to_string(lat.size()) + ")";
  std::printf(
      "%s: host slowness %.3f (median of %zu probes); as measured: "
      "qps %.2f 1/s, latency mean %.4f ms, p50 %.4f ms, p90 %.4f ms, "
      "p99 %.4f ms\n",
      p.spec->name, Median(measured->hosts), measured->hosts.size(),
      static_cast<double>(raw.size()) / measured->seconds, 1e3 * Mean(raw),
      1e3 * Median(raw), 1e3 * Percentile(raw, 90), 1e3 * Percentile(raw, 99));
  return {
      {"setup_s", p.SetupMedian([](const SetupTimes& t) { return t.total(); }),
       "s", ""},
      {"qps", static_cast<double>(lat.size()) / measured->host_seconds, "1/s",
       ""},
      {"latency_mean_ms", 1e3 * Mean(lat), "ms", n},
      {"latency_p90_ms", 1e3 * Percentile(lat, 90), "ms", n},
      {"miss_latency_p50_ms", 1e3 * Median(Latencies(*measured, true)), "ms",
       ""},
      {"wire_bytes_per_query", p.verification.wire_bytes_per_query, "bytes",
       ""},
      {"peak_rss_mb", peak_rss_mb, "MB", ""},
  };
}

/// Transport-boundary counters of the traced half, summed over requests.
struct TraceTotals {
  std::atomic<uint64_t> send_calls{0};
  std::atomic<int64_t> send_ns{0};
  std::atomic<int64_t> seal_ns{0};
  std::atomic<int64_t> peer_ns{0};
  std::atomic<int64_t> evaluate_ns{0};
};

/// One query through EvaluateWorkload on `transport`, the primitive
/// Engine::Submit drives. With a trace buffer the call runs as one traced
/// request.
Outcome EvaluateDirect(const Prepared& p, size_t q, Transport* transport,
                       TraceBuffer* trace, TraceTotals* totals) {
  static std::atomic<uint64_t> next_request{1};
  RequestContext ctx;
  ctx.id = next_request++;
  const int64_t request_start = NowNs();
  if (trace != nullptr) CurrentRequest() = &ctx;
  const int64_t eval_start = NowNs();
  auto r = EvaluateWorkload(*p.d->cluster, p.queries[q], p.d->config.defaults,
                            transport);
  const int64_t eval_end = NowNs();
  CurrentRequest() = nullptr;
  Outcome out;
  out.ok = r.ok();
  out.seconds = static_cast<double>(eval_end - request_start) / 1e9;
  if (out.ok) {
    out.checksum = AnswerChecksum(r->answers);
    out.stats = std::move(r->stats);
  }
  if (trace != nullptr) {
    const uint32_t tid = ThreadIndex();
    trace->Add({ctx.id, 1, "core.evaluate", eval_start, eval_end, tid, -1, -1});
    trace->Add({ctx.id, 0, "request", request_start, NowNs(), tid, -1, -1});
    totals->send_calls += ctx.send_calls;
    totals->send_ns += ctx.send_ns;
    totals->seal_ns += ctx.seal_ns;
    totals->peer_ns += ctx.peer_ns;
    totals->evaluate_ns += eval_end - eval_start;
  }
  return out;
}

/// The closed loop over a plain transport, then over its tracing subclass.
template <typename T>
void TracedClosedLoop(Prepared& p, double half, uint64_t seed,
                      TraceBuffer* trace, TraceTotals* totals, Phase* plain,
                      Phase* traced, std::vector<double>* hosts) {
  auto loop = [&](Transport* t, TraceBuffer* buffer) {
    QueryStream stream(*p.spec, p.queries.size(), seed, nullptr);
    return RunClosedLoop(
        p.spec->clients, half, stream, p.expected,
        [&](size_t q) { return EvaluateDirect(p, q, t, buffer, totals); },
        buffer != nullptr);
  };
  const TransportOptions& options = p.d->transport_options;
  if constexpr (std::is_same_v<T, SocketTransport>) {
    {
      SocketTransport t(options);
      *plain = loop(&t, nullptr);
    }
    hosts->push_back(p.probe.Measure());
    TracingTransport<SocketTransport> t(trace, options);
    *traced = loop(&t, trace);
  } else {
    const auto pool = p.d->cluster->worker_pool();
    {
      PooledTransport t(pool, options);
      *plain = loop(&t, nullptr);
    }
    hosts->push_back(p.probe.Measure());
    TracingTransport<PooledTransport> t(trace, pool, options);
    *traced = loop(&t, trace);
  }
}

/// The traced run: an untraced half, then a traced half of the same loop,
/// with a host probe before, between and after them. Most workloads call
/// EvaluateWorkload directly on a plain and then a tracing transport;
/// serve-zipf keeps its Engine and traces request spans only.
std::vector<Metric> LayerMetrics(Prepared& p, const Args& args,
                                 Phase* measured, bool* ok) {
  const double half = args.seconds / 2;
  const WorkloadSpec& spec = *p.spec;
  Deployment& d = *p.d;
  TraceBuffer trace;
  TraceTotals totals;
  Phase plain;
  std::vector<double> queue;  // scheduler queue samples
  FragmentMemo::Stats memo_before{}, memo_after{};
  AnswerCache::Stats cache_before{}, cache_after{};

  double compile_us = 0;
  if (spec.family == Family::kXml) {
    // The side loop: compile cost per query, outside any request.
    constexpr int kReps = 200;
    const auto start = Clock::now();
    for (int r = 0; r < kReps; ++r) {
      for (const std::string& q : p.queries) {
        PAXML_CHECK(CompileXPath(q, d.doc->symbols()).ok());
      }
    }
    compile_us = 1e6 * SecondsSince(start) /
                 static_cast<double>(kReps * p.queries.size());
  }

  std::vector<double> hosts = {p.probe.Measure()};
  if (spec.serving) {
    {
      QueryStream stream(spec, p.queries.size(), args.seed + 2,
                         d.cluster.get());
      plain = p.EngineLoop(half, stream, nullptr, false);
    }
    hosts.push_back(p.probe.Measure());
    memo_before = d.memo->stats();
    cache_before = d.engine->answer_cache()->stats();
    QueryStream stream(spec, p.queries.size(), args.seed + 3, d.cluster.get());
    *measured = p.EngineLoop(half, stream, &trace, true);
    memo_after = d.memo->stats();
    cache_after = d.engine->answer_cache()->stats();
    for (const Sample& s : measured->samples) {
      if (!s.from_cache) queue.push_back(s.queue);
    }
  } else {
    // The Engine's queue samples come from the warm-up; the Engine then
    // closes, because a paxml_site serves one client at a time.
    for (const Sample& s : p.warmup.samples) queue.push_back(s.queue);
    d.engine.reset();
    if (spec.socket) {
      TracedClosedLoop<SocketTransport>(p, half, args.seed + 2, &trace,
                                        &totals, &plain, measured, &hosts);
    } else {
      TracedClosedLoop<PooledTransport>(p, half, args.seed + 2, &trace,
                                        &totals, &plain, measured, &hosts);
    }
  }
  hosts.push_back(p.probe.Measure());
  plain.AtHost((hosts[0] + hosts[1]) / 2);
  measured->AtHost((hosts[1] + hosts[2]) / 2);
  d.Shutdown();
  p.SetUpAgain(args);
  measured->attempted += plain.attempted;
  measured->failed += plain.failed;

  const std::vector<Span> spans = trace.Take();
  const LayerBreakdown layers = AnalyzeLayers(spans);
  PrintLayerTable(spec.name, layers);
  if (!WriteChromeTrace(args.trace_file, spans)) {
    std::fprintf(stderr, "paxml_bench: cannot write %s\n",
                 args.trace_file.c_str());
    *ok = false;
  }

  const double n = std::max<double>(1, measured->stats.size());
  const double req = std::max<double>(1, layers.requests);
  double rounds = 0, compute = 0, parallel = 0, coordinator = 0, bytes = 0,
         answer_bytes = 0, modeled = 0, messages = 0, envelopes = 0,
         wire_raw = 0, pool_tasks = 0, memo_saved = 0;
  uint64_t max_visits = 0, busy_peak = 0;
  for (const RunStats& s : measured->stats) {
    rounds += s.rounds;
    max_visits = std::max<uint64_t>(max_visits, s.max_visits());
    compute += s.total_compute_seconds;
    parallel += s.parallel_seconds;
    coordinator += s.coordinator_seconds;
    bytes += static_cast<double>(s.total_bytes);
    answer_bytes += static_cast<double>(s.answer_bytes);
    modeled += s.ElapsedSeconds();
    messages += static_cast<double>(s.total_messages);
    envelopes += static_cast<double>(s.total_envelopes);
    wire_raw += static_cast<double>(s.wire_raw_bytes);
    pool_tasks += static_cast<double>(s.pool_tasks);
    busy_peak = std::max(busy_peak, s.pool_busy_peak);
    memo_saved += s.memo_saved_seconds;
  }
  const double plain_mean = Mean(Latencies(plain, false));
  const double overhead =
      plain_mean > 0
          ? 100.0 * (Mean(Latencies(*measured, false)) / plain_mean - 1)
          : 0;
  std::vector<double> hit_latency;
  for (const Sample& s : measured->samples) {
    if (s.from_cache) hit_latency.push_back(s.latency);
  }
  const double requests = std::max<double>(1, measured->samples.size());
  const uint64_t memo_hits = memo_after.hits - memo_before.hits;
  const uint64_t memo_lookups =
      memo_hits + (memo_after.misses - memo_before.misses);
  const double deliver_ms = layers.covered_ms[3];
  const double modeled_parallel = parallel + coordinator;
  auto per_request = [req](const std::atomic<int64_t>& ns, double unit) {
    return static_cast<double>(ns.load()) / unit / req;
  };
  auto setup = [&p](double (*field)(const SetupTimes&)) {
    return p.SetupMedian(field);
  };

  return {
      {"xpath.compile_us", compile_us, "us", ""},
      {"core.rounds_per_query", rounds / n, "count", ""},
      {"core.max_visits", static_cast<double>(max_visits), "count", ""},
      {"core.site_compute_ms_per_query", 1e3 * compute / n, "ms", ""},
      {"core.parallel_ms_per_query", 1e3 * parallel / n, "ms", ""},
      {"core.coordinator_ms_per_query", 1e3 * coordinator / n, "ms", ""},
      {"core.total_bytes_per_query", bytes / n, "bytes", ""},
      {"core.answer_bytes_per_query", answer_bytes / n, "bytes", ""},
      {"core.modeled_elapsed_ms_per_query", 1e3 * modeled / n, "ms", ""},
      {"runtime.messages_per_query", messages / n, "count", ""},
      {"runtime.envelopes_per_query", envelopes / n, "count", ""},
      {"runtime.send_calls_per_query",
       static_cast<double>(totals.send_calls.load()) / req, "count", ""},
      {"runtime.send_us_per_query", per_request(totals.send_ns, 1e3), "us",
       ""},
      {"runtime.wire_raw_bytes_per_query", wire_raw / n, "bytes", ""},
      {"runtime.round_ms_per_query", layers.covered_ms[2], "ms", ""},
      {"runtime.round_overhead_ms_per_query", layers.self_ms[2], "ms", ""},
      {"runtime.outside_rounds_ms_per_query",
       spec.serving ? 0 : layers.self_ms[0] + layers.self_ms[1], "ms", ""},
      {"runtime.deliver_ms_per_query", deliver_ms, "ms", ""},
      {"runtime.site_overlap",
       deliver_ms > 0 ? layers.deliver_sum_ms / deliver_ms : 0, "ratio", ""},
      {"runtime.pool_tasks_per_query", pool_tasks / n, "count", ""},
      {"runtime.pool_busy_peak", static_cast<double>(busy_peak), "count", ""},
      {"runtime.wall_over_modeled",
       modeled_parallel > 0
           ? static_cast<double>(totals.evaluate_ns.load()) / 1e9 /
                 modeled_parallel
           : 0,
       "ratio", ""},
      {"runtime.socket.frame_seal_us_per_query",
       per_request(totals.seal_ns, 1e3), "us", ""},
      {"runtime.socket.peer_site_ms_per_query",
       per_request(totals.peer_ns, 1e6), "ms", ""},
      {"runtime.socket.peer_rss_mb", d.peer_rss_mb, "MB", ""},
      {"runtime.scheduler.queue_ms_p50", 1e3 * Median(queue), "ms", ""},
      {"runtime.scheduler.queue_ms_p99", 1e3 * Percentile(queue, 99), "ms",
       ""},
      {"serving.cache_hit_rate",
       spec.serving ? static_cast<double>(hit_latency.size()) / requests : 0,
       "ratio", ""},
      {"serving.coalesced_per_s",
       static_cast<double>(cache_after.coalesced - cache_before.coalesced) /
           measured->seconds,
       "1/s", ""},
      {"serving.memo_hit_rate",
       memo_lookups > 0 ? static_cast<double>(memo_hits) /
                              static_cast<double>(memo_lookups)
                        : 0,
       "ratio", ""},
      {"serving.memo_saved_ms_per_miss", 1e3 * memo_saved / n, "ms", ""},
      {"serving.hit_latency_p50_us", 1e6 * Median(hit_latency), "us", ""},
      {"setup.generate_s", setup([](const SetupTimes& t) { return t.generate; }),
       "s", ""},
      {"setup.fragment_s", setup([](const SetupTimes& t) { return t.fragment; }),
       "s", ""},
      {"setup.save_s", setup([](const SetupTimes& t) { return t.save; }), "s",
       ""},
      {"setup.spawn_s", setup([](const SetupTimes& t) { return t.spawn; }), "s",
       ""},
      {"setup.first_query_s",
       setup([](const SetupTimes& t) { return t.first_query; }), "s", ""},
      {"setup.warmup_s", p.warmup_seconds, "s", ""},
      {"bench.host_slowness", Median(hosts), "ratio", ""},
      {"trace.overhead_pct", overhead, "%", ""},
      {"trace.requests", static_cast<double>(layers.requests), "count", ""},
      {"trace.request_ms_per_query", layers.request_ms, "ms", ""},
      {"trace.self.request_ms_per_query", layers.self_ms[0], "ms", ""},
      {"trace.self.core_evaluate_ms_per_query", layers.self_ms[1], "ms", ""},
      {"trace.layer_sum_error_pct", layers.self_sum_error_pct, "%", ""},
  };
}

int Run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "paxml_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf(
      "%s: config scale=%g sites=%zu clients=%zu depth=%zu site_threads=%zu "
      "split_pct=%llu serving=%d seed=%llu seconds=%g\n",
      spec->name, spec->scale, spec->sites, spec->clients, spec->depth,
      spec->site_threads, static_cast<unsigned long long>(spec->split_pct),
      spec->serving ? 1 : 0, static_cast<unsigned long long>(args.seed),
      args.seconds);

  Prepared p = Prepare(*spec, args);
  bool correct = p.verification.ok;
  Phase measured;
  const std::vector<Metric> metrics =
      args.trace_file.empty() ? EndToEndMetrics(p, args, &measured)
                              : LayerMetrics(p, args, &measured, &correct);
  const uint64_t attempted =
      p.queries.size() + p.warmup.attempted + measured.attempted;
  const uint64_t failed = p.warmup.failed + measured.failed;
  if (failed != 0) correct = false;
  if (!correct) {
    std::fprintf(stderr,
                 "paxml_bench: %s FAILED: %llu of %llu queries failed or "
                 "mismatched%s\n",
                 spec->name, static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted),
                 p.verification.ok ? "" : ", verification failed");
  }
  Emit(spec->name, metrics, correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace paxml::perf

int main(int argc, char** argv) {
  using paxml::perf::Args;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "paxml_bench: %s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      args.trace_file = value();
    } else if (flag == "--work-dir") {
      args.work_dir = value();
    } else if (flag == "--quick") {
      args.quick = true;
    } else if (flag == "--inject-mismatch") {
      args.inject_mismatch = true;
    } else {
      std::fprintf(stderr, "paxml_bench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || !(args.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: paxml_bench --workload W [--seed S] [--seconds T] "
                 "[--trace FILE] [--quick] [--inject-mismatch] "
                 "[--work-dir DIR]\n");
    return 2;
  }
  return paxml::perf::Run(args);
}
