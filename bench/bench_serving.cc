// Serving-layer benchmark: an open-loop query front-end over the FT2
// fixture, measuring what the answer cache and the fragment-stage memo
// (src/serving/, DESIGN.md §12) buy under realistic traffic.
//
// Traffic is open-loop — arrivals follow a fixed schedule whether or not
// earlier queries finished, so queueing shows up in the latency numbers the
// way a client would see it: ~160 Poisson arrivals (a few ms mean gap) plus
// a 40-arrival burst of the hottest query mid-run (a stampede; with the
// cache on it coalesces into at most one evaluation). The query mix is
// Zipf-skewed over four hot queries (the paper's Q1-Q4) and eight cold
// ones, drawn with a fixed seed so every mode replays the identical
// schedule.
//
// Three modes over the same schedule:
//   cold   serving layer off — every arrival runs the full protocol;
//   memo   fragment-stage memo on — repeated queries replay per-fragment
//          partial answers; accounted stats and answers are unchanged
//          (asserted) and the saved site compute is reported;
//   cache  answer cache on — repeats are served in zero rounds and zero
//          wire bytes, concurrent repeats single-flight.
//
// The cluster realizes the NetworkCostModel as wall-clock round delay
// (ClusterOptions::simulated_network), the regime a serving tier lives in:
// rounds are latency-bound, so a cache hit's zero rounds translate directly
// into client latency. Gated (PAXML_CHECK): answers identical across all
// three modes per arrival; cache hit rate nonzero; hot-query mean latency
// >= 10x lower with the cache on; cache-mode p99 under the deadline
// (PAXML_SERVING_DEADLINE_MS, default 500); memo fragment hits nonzero.
//
// Machine-readable results land in BENCH_serving.json.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "harness.h"
#include "xmark/queries.h"

namespace paxml::bench {
namespace {

double DeadlineMs() {
  if (const char* env = std::getenv("PAXML_SERVING_DEADLINE_MS")) {
    return std::max(1.0, std::atof(env));
  }
  return 500.0;
}

/// The mix: four hot queries (Zipf-skewed) and eight cold ones. Cold
/// queries still repeat a handful of times each — a realistic tail, and it
/// keeps the cache's cold-side behaviour measurable.
std::vector<std::string> QueryMix() {
  return {
      // Hot: the paper's experiment queries, ranks 1..4.
      xmark::kQ1,
      xmark::kQ2,
      xmark::kQ3,
      xmark::kQ4,
      // Cold tail.
      "/sites/site/regions//item",
      "/sites/site/open_auctions/open_auction",
      "/sites/site/closed_auctions//annotation",
      "/sites/site/people/person/address/country",
      "/sites//regions/namerica",
      "/sites/site/categories",
      "/sites/site/people/person[address/country = \"US\"]",
      "/sites//open_auctions//annotation",
  };
}

constexpr size_t kHotQueries = 4;

struct Arrival {
  double at_seconds = 0;  ///< offset from the schedule's start
  size_t query = 0;       ///< index into QueryMix()
};

/// ~160 Poisson arrivals with `mean_gap` expected spacing, Zipf(1/rank)
/// over the full mix, plus a 40-arrival burst of the hottest query
/// injected mid-run. Deterministic in `seed`.
std::vector<Arrival> Schedule(size_t arrivals, size_t burst, double mean_gap,
                              uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights;
  for (size_t rank = 1; rank <= QueryMix().size(); ++rank) {
    weights.push_back(1.0 / static_cast<double>(rank));
  }

  std::vector<Arrival> schedule;
  schedule.reserve(arrivals + burst);
  double t = 0;
  for (size_t i = 0; i < arrivals; ++i) {
    t += -mean_gap * std::log(1.0 - rng.NextDouble());
    schedule.push_back({t, rng.NextWeighted(weights)});
  }
  // The stampede: everyone asks the top query at once, halfway through.
  const double burst_at = t / 2;
  for (size_t i = 0; i < burst; ++i) {
    schedule.push_back({burst_at, 0});
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Arrival& a, const Arrival& b) {
              return a.at_seconds < b.at_seconds;
            });
  return schedule;
}

enum class Mode { kCold, kMemo, kCache };

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kCold: return "cold";
    case Mode::kMemo: return "memo";
    case Mode::kCache: return "cache";
  }
  return "?";
}

struct ModeMeasurement {
  double wall_seconds = 0;
  double p50 = 0, p95 = 0, p99 = 0;
  double hot_mean = 0;   ///< mean submit-to-answer latency, hot arrivals
  double cold_mean = 0;  ///< same, cold arrivals
  uint64_t cache_hits = 0;
  uint64_t coalesced = 0;
  uint64_t evaluations = 0;  ///< arrivals that actually ran the protocol
  double cache_hit_rate = 0;
  uint64_t memo_fragment_hits = 0;
  uint64_t memo_saved_bytes = 0;
  double memo_saved_seconds = 0;
  std::vector<std::vector<GlobalNodeId>> answers;  ///< per arrival
};

/// `sorted` must be ascending.
double Percentile(const std::vector<double>& sorted, double p) {
  PAXML_CHECK(!sorted.empty());
  const size_t idx = std::min(
      sorted.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted.size())));
  return sorted[idx];
}

/// Replays the schedule open-loop against one engine configuration:
/// arrivals are submitted at their scheduled instants regardless of
/// completions, latency is submit-to-answer (queue wait included).
ModeMeasurement RunMode(const Cluster& cluster, Mode mode,
                        const std::vector<Arrival>& schedule) {
  const std::vector<std::string> mix = QueryMix();

  EngineConfig config;
  config.depth = 4;
  config.transport = TransportKind::kPooled;
  config.defaults.algorithm = DistributedAlgorithm::kPaX2;
  if (mode == Mode::kCache) config.serving.answer_cache = true;
  if (mode == Mode::kMemo) {
    config.serving.fragment_memo = std::make_shared<FragmentMemo>();
  }
  Engine engine(cluster, config);

  const auto start = std::chrono::steady_clock::now();
  std::vector<QueryHandle> handles;
  handles.reserve(schedule.size());
  for (const Arrival& a : schedule) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(a.at_seconds)));
    handles.push_back(engine.Submit(mix[a.query]));
  }

  ModeMeasurement m;
  std::vector<double> latencies;
  latencies.reserve(schedule.size());
  double hot_total = 0, cold_total = 0;
  size_t hot_count = 0, cold_count = 0;
  for (size_t i = 0; i < handles.size(); ++i) {
    QueryReport report = handles[i].TakeReport();
    PAXML_CHECK(report.result.ok());
    if (report.served_from_cache) {
      // The acceptance property, asserted on live traffic: a serving-layer
      // hit costs nothing on the wire.
      PAXML_CHECK_EQ(report.rounds, 0);
      PAXML_CHECK_EQ(report.stats.total_bytes, 0u);
      PAXML_CHECK_EQ(report.stats.wire_bytes, 0u);
      PAXML_CHECK_EQ(report.stats.total_messages, 0u);
    } else {
      ++m.evaluations;
      m.memo_fragment_hits += report.stats.memo_fragment_hits;
      m.memo_saved_bytes += report.stats.memo_saved_bytes;
      m.memo_saved_seconds += report.stats.memo_saved_seconds;
    }
    latencies.push_back(report.latency_seconds);
    if (schedule[i].query < kHotQueries) {
      hot_total += report.latency_seconds;
      ++hot_count;
    } else {
      cold_total += report.latency_seconds;
      ++cold_count;
    }
    m.answers.push_back(std::move(report.result->answers));
  }
  m.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  m.hot_mean = hot_total / static_cast<double>(hot_count);
  m.cold_mean = cold_total / static_cast<double>(cold_count);
  std::sort(latencies.begin(), latencies.end());
  m.p50 = Percentile(latencies, 0.50);
  m.p95 = Percentile(latencies, 0.95);
  m.p99 = Percentile(latencies, 0.99);
  if (engine.answer_cache() != nullptr) {
    const AnswerCache::Stats stats = engine.answer_cache()->stats();
    m.cache_hits = stats.hits;
    m.coalesced = stats.coalesced;
    m.cache_hit_rate = static_cast<double>(stats.hits + stats.coalesced) /
                       static_cast<double>(schedule.size());
  }
  return m;
}

void Main() {
  // FT2's ten fragments on the paper's four machines, with the modeled LAN
  // realized as wall delay: the serving tier's regime (rounds are
  // latency-bound, so saved rounds are saved client latency).
  Workload w = MakeFT2Paper(/*scale=*/0.5);
  NetworkCostModel net;
  net.latency_seconds = 0.001;
  ClusterOptions copts;
  copts.parallel_execution = true;
  copts.simulated_network = net;
  Cluster cluster(w.doc, 4, copts);
  PlaceFT2Paper(cluster);

  const std::vector<Arrival> schedule =
      Schedule(/*arrivals=*/160, /*burst=*/40, /*mean_gap=*/0.004,
               /*seed=*/2007);
  const double deadline_ms = DeadlineMs();

  std::printf(
      "bench_serving: %zu open-loop arrivals (%zu-query Zipf mix, 40-deep "
      "stampede) over FT2 on 4 machines; deadline %.0f ms\n",
      schedule.size(), QueryMix().size(), deadline_ms);

  TablePrinter table({"mode", "wall-s", "evals", "p50-lat-s", "p95-lat-s",
                      "p99-lat-s", "hot-mean-s", "hit-rate"});
  std::vector<std::pair<Mode, ModeMeasurement>> results;
  for (Mode mode : {Mode::kCold, Mode::kMemo, Mode::kCache}) {
    ModeMeasurement m = RunMode(cluster, mode, schedule);
    table.AddRow({ModeName(mode), Secs(m.wall_seconds),
                  std::to_string(m.evaluations), Secs(m.p50), Secs(m.p95),
                  Secs(m.p99), Secs(m.hot_mean),
                  StringFormat("%.2f", m.cache_hit_rate)});
    if (!results.empty()) {
      // The serving layer must never change an answer.
      PAXML_CHECK(m.answers == results.front().second.answers);
    }
    results.emplace_back(mode, std::move(m));
  }

  const ModeMeasurement& cold = results[0].second;
  const ModeMeasurement& memo = results[1].second;
  const ModeMeasurement& cache = results[2].second;

  // The gates this artifact exists to hold (CI smoke runs them at reps=1).
  PAXML_CHECK_GT(cache.cache_hit_rate, 0.0);
  PAXML_CHECK_LT(cache.p99 * 1000.0, deadline_ms);
  const double hot_speedup = cold.hot_mean / cache.hot_mean;
  PAXML_CHECK_GE(hot_speedup, 10.0);
  PAXML_CHECK_GT(memo.memo_fragment_hits, 0u);

  std::printf(
      "(gated: answers identical across modes; cache hit rate %.2f > 0; "
      "cache p99 %.1f ms under the %.0f ms deadline; hot-query mean %.2fx "
      "lower with the cache on; %llu memo fragment hits saved %.4fs site "
      "compute.)\n",
      cache.cache_hit_rate, cache.p99 * 1000.0, deadline_ms, hot_speedup,
      static_cast<unsigned long long>(memo.memo_fragment_hits),
      memo.memo_saved_seconds);

  JsonValue modes = JsonValue::Array();
  for (const auto& [mode, m] : results) {
    modes.Add(JsonValue::Object()
                  .Set("mode", ModeName(mode))
                  .Set("wall_seconds", m.wall_seconds)
                  .Set("evaluations", m.evaluations)
                  .Set("p50_latency_seconds", m.p50)
                  .Set("p95_latency_seconds", m.p95)
                  .Set("p99_latency_seconds", m.p99)
                  .Set("hot_mean_latency_seconds", m.hot_mean)
                  .Set("cold_mean_latency_seconds", m.cold_mean)
                  .Set("cache_hits", m.cache_hits)
                  .Set("coalesced", m.coalesced)
                  .Set("cache_hit_rate", m.cache_hit_rate)
                  .Set("memo_fragment_hits", m.memo_fragment_hits)
                  .Set("memo_saved_bytes", m.memo_saved_bytes)
                  .Set("memo_saved_seconds", m.memo_saved_seconds));
  }
  EmitBenchJson("BENCH_serving.json",
                BenchJsonHeader("serving")
                    .Set("arrivals", schedule.size())
                    .Set("burst", size_t{40})
                    .Set("hot_queries", kHotQueries)
                    .Set("cold_queries", QueryMix().size() - kHotQueries)
                    .Set("deadline_ms", deadline_ms)
                    .Set("hot_speedup_cache_vs_cold", hot_speedup)
                    .Set("modes", std::move(modes)));
}

}  // namespace
}  // namespace paxml::bench

int main() { paxml::bench::Main(); }
