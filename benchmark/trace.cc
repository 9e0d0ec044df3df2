#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace paxml::perf {
namespace {

using Interval = std::pair<int64_t, int64_t>;

constexpr const char* kLayerNames[kLayers] = {
    "request", "core.evaluate", "runtime.round", "runtime.deliver"};

/// Length of the union of `intervals` clipped to [lo, hi].
int64_t UnionLength(std::vector<Interval> intervals, int64_t lo, int64_t hi) {
  for (Interval& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = -1;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.second <= iv.first) continue;
    if (open && iv.first <= cur_end) {
      cur_end = std::max(cur_end, iv.second);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = iv.first;
    cur_end = iv.second;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t index = next++;
  return index;
}

RequestContext*& CurrentRequest() {
  thread_local RequestContext* current = nullptr;
  return current;
}

void TraceBuffer::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> TraceBuffer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans.empty() ? 0 : std::min_element(
      spans.begin(), spans.end(), [](const Span& a, const Span& b) {
        return a.start_ns < b.start_ns;
      })->start_ns;
  std::fputs("{\"traceEvents\": [\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"paxml\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"request\": %llu, \"round\": %d, \"site\": %d}}%s\n",
                 s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                 static_cast<unsigned long long>(s.request), s.round, s.site,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("], \"displayTimeUnit\": \"ms\"}\n", f);
  return std::fclose(f) == 0;
}

LayerBreakdown AnalyzeLayers(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<const Span*>> by_request;
  for (const Span& s : spans) by_request[s.request].push_back(&s);

  LayerBreakdown b;
  double error_sum = 0;
  for (const auto& [id, list] : by_request) {
    const Span* root = nullptr;
    for (const Span* s : list) {
      if (s->depth == 0) root = s;
    }
    if (root == nullptr) continue;  // spans outside a traced request
    const int64_t lo = root->start_ns;
    const int64_t hi = root->end_ns;
    int64_t covered[kLayers + 1] = {};
    for (int d = 0; d < kLayers; ++d) {
      std::vector<Interval> deeper;
      for (const Span* s : list) {
        if (s->depth >= d) deeper.push_back({s->start_ns, s->end_ns});
      }
      covered[d] = UnionLength(std::move(deeper), lo, hi);
    }
    double self_sum = 0;
    for (int d = 0; d < kLayers; ++d) {
      const double self = static_cast<double>(covered[d] - covered[d + 1]);
      b.covered_ms[d] += static_cast<double>(covered[d]) / 1e6;
      b.self_ms[d] += self / 1e6;
      self_sum += self;
    }
    for (const Span* s : list) {
      if (s->depth == kLayers - 1) {
        b.deliver_sum_ms +=
            static_cast<double>(std::min(s->end_ns, hi) -
                                std::max(s->start_ns, lo)) / 1e6;
      }
    }
    const double request = static_cast<double>(hi - lo);
    b.request_ms += request / 1e6;
    if (request > 0) error_sum += std::fabs(self_sum - request) / request;
    ++b.requests;
  }
  if (b.requests == 0) return b;
  const double n = static_cast<double>(b.requests);
  b.request_ms /= n;
  b.deliver_sum_ms /= n;
  for (int d = 0; d < kLayers; ++d) {
    b.covered_ms[d] /= n;
    b.self_ms[d] /= n;
  }
  b.self_sum_error_pct = 100.0 * error_sum / n;
  return b;
}

void PrintLayerTable(const std::string& workload, const LayerBreakdown& b) {
  std::printf("%s: traced layer split over %zu requests (ms per query)\n",
              workload.c_str(), b.requests);
  std::printf("  %-18s %10s %10s %7s\n", "layer", "total", "self", "share");
  double self_sum = 0;
  for (int d = 0; d < kLayers; ++d) {
    self_sum += b.self_ms[d];
    std::printf("  %-18s %10.4f %10.4f %6.1f%%\n", kLayerNames[d],
                b.covered_ms[d], b.self_ms[d],
                b.request_ms > 0 ? 100.0 * b.self_ms[d] / b.request_ms : 0.0);
  }
  std::printf("  %-18s %10.4f %10.4f\n", "sum of self", b.request_ms,
              self_sum);
}

}  // namespace paxml::perf
