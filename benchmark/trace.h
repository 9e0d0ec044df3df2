// The benchmark's traced run: spans recorded around the calls the benchmark
// makes into each layer, from the benchmark's own code.
//
// A request is one query. Its spans nest by depth:
//
//   0 request          the client's query, answer check included
//   1 core.evaluate    EvaluateWorkload — compile, coordinator, assembly
//   2 runtime.round    Transport::RunRound, one per coordinator round
//   3 runtime.deliver  one site's delivery inside a round; a socket peer's
//                      reported seconds become a synthetic
//                      runtime.deliver.remote span at the same depth
//
// TracingTransport<Base> is a subclass of a real backend whose overrides
// time the base call and hand it through unchanged, so the traced run
// executes the same library code as the untraced one. Send and stream
// calls are not spans: each request counts them and sums their time.
//
// A layer's self time is the part of the request covered by spans of its
// depth but by no deeper span. Because every deeper span lies inside the
// request, the self times of all layers add up to the request's duration.

#ifndef PAXML_BENCHMARK_TRACE_H_
#define PAXML_BENCHMARK_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/socket_transport.h"
#include "runtime/transport.h"

namespace paxml::perf {

/// Span depths: request, core.evaluate, runtime.round, runtime.deliver.
inline constexpr int kLayers = 4;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Small dense id of the calling thread, for the trace's tid field.
uint32_t ThreadIndex();

struct Span {
  uint64_t request = 0;
  int depth = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t tid = 0;
  int32_t site = -1;
  int32_t round = -1;
};

/// What one request accumulates at the transport boundary. The seal
/// counter is written under the transport's lock, so everything here is
/// atomic.
struct RequestContext {
  uint64_t id = 0;
  int rounds = 0;  ///< RunRound calls so far (coordinator thread only)
  std::atomic<uint64_t> send_calls{0};
  std::atomic<int64_t> send_ns{0};
  std::atomic<int64_t> seal_ns{0};
  std::atomic<int64_t> peer_ns{0};
};

/// The request the calling thread works for (null outside a request).
RequestContext*& CurrentRequest();

/// In-memory span store; written out once, when the run ends.
class TraceBuffer {
 public:
  void Add(const Span& span);
  std::vector<Span> Take();

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Writes `spans` as Chrome trace-event JSON.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

/// Per-request means of the layer split (milliseconds).
struct LayerBreakdown {
  size_t requests = 0;
  double request_ms = 0;
  double covered_ms[kLayers] = {};  ///< time under a span of depth >= d
  double self_ms[kLayers] = {};
  double deliver_sum_ms = 0;        ///< deliver spans summed, overlap counted
  double self_sum_error_pct = 0;    ///< |sum(self) - request| / request
};

LayerBreakdown AnalyzeLayers(const std::vector<Span>& spans);

/// Prints the per-layer table (total and self time per query).
void PrintLayerTable(const std::string& workload, const LayerBreakdown& b);

template <typename Base>
class TracingTransport : public Base {
 public:
  template <typename... Args>
  explicit TracingTransport(TraceBuffer* trace, Args&&... args)
      : Base(std::forward<Args>(args)...), trace_(trace) {}

  void Send(Envelope env) override {
    Timed([&] { Base::Send(std::move(env)); });
  }
  void StreamBegin(Envelope head) override {
    Timed([&] { Base::StreamBegin(std::move(head)); });
  }
  void StreamAppend(RunId run, SiteId from, SiteId to, std::string_view bytes,
                    uint64_t logical_bytes, uint64_t phantom_bytes) override {
    Timed([&] {
      Base::StreamAppend(run, from, to, bytes, logical_bytes, phantom_bytes);
    });
  }
  void StreamEnd(RunId run, SiteId from, SiteId to) override {
    Timed([&] { Base::StreamEnd(run, from, to); });
  }

  Status RunRound(RunId run, const std::vector<SiteId>& sites,
                  const Transport::DeliverFn& deliver,
                  std::vector<double>* durations) override {
    RequestContext* ctx = CurrentRequest();
    const uint64_t id = ctx != nullptr ? ctx->id : 0;
    const int round = ctx != nullptr ? ctx->rounds++ : -1;
    TraceBuffer* trace = trace_;
    const Transport::DeliverFn traced = [&deliver, ctx, id, round, trace](
                                            SiteId site,
                                            std::vector<Envelope> mail) {
      RequestContext* outer = CurrentRequest();
      CurrentRequest() = ctx;
      const int64_t start = NowNs();
      deliver(site, std::move(mail));
      const int64_t end = NowNs();
      CurrentRequest() = outer;
      trace->Add({id, 3, "runtime.deliver", start, end, ThreadIndex(), site,
                  round});
    };
    const int64_t start = NowNs();
    Status status = Base::RunRound(run, sites, traced, durations);
    const int64_t end = NowNs();
    trace_->Add({id, 2, "runtime.round", start, end, ThreadIndex(), -1, round});
    if constexpr (std::is_base_of_v<SocketTransport, Base>) {
      for (size_t i = 0; i < sites.size(); ++i) {
        if (!this->remote(sites[i])) continue;
        const int64_t ns = static_cast<int64_t>((*durations)[i] * 1e9);
        // Peers report only their delivery seconds; the span starts with
        // the round, when the round-start records went out.
        trace_->Add({id, 3, "runtime.deliver.remote", start, start + ns,
                     1000u + static_cast<uint32_t>(sites[i]), sites[i],
                     round});
        if (ctx != nullptr) ctx->peer_ns += ns;
      }
    }
    return status;
  }

 protected:
  // Runs under Transport::mu_: touches only atomics.
  bool TakeSealedFrameLocked(Frame& frame, FrameWireInfo* wire) override {
    const int64_t start = NowNs();
    const bool taken = Base::TakeSealedFrameLocked(frame, wire);
    const int64_t ns = NowNs() - start;
    if (RequestContext* ctx = CurrentRequest()) ctx->seal_ns += ns;
    return taken;
  }

 private:
  template <typename F>
  void Timed(F&& call) {
    const int64_t start = NowNs();
    call();
    if (RequestContext* ctx = CurrentRequest()) {
      ctx->send_calls += 1;
      ctx->send_ns += NowNs() - start;
    }
  }

  TraceBuffer* trace_;
};

}  // namespace paxml::perf

#endif  // PAXML_BENCHMARK_TRACE_H_
