#include "runtime/site_driver.h"

#include <time.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "runtime/worker_pool.h"
#include "sim/cluster.h"

namespace paxml {

namespace {

/// The capture plane of one parallel lane: handlers send through it exactly
/// as through the real transport, but every envelope is recorded instead of
/// staged, to be replayed into the real plane in serial mail order after
/// the lanes join. Batching is off so an EnvelopeStream takes its buffered
/// path and Close() emits one whole envelope — PR 4's guarantee that the
/// chunks concatenate to the exact monolithic encoding is what makes the
/// replayed envelope byte-identical to the serially staged one. Unshared:
/// one capture per lane task, so no locking beyond the base class's.
class CaptureTransport : public Transport {
 public:
  explicit CaptureTransport(TransportOptions real)
      : Transport(Captured(std::move(real))) {}

  void Send(Envelope env) override { sent_.push_back(std::move(env)); }

  Status RunRound(RunId, const std::vector<SiteId>&, const DeliverFn&,
                  std::vector<double>*) override {
    return Status::Internal("the capture plane has no delivery rounds");
  }
  const char* name() const override { return "capture"; }

  /// The envelopes sent since the last take, in send order.
  std::vector<Envelope> TakeSent() {
    std::vector<Envelope> out = std::move(sent_);
    sent_.clear();
    return out;
  }

 private:
  static TransportOptions Captured(TransportOptions options) {
    // Batching off is what the capture plane needs: EnvelopeStream then
    // buffers each streamed envelope and Sends it whole, so every send is
    // one envelope to record. The replay target owns framing, flushing and
    // the remote plane.
    options.batching = false;
    options.remote_endpoints.clear();
    options.site_threads = 1;
    return options;
  }

  std::vector<Envelope> sent_;
};

/// The lane an envelope belongs to: fragment f when every part is a
/// site-side kind consistently addressed to f, else kNullFragment — a
/// *barrier* delivered serially in place. Up-messages, query/data ships and
/// mixed-fragment envelopes are conservatively barriers: their handlers
/// touch cross-fragment state (unifier, answer assembly) or carry no
/// fragment routing. The frame codec wires part.fragment for every kind,
/// so lanes survive the socket hop unchanged.
FragmentId EnvelopeLane(const Envelope& env) {
  FragmentId lane = kNullFragment;
  for (const WirePart& part : env.parts) {
    switch (part.kind) {
      case MessageKind::kQualRequest:
      case MessageKind::kSelRequest:
      case MessageKind::kAnswerRequest:
      case MessageKind::kDataRequest:
      case MessageKind::kQualDown:
      case MessageKind::kSelDown:
      case MessageKind::kReachRequest:
        break;
      default:
        return kNullFragment;
    }
    if (part.fragment == kNullFragment) return kNullFragment;
    if (lane == kNullFragment) {
      lane = part.fragment;
    } else if (lane != part.fragment) {
      return kNullFragment;
    }
  }
  return lane;
}

/// CPU time consumed by the calling thread. Lane tasks measure themselves
/// with this so that an oversubscribed host (fewer cores than lanes) still
/// reports each lane's own work, not the time it spent descheduled —
/// max-over-lanes then models the fan-out the way max-over-sites models
/// the multi-machine cluster (sim/cluster.h).
double ThreadCpuSeconds() {
  timespec ts;
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU time of `fn` on the calling thread, added to *seconds. CPU (not
/// wall) everywhere keeps the serial and parallel measurements comparable:
/// on a host where concurrent site deliveries interleave on few cores,
/// wall time would charge a site for time it spent descheduled.
template <typename Fn>
Status Timed(double* seconds, Fn&& fn) {
  const double start = ThreadCpuSeconds();
  Status status = fn();
  *seconds += ThreadCpuSeconds() - start;
  return status;
}

/// Dispatches the first `count` parts of `env` into `handlers`, in order.
Status DispatchParts(MessageHandlers* handlers, SiteContext& ctx,
                     const Envelope& env, size_t count) {
  for (size_t p = 0; p < count; ++p) {
    PAXML_RETURN_NOT_OK(handlers->OnPart(ctx, env, env.parts[p]));
  }
  return Status::OK();
}

/// Dispatches every part of `mail` into `handlers`, in order; stops at the
/// first error.
Status DispatchMail(MessageHandlers* handlers, SiteContext& ctx,
                    const std::vector<Envelope>& mail) {
  for (const Envelope& env : mail) {
    PAXML_RETURN_NOT_OK(DispatchParts(handlers, ctx, env, env.parts.size()));
  }
  return Status::OK();
}

}  // namespace

/// One lane segment in delivery: its mail and, indexed like the mail, each
/// envelope's status and the sends to replay for it. Each slot is written
/// by exactly one task.
struct SiteDriver::Segment {
  std::vector<Envelope>* mail;
  std::vector<Status> statuses;
  std::vector<std::vector<Envelope>> sends;
};

SiteDriver::SiteDriver(const Cluster* cluster, Transport* transport, RunId run,
                       MessageHandlers* handlers,
                       std::shared_ptr<WorkerPool> pool, size_t site_threads,
                       std::shared_ptr<MemoSession> memo)
    : cluster_(cluster),
      transport_(transport),
      run_(run),
      handlers_(handlers),
      pool_(std::move(pool)),
      site_threads_(site_threads),
      memo_(std::move(memo)) {
  contexts_.reserve(cluster->site_count());
  for (size_t s = 0; s < cluster->site_count(); ++s) {
    contexts_.emplace_back(static_cast<SiteId>(s), cluster, transport, run);
  }
}

Status SiteDriver::Deliver(SiteId site, std::vector<Envelope> mail) {
  PAXML_CHECK_LT(static_cast<size_t>(site), contexts_.size());
  return DispatchMail(handlers_, contexts_[static_cast<size_t>(site)], mail);
}

Status SiteDriver::DeliverTimed(SiteId site, std::vector<Envelope> mail,
                                DeliveryReport* report) {
  PAXML_CHECK_LT(static_cast<size_t>(site), contexts_.size());
  *report = DeliveryReport{};
  double* seconds = &report->seconds;
  SiteContext& ctx = contexts_[static_cast<size_t>(site)];
  // The serial fast path: no memo to consult and nothing to fan out. A
  // single envelope is still worth walking when splitting is on — the
  // one-hot-fragment round is exactly one big request envelope.
  const bool fan_out = pool_ != nullptr && site_threads_ > 1;
  const size_t min_mail =
      transport_->options().split_threshold_pct > 0 ? 1 : 2;
  if (memo_ == nullptr && (!fan_out || mail.size() < min_mail)) {
    return Timed(seconds, [&] { return DispatchMail(handlers_, ctx, mail); });
  }
  // Walk the mail in order: maximal runs of lane-keyed envelopes are
  // segments; barriers split them and run serially in place.
  size_t i = 0;
  while (i < mail.size()) {
    if (EnvelopeLane(mail[i]) == kNullFragment) {
      const Envelope& env = mail[i];
      PAXML_RETURN_NOT_OK(Timed(seconds, [&] {
        return DispatchParts(handlers_, ctx, env, env.parts.size());
      }));
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < mail.size() && EnvelopeLane(mail[j]) != kNullFragment) ++j;
    std::vector<Envelope> segment(std::make_move_iterator(mail.begin() + i),
                                  std::make_move_iterator(mail.begin() + j));
    PAXML_RETURN_NOT_OK(DeliverSegment(site, &segment, report));
    i = j;
  }
  return Status::OK();
}

Status SiteDriver::DeliverSegment(SiteId site, std::vector<Envelope>* mail,
                                  DeliveryReport* report) {
  double* seconds = &report->seconds;
  const size_t n = mail->size();
  // Group the envelope indices by lane, lanes in order of first appearance
  // (deterministic, so the lane -> task assignment is too). Only a segment
  // that may fan out needs the lanes.
  std::vector<std::vector<size_t>> lanes;
  if (pool_ != nullptr && site_threads_ > 1) {
    std::map<FragmentId, size_t> lane_of;
    for (size_t k = 0; k < n; ++k) {
      auto [it, inserted] = lane_of.emplace(EnvelopeLane((*mail)[k]),
                                            lanes.size());
      if (inserted) lanes.emplace_back();
      lanes[it->second].push_back(k);
    }
  }

  // Split heuristic (DESIGN.md §14): the largest lane by byte weight
  // splits when it carries at least split_threshold_pct of the segment,
  // holds a single envelope, and the algorithm can actually split its
  // request (MakeSplitTask non-null with >= 2 items). Building the task is
  // the visitor pass — serial work, measured as such. A memo entry is one
  // whole lane delivery, so a run with a memo session never splits.
  std::unique_ptr<SplitTask> split;
  size_t hot_index = n;
  const uint64_t split_pct = transport_->options().split_threshold_pct;
  if (memo_ == nullptr && split_pct > 0 && !lanes.empty()) {
    std::vector<uint64_t> weight(lanes.size(), 0);
    uint64_t total = 0;
    for (size_t l = 0; l < lanes.size(); ++l) {
      for (size_t k : lanes[l]) {
        // +64 per envelope keeps tiny request lanes comparable by count.
        weight[l] += (*mail)[k].WireBytes() + 64;
      }
      total += weight[l];
    }
    const size_t hot = static_cast<size_t>(
        std::max_element(weight.begin(), weight.end()) - weight.begin());
    if (weight[hot] * 100 >= split_pct * total && lanes[hot].size() == 1) {
      const size_t k = lanes[hot][0];
      const Envelope& env = (*mail)[k];
      (void)Timed(seconds, [&] {
        if (!env.parts.empty()) {
          split = handlers_->MakeSplitTask(env, env.parts.back());
        }
        return Status::OK();
      });
      if (split != nullptr && split->item_count() >= 2) {
        hot_index = k;
        lanes.erase(lanes.begin() + static_cast<ptrdiff_t>(hot));
      } else {
        split.reset();  // the lane path evaluates it like any other
      }
    }
  }

  if (memo_ == nullptr && split == nullptr && lanes.size() < 2) {
    // One fragment, no memo, nothing to split: the serial walk straight
    // into the real plane (no capture, no replay).
    return Timed(seconds, [&] {
      return DispatchMail(handlers_, contexts_[static_cast<size_t>(site)],
                          *mail);
    });
  }

  // The lane tasks: lanes merged round-robin to at most site_threads;
  // sorting each task's indices restores mail order, so same-lane
  // envelopes still mutate their fragment's state in serial order. A
  // segment that was not grouped (no fan-out) is one task.
  std::vector<std::vector<size_t>> assignment;
  if (!lanes.empty()) {
    assignment.resize(std::min(site_threads_, lanes.size()));
    for (size_t l = 0; l < lanes.size(); ++l) {
      auto& dst = assignment[l % assignment.size()];
      dst.insert(dst.end(), lanes[l].begin(), lanes[l].end());
    }
    for (auto& indices : assignment) std::sort(indices.begin(), indices.end());
  } else if (split == nullptr) {
    assignment.emplace_back(n);
    std::iota(assignment[0].begin(), assignment[0].end(), size_t{0});
  }

  Segment segment{mail, std::vector<Status>(n),
                  std::vector<std::vector<Envelope>>(n)};

  // The hot lane's context: pre-parts (down-messages riding ahead of the
  // request in its envelope) dispatch into it serially before the batch,
  // Finish() emits into it after the batch joins. With cold lanes beside
  // it, it captures like they do; as the whole segment it sends straight
  // into the real plane.
  std::optional<CaptureTransport> hot_capture;
  std::optional<SiteContext> hot_ctx;
  size_t chunk_count = 0;
  if (split != nullptr) {
    Transport* sink = transport_;
    if (!assignment.empty()) sink = &hot_capture.emplace(transport_->options());
    hot_ctx.emplace(site, cluster_, sink, run_);
    const Envelope& env = (*mail)[hot_index];
    segment.statuses[hot_index] = Timed(seconds, [&] {
      return DispatchParts(handlers_, *hot_ctx, env, env.parts.size() - 1);
    });
    if (segment.statuses[hot_index].ok()) {
      chunk_count = std::min(site_threads_, split->item_count());
    }
  }

  // One batch for everything: the lane tasks and the hot lane's item
  // chunks run interleaved on the same pool, so the segment costs
  // max-over-all-tasks, not lanes-then-split. A single task runs inline.
  const size_t task_count = assignment.size() + chunk_count;
  std::vector<double> task_seconds(task_count, 0);
  std::vector<MemoSavings> task_saved(assignment.size());
  auto run_lane = [&](size_t t) {
    const double start = ThreadCpuSeconds();
    DeliverLane(site, assignment[t], &segment, &task_saved[t]);
    task_seconds[t] = ThreadCpuSeconds() - start;
  };
  if (task_count == 1 && chunk_count == 0) {
    run_lane(0);
  } else if (task_count > 0) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(task_count);
    for (size_t t = 0; t < assignment.size(); ++t) {
      tasks.push_back([&run_lane, t] { run_lane(t); });
    }
    SplitTask* split_raw = split.get();
    for (size_t c = 0; c < chunk_count; ++c) {
      tasks.push_back([split_raw, c, chunk_count, slot = assignment.size() + c,
                       &task_seconds] {
        const double start = ThreadCpuSeconds();
        const size_t items = split_raw->item_count();
        for (size_t item = c; item < items; item += chunk_count) {
          split_raw->RunItem(item);
        }
        task_seconds[slot] = ThreadCpuSeconds() - start;
      });
    }
    pool_->RunAll(std::move(tasks));
    // The peaks are pool-global gauges (the pool may be shared with other
    // runs); tasks are exact for this delivery. Sampling after each batch
    // keeps the gauges current without touching the pool's hot path.
    report->pool += PoolStats{task_count, pool_->busy_peak(),
                              pool_->queue_peak()};
  }
  for (const MemoSavings& saved : task_saved) report->memo += saved;
  if (task_count > 0) {
    // The segment costs what its slowest task costs — measured as that
    // task's own CPU time, so the metric holds on oversubscribed hosts.
    *seconds += *std::max_element(task_seconds.begin(), task_seconds.end());
  }
  if (split != nullptr && segment.statuses[hot_index].ok()) {
    segment.statuses[hot_index] =
        Timed(seconds, [&] { return split->Finish(*hot_ctx); });
  }
  if (hot_capture) segment.sends[hot_index] = hot_capture->TakeSent();

  // Replay into the real plane in serial mail order: staging order, seal
  // points and frame sequences come out bit-identical to the serial
  // delivery. On error, replay stops after the first failing envelope's
  // partial sends — exactly what the serial order would have sent.
  size_t stop = n;
  for (size_t k = 0; k < n; ++k) {
    if (!segment.statuses[k].ok()) {
      stop = k;
      break;
    }
  }
  (void)Timed(seconds, [&] {
    for (size_t k = 0; k < n && k <= stop; ++k) {
      for (Envelope& env : segment.sends[k]) transport_->Send(std::move(env));
    }
    return Status::OK();
  });
  return stop == n ? Status::OK() : segment.statuses[stop];
}

void SiteDriver::DeliverLane(SiteId site, const std::vector<size_t>& indices,
                             Segment* segment, MemoSavings* saved) {
  // The lane's capture plane, built on its first evaluation: a lane the
  // memo serves in full builds none.
  std::optional<CaptureTransport> capture;
  std::optional<SiteContext> ctx;
  auto evaluate = [&](const Envelope& env) {
    if (!capture) {
      capture.emplace(transport_->options());
      ctx.emplace(site, cluster_, &*capture, run_);
    }
    return DispatchParts(handlers_, *ctx, env, env.parts.size());
  };
  for (size_t k : indices) {
    const Envelope& env = (*segment->mail)[k];
    Status& status = segment->statuses[k];
    std::vector<Envelope>& sends = segment->sends[k];
    if (memo_ == nullptr) {
      status = evaluate(env);
      sends = capture->TakeSent();
      if (!status.ok()) break;  // a failed lane stops, like serial
      continue;
    }
    const FragmentId fragment = EnvelopeLane(env);
    std::vector<Envelope> recover;
    if (memo_->Lookup(fragment, env, &sends, &recover, saved)) {
      // Hit: the recorded replies are this envelope's sends, so staging
      // order, seal points and every accounted counter come out
      // bit-identical to an evaluated delivery.
      for (Envelope& reply : sends) reply.run = run_;
      continue;
    }
    // First divergence of this fragment after memo-served steps: its
    // handler state was never built this run. Re-deliver the served
    // request prefix to rebuild it, discarding the sends — the replies
    // were already replayed at the hits.
    for (Envelope& request : recover) {
      request.run = run_;
      status = evaluate(request);
      (void)capture->TakeSent();
      if (!status.ok()) break;
    }
    if (!status.ok()) break;
    // Evaluate and record, measuring the handler's own CPU as the entry's
    // cost.
    const double start = ThreadCpuSeconds();
    status = evaluate(env);
    const double cost = ThreadCpuSeconds() - start;
    sends = capture->TakeSent();
    if (!status.ok()) break;
    memo_->Record(fragment, env, sends, cost);
  }
}

}  // namespace paxml
