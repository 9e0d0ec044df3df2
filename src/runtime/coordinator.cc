#include "runtime/coordinator.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "common/logging.h"
#include "serving/fingerprint.h"
#include "serving/fragment_memo.h"
#include "sim/cluster.h"

namespace paxml {

Coordinator::Coordinator(const Cluster* cluster, Transport* transport,
                         MessageHandlers* handlers, RunControl* control,
                         const RunSpec* spec)
    : cluster_(cluster), transport_(transport), control_(control) {
  stats_.per_site.resize(cluster->site_count());
  run_ = transport_->OpenRun(cluster, &stats_, spec);
  // site_threads > 1 turns on intra-site parallel delivery, on the
  // cluster's *site* pool — distinct from worker_pool(), which executes the
  // pooled backend's per-site round tasks (nesting one pool's RunAll inside
  // its own workers would deadlock; WorkerPool checks for it).
  const size_t site_threads = transport->options().site_threads;
  // A fragment memo on the transport gives the driver a memo session:
  // the session pins this run's (fingerprint, epoch) so entries recorded
  // under other queries or older data are never replayed into it. Needs a
  // spec — an anonymous run has no fingerprint to share under.
  std::shared_ptr<MemoSession> memo;
  const auto& shared_memo = transport->options().fragment_memo;
  if (shared_memo != nullptr && spec != nullptr) {
    memo = std::make_shared<MemoSession>(shared_memo, RunFingerprint(*spec),
                                         cluster->data_epoch());
  }
  driver_.emplace(cluster, transport, run_, handlers,
                  site_threads > 1 ? cluster->site_worker_pool() : nullptr,
                  site_threads, std::move(memo));
}

Coordinator::~Coordinator() {
  transport_->CloseRun(run_);
  // Aborted runs (cancel, deadline, protocol error) never reach TakeStats;
  // the snapshot lets the session layer report the rounds they did run.
  if (control_ != nullptr) control_->PublishStats(stats_);
}

SiteId Coordinator::query_site() const { return cluster_->query_site(); }

void Coordinator::Post(Envelope env) {
  env.from = query_site();
  env.run = run_;
  transport_->Send(std::move(env));
}

Status Coordinator::RunRound(const std::string& label,
                             const std::vector<SiteId>& sites) {
  (void)label;
  // The cancellation boundary: a cancelled or deadline-expired run refuses
  // to start another round and unwinds via the ordinary Status path. Mail
  // already posted for this round is discarded by CloseRun.
  if (control_ != nullptr) PAXML_RETURN_NOT_OK(control_->Check());
  // A stage pruned down to no participants is not a round: nothing is
  // visited, nothing can reply. Counting it inflated reported round counts.
  if (sites.empty()) return Status::OK();
  ++stats_.rounds;

  Status round_status = Status::OK();
  std::mutex status_mu;
  std::vector<double> durations;
  // Each locally delivered site's DeliveryReport, indexed like `sites`.
  // Remote sites stay empty: their cost comes back as the transport's
  // duration (a socket peer's RoundDone report, itself a DeliverTimed
  // measurement) and the socket transport folds the rest of their reports
  // into RunStats itself.
  std::map<SiteId, size_t> site_index;
  for (size_t i = 0; i < sites.size(); ++i) site_index[sites[i]] = i;
  std::vector<std::optional<DeliveryReport>> local(sites.size());
  // Transport-level failures (a dead socket peer, a remote handler error)
  // come back as the round's status; local handler errors are collected
  // through the deliver callback as before.
  Status transport_status = transport_->RunRound(
      run_, sites,
      [&](SiteId site, std::vector<Envelope> mail) {
        // Site-side round mail: per-fragment lanes may fan out on the site
        // pool. The coordinator's own up-mail (DispatchCoordinatorMail)
        // stays on the strictly serial Deliver path.
        DeliveryReport report;
        Status st = driver_->DeliverTimed(site, std::move(mail), &report);
        local[site_index.at(site)] = report;
        if (!st.ok()) {
          std::lock_guard<std::mutex> lock(status_mu);
          if (round_status.ok()) round_status = std::move(st);
        }
      },
      &durations);

  double round_max = 0;
  for (size_t i = 0; i < sites.size(); ++i) {
    SiteStats& s = stats_.per_site[static_cast<size_t>(sites[i])];
    ++s.visits;
    const double seconds = local[i] ? local[i]->seconds : durations[i];
    s.compute_seconds += seconds;
    stats_.total_compute_seconds += seconds;
    round_max = std::max(round_max, seconds);
    if (local[i]) local[i]->AddTo(&stats_);
  }
  stats_.parallel_seconds += round_max;

  PAXML_RETURN_NOT_OK(round_status);
  PAXML_RETURN_NOT_OK(transport_status);
  PAXML_RETURN_NOT_OK(DispatchCoordinatorMail());
  // The round's traffic is fully accounted (every frame it produced sealed
  // during the snapshot or the coordinator drain): publish progress before
  // sleeping out any modeled delay, so clients polling the handle see the
  // round as soon as it logically completed.
  if (control_ != nullptr) {
    control_->PublishProgress({stats_.rounds, stats_.total_messages,
                               stats_.total_envelopes, stats_.total_bytes});
  }
  // Don't sleep out a modeled network delay for a run that was cancelled
  // while the round was in flight: report promptly instead.
  if (control_ != nullptr) PAXML_RETURN_NOT_OK(control_->Check());
  RealizeNetworkDelay();
  return Status::OK();
}

Status Coordinator::DispatchCoordinatorMail() {
  const SiteId sq = query_site();
  const auto start = std::chrono::steady_clock::now();
  Status status = Status::OK();
  while (status.ok() && transport_->HasMail(run_, sq)) {
    std::vector<Envelope> mail = transport_->Drain(run_, sq);
    // Pooled workers interleave arrivals from different senders; per-sender
    // order is already sequential, so a stable sort by sender restores one
    // deterministic processing order across backends.
    std::stable_sort(mail.begin(), mail.end(),
                     [](const Envelope& a, const Envelope& b) {
                       return a.from < b.from;
                     });
    status = driver_->Deliver(sq, std::move(mail));
  }
  const auto end = std::chrono::steady_clock::now();
  stats_.coordinator_seconds +=
      std::chrono::duration<double>(end - start).count();
  return status;
}

void Coordinator::RealizeNetworkDelay() {
  const auto& model = cluster_->options().simulated_network;
  if (!model.has_value()) return;
  // Reading stats_ without the transport lock is safe here: the round has
  // completed, so every Send that contributed has happened-before this
  // point (via the round's completion latch or the sequential backend).
  const uint64_t messages = stats_.total_messages;
  const uint64_t bytes = stats_.total_bytes;
  const double seconds = model->TransferSeconds(messages - delayed_messages_,
                                                bytes - delayed_bytes_);
  delayed_messages_ = messages;
  delayed_bytes_ = bytes;
  if (seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

void Coordinator::RunLocal(const std::function<void()>& work) {
  const auto start = std::chrono::steady_clock::now();
  work();
  const auto end = std::chrono::steady_clock::now();
  stats_.coordinator_seconds +=
      std::chrono::duration<double>(end - start).count();
}

std::vector<SiteId> Coordinator::SitesOf(
    const std::vector<FragmentId>& fragments) const {
  std::vector<SiteId> sites;
  sites.reserve(fragments.size());
  for (FragmentId f : fragments) sites.push_back(cluster_->site_of(f));
  std::sort(sites.begin(), sites.end());
  sites.erase(std::unique(sites.begin(), sites.end()), sites.end());
  return sites;
}

std::vector<SiteId> Coordinator::AllSites() const {
  std::vector<FragmentId> all;
  all.reserve(cluster_->fragment_count());
  for (size_t f = 0; f < cluster_->fragment_count(); ++f) {
    all.push_back(static_cast<FragmentId>(f));
  }
  return SitesOf(all);
}

}  // namespace paxml
