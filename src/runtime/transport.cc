#include "runtime/transport.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "runtime/frame.h"
#include "runtime/socket_transport.h"
#include "runtime/wire.h"
#include "runtime/worker_pool.h"
#include "sim/cluster.h"

namespace paxml {

const char* MessageKindName(MessageKind kind) {
  switch (kind) {
    case MessageKind::kQueryShip: return "query-ship";
    case MessageKind::kQualRequest: return "qual-request";
    case MessageKind::kSelRequest: return "sel-request";
    case MessageKind::kAnswerRequest: return "answer-request";
    case MessageKind::kDataRequest: return "data-request";
    case MessageKind::kQualUp: return "qual-up";
    case MessageKind::kSelUp: return "sel-up";
    case MessageKind::kAnswerUp: return "answer-up";
    case MessageKind::kQualDown: return "qual-down";
    case MessageKind::kSelDown: return "sel-down";
    case MessageKind::kDataShip: return "data-ship";
    case MessageKind::kReachRequest: return "reach-request";
    case MessageKind::kReachUp: return "reach-up";
  }
  return "?";
}

uint64_t Envelope::WireBytes() const {
  uint64_t bytes = phantom_bytes;
  for (const WirePart& p : parts) {
    if (p.accounted) bytes += p.LogicalSize();
  }
  return bytes;
}

void AppendPartBytes(WirePart& part, std::string_view bytes, uint64_t logical) {
  // Materialize the running logical total the first time it diverges from
  // bytes.size(); from then on every append maintains it explicitly.
  if (part.logical_bytes == 0 && logical != bytes.size()) {
    part.logical_bytes = part.bytes.size();
  }
  if (part.logical_bytes != 0) part.logical_bytes += logical;
  part.bytes.append(bytes);
}

Transport::RunBinding& Transport::BindingLocked(RunId run) {
  auto it = runs_.find(run);
  PAXML_CHECK(it != runs_.end());  // envelope or round for a run not open
  return it->second;
}

const Transport::RunBinding& Transport::BindingLocked(RunId run) const {
  auto it = runs_.find(run);
  PAXML_CHECK(it != runs_.end());  // envelope or round for a run not open
  return it->second;
}

bool Transport::HasPendingMailLocked(const RunBinding& binding) {
  for (const auto& box : binding.mailboxes) {
    if (!box.empty()) return true;
  }
  for (const auto& [edge, staged] : binding.staging) {
    if (!staged.envelopes.empty()) return true;
  }
  return false;
}

RunId Transport::OpenRun(const Cluster* cluster, RunStats* stats,
                         const RunSpec* spec) {
  RunId run = kNullRun;
  {
    std::lock_guard<std::mutex> lock(mu_);
    run = next_run_id_++;
    RunBinding& binding = runs_[run];
    binding.stats = stats;
    binding.mailboxes.assign(cluster->site_count(), {});
  }
  RunOpened(run, cluster, spec);
  return run;
}

void Transport::CloseRun(RunId run) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = runs_.find(run);
    PAXML_CHECK(it != runs_.end());
    runs_.erase(it);
  }
  RunClosing(run);
}

bool Transport::TakeSealedFrameLocked(Frame& frame, FrameWireInfo* wire) {
  (void)frame;
  (void)wire;
  return false;
}

void Transport::RunOpened(RunId run, const Cluster* cluster,
                          const RunSpec* spec) {
  (void)run;
  (void)cluster;
  (void)spec;
}

void Transport::RunClosing(RunId run) { (void)run; }

void Transport::AccountMemoSavings(RunId run, const MemoSavings& savings) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = runs_.find(run);
  if (it == runs_.end()) return;  // races CloseRun like late remote mail
  RunStats* stats = it->second.stats;
  stats->memo_fragment_hits += savings.fragment_hits;
  stats->memo_saved_bytes += savings.saved_bytes;
  stats->memo_saved_seconds += savings.saved_seconds;
}

void Transport::AccountPoolStats(RunId run, const PoolStats& pool) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = runs_.find(run);
  if (it == runs_.end()) return;  // races CloseRun like late remote mail
  RunStats* stats = it->second.stats;
  stats->pool_tasks += pool.tasks;
  stats->pool_busy_peak = std::max(stats->pool_busy_peak, pool.busy_peak);
  stats->pool_queue_peak = std::max(stats->pool_queue_peak, pool.queue_peak);
}

void Transport::Send(Envelope env) {
  PAXML_CHECK(env.run != kNullRun);  // Post/SiteContext stamp the run id
  PAXML_CHECK(env.to != kNullSite);
  std::lock_guard<std::mutex> lock(mu_);
  RunBinding& binding = BindingLocked(env.run);
  PAXML_CHECK_LT(static_cast<size_t>(env.to), binding.mailboxes.size());
  // Local delivery is free and immediate: co-located fragments exchange no
  // network bytes (the query site holds the root fragment by assumption),
  // so there is nothing to frame either.
  const bool local = env.from == env.to && env.from != kNullSite;
  if (options_.batching && !local) {
    const RunId run = env.run;
    const EdgeKey edge{env.from, env.to};
    StagedEdge& staged = binding.staging[edge];
    PAXML_CHECK(!staged.stream_open);  // close the stream before more mail
    staged.staged_bytes += env.WireBytes();
    staged.envelopes.push_back(std::move(env));
    MaybeFlushEdgeLocked(run, binding, edge);
    return;
  }
  if (env.accounted && !local) {
    AccountEnvelopeBytes(env, binding.stats);
    RunStats* stats = binding.stats;
    ++stats->total_messages;
    if (env.from != kNullSite) {
      ++stats->per_site[static_cast<size_t>(env.from)].messages_sent;
    }
    ++stats->per_site[static_cast<size_t>(env.to)].messages_received;
    ++stats->edges[{env.from, env.to}].messages;
  }
  binding.mailboxes[static_cast<size_t>(env.to)].push_back(std::move(env));
}

void Transport::StreamBegin(Envelope head) {
  PAXML_CHECK(options_.batching);
  PAXML_CHECK(head.run != kNullRun);
  PAXML_CHECK(head.to != kNullSite);
  PAXML_CHECK(!head.parts.empty());  // the part StreamAppend extends
  const bool local = head.from == head.to && head.from != kNullSite;
  PAXML_CHECK(!local);  // EnvelopeStream buffers local shipments itself
  std::lock_guard<std::mutex> lock(mu_);
  RunBinding& binding = BindingLocked(head.run);
  PAXML_CHECK_LT(static_cast<size_t>(head.to), binding.mailboxes.size());
  StagedEdge& staged = binding.staging[{head.from, head.to}];
  PAXML_CHECK(!staged.stream_open);  // one open stream per (run, edge)
  staged.staged_bytes += head.WireBytes();
  staged.envelopes.push_back(std::move(head));
  staged.stream_open = true;
}

void Transport::StreamAppend(RunId run, SiteId from, SiteId to,
                             std::string_view bytes, uint64_t logical_bytes,
                             uint64_t phantom_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  RunBinding& binding = BindingLocked(run);
  auto it = binding.staging.find({from, to});
  PAXML_CHECK(it != binding.staging.end() && it->second.stream_open);
  Envelope& env = it->second.envelopes.back();
  AppendPartBytes(env.parts.back(), bytes, logical_bytes);
  env.phantom_bytes += phantom_bytes;
  if (env.parts.back().accounted) {
    it->second.staged_bytes += logical_bytes;
  }
  it->second.staged_bytes += phantom_bytes;
}

void Transport::StreamEnd(RunId run, SiteId from, SiteId to) {
  std::lock_guard<std::mutex> lock(mu_);
  RunBinding& binding = BindingLocked(run);
  auto it = binding.staging.find({from, to});
  PAXML_CHECK(it != binding.staging.end() && it->second.stream_open);
  it->second.stream_open = false;
  // The stream may have grown the edge past the adaptive-flush threshold;
  // now that it is closed the frame is free to seal.
  MaybeFlushEdgeLocked(run, binding, {from, to});
}

void Transport::SealEdgeLocked(RunId run, RunBinding& binding,
                               const EdgeKey& edge, StagedEdge&& staged) {
  // A frame must never seal around a half-written stream; streams are
  // scoped inside one site handler, which completes before any round
  // boundary of its run.
  PAXML_CHECK(!staged.stream_open);
  if (staged.envelopes.empty()) return;
  Frame frame;
  frame.run = run;
  frame.from = edge.first;
  frame.to = edge.second;
  frame.sequence = binding.next_frame_sequence[edge]++;
  frame.envelopes = std::move(staged.envelopes);
  // Hook first: a socket backend encodes the frame for its peer and
  // reports the record's size; the in-process default accounts the same
  // size without encoding, so every backend accounts the same numbers.
  FrameWireInfo wire;
  const bool taken = TakeSealedFrameLocked(frame, &wire);
  if (!taken) wire.bytes = frame.EncodedSize();
  AccountFrameWire(frame, binding.stats, wire);
  if (taken) return;  // bound for a peer's wire
  auto& box = binding.mailboxes[static_cast<size_t>(edge.second)];
  for (Envelope& env : frame.envelopes) box.push_back(std::move(env));
}

void Transport::MaybeFlushEdgeLocked(RunId run, RunBinding& binding,
                                     const EdgeKey& edge) {
  if (options_.max_frame_bytes == 0) return;
  auto it = binding.staging.find(edge);
  if (it == binding.staging.end() || it->second.stream_open) return;
  if (it->second.staged_bytes <= options_.max_frame_bytes) return;
  SealEdgeLocked(run, binding, edge, std::move(it->second));
  binding.staging.erase(it);
}

void Transport::FlushRunLocked(RunId run, RunBinding& binding) {
  // Ordered map: frames seal lowest (from, to) first, so mailbox order is
  // deterministic across backends.
  for (auto& [edge, staged] : binding.staging) {
    SealEdgeLocked(run, binding, edge, std::move(staged));
  }
  binding.staging.clear();
}

void Transport::FlushToSiteLocked(RunId run, RunBinding& binding,
                                  SiteId site) {
  for (auto it = binding.staging.begin(); it != binding.staging.end();) {
    if (it->first.second == site) {
      SealEdgeLocked(run, binding, it->first, std::move(it->second));
      it = binding.staging.erase(it);
    } else {
      ++it;
    }
  }
}

void Transport::FlushRun(RunId run) {
  std::lock_guard<std::mutex> lock(mu_);
  FlushRunLocked(run, BindingLocked(run));
}

Status Transport::InjectFrame(Frame frame, FrameWireInfo wire) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = runs_.find(frame.run);
  // Mail for a run that has since closed legitimately races CloseRun (an
  // abandoned protocol's replies may still be in flight): drop it.
  if (it == runs_.end()) return Status::OK();
  RunBinding& binding = it->second;
  // Wire input: validate the ids before accounting would PAXML_CHECK.
  if (frame.to < 0 ||
      static_cast<size_t>(frame.to) >= binding.mailboxes.size()) {
    return Status::ParseError("frame: destination site out of range");
  }
  if (frame.from != kNullSite &&
      static_cast<size_t>(frame.from) >= binding.mailboxes.size()) {
    return Status::ParseError("frame: source site out of range");
  }
  AccountFrameWire(frame, binding.stats, wire);
  FrameWireInfo relay_unused;
  if (TakeSealedFrameLocked(frame, &relay_unused)) {
    return Status::OK();  // relay onward
  }
  auto& box = binding.mailboxes[static_cast<size_t>(frame.to)];
  for (Envelope& env : frame.envelopes) box.push_back(std::move(env));
  return Status::OK();
}

std::vector<Envelope> Transport::Drain(RunId run, SiteId site) {
  std::lock_guard<std::mutex> lock(mu_);
  RunBinding& binding = BindingLocked(run);
  PAXML_CHECK_LT(static_cast<size_t>(site), binding.mailboxes.size());
  FlushToSiteLocked(run, binding, site);
  std::vector<Envelope> mail;
  mail.swap(binding.mailboxes[static_cast<size_t>(site)]);
  return mail;
}

bool Transport::HasMail(RunId run, SiteId site) const {
  std::lock_guard<std::mutex> lock(mu_);
  const RunBinding& binding = BindingLocked(run);
  PAXML_CHECK_LT(static_cast<size_t>(site), binding.mailboxes.size());
  if (!binding.mailboxes[static_cast<size_t>(site)].empty()) return true;
  for (const auto& [edge, staged] : binding.staging) {
    if (edge.second == site && !staged.envelopes.empty()) return true;
  }
  return false;
}

bool Transport::HasPendingMail(RunId run) const {
  std::lock_guard<std::mutex> lock(mu_);
  return HasPendingMailLocked(BindingLocked(run));
}

size_t Transport::open_run_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_.size();
}

std::vector<std::vector<Envelope>> Transport::SnapshotInboxes(
    RunId run, const std::vector<SiteId>& sites) {
  std::lock_guard<std::mutex> lock(mu_);
  RunBinding& binding = BindingLocked(run);
  // The round boundary: every edge the run staged since the last boundary
  // seals and is accounted now, before the snapshot, so the round sees the
  // full pre-round traffic (destinations outside `sites` keep the sealed
  // mail in their boxes for a later round or drain).
  FlushRunLocked(run, binding);
  std::vector<std::vector<Envelope>> inboxes;
  inboxes.reserve(sites.size());
  for (SiteId s : sites) {
    PAXML_CHECK_LT(static_cast<size_t>(s), binding.mailboxes.size());
    std::vector<Envelope> mail;
    mail.swap(binding.mailboxes[static_cast<size_t>(s)]);
    inboxes.push_back(std::move(mail));
  }
  return inboxes;
}

double TimedDeliver(const Transport::DeliverFn& deliver, SiteId site,
                    std::vector<Envelope> mail) {
  const auto start = std::chrono::steady_clock::now();
  deliver(site, std::move(mail));
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

// ---- SyncTransport ----------------------------------------------------------

Status SyncTransport::RunRound(RunId run, const std::vector<SiteId>& sites,
                               const DeliverFn& deliver,
                               std::vector<double>* durations) {
  durations->assign(sites.size(), 0);
  std::vector<std::vector<Envelope>> inboxes = SnapshotInboxes(run, sites);
  for (size_t i = 0; i < sites.size(); ++i) {
    (*durations)[i] = TimedDeliver(deliver, sites[i], std::move(inboxes[i]));
  }
  return Status::OK();
}

// ---- PooledTransport --------------------------------------------------------

PooledTransport::PooledTransport(std::shared_ptr<WorkerPool> pool,
                                 TransportOptions options)
    : Transport(options),
      pool_(pool ? std::move(pool) : std::make_shared<WorkerPool>()) {}

PooledTransport::PooledTransport(size_t workers, TransportOptions options)
    : Transport(options), pool_(std::make_shared<WorkerPool>(workers)) {}

size_t PooledTransport::worker_count() const { return pool_->worker_count(); }

Status PooledTransport::RunRound(RunId run, const std::vector<SiteId>& sites,
                                 const DeliverFn& deliver,
                                 std::vector<double>* durations) {
  durations->assign(sites.size(), 0);
  if (sites.empty()) return Status::OK();
  // shared_ptr keeps the per-site mail copyable for std::function.
  auto inboxes = std::make_shared<std::vector<std::vector<Envelope>>>(
      SnapshotInboxes(run, sites));

  // One task per site: a site's mail is processed by exactly one worker, so
  // per-fragment state needs no locking in the algorithm handlers. RunAll
  // blocks on this round's private latch, so concurrent rounds of other
  // runs share the pool without waiting on each other's tasks.
  std::vector<std::function<void()>> tasks;
  tasks.reserve(sites.size());
  for (size_t i = 0; i < sites.size(); ++i) {
    tasks.push_back([&deliver, &sites, durations, inboxes, i] {
      (*durations)[i] =
          TimedDeliver(deliver, sites[i], std::move((*inboxes)[i]));
    });
  }
  pool_->RunAll(std::move(tasks));
  return Status::OK();
}

// ---- Builders ---------------------------------------------------------------

Envelope MakeQueryShipEnvelope(SiteId to, uint64_t query_bytes) {
  Envelope env;
  env.to = to;
  env.phantom_bytes = query_bytes;
  env.parts.push_back({MessageKind::kQueryShip, kNullFragment, {}, true});
  return env;
}

Envelope MakeRequestEnvelope(MessageKind kind, SiteId to, FragmentId fragment) {
  Envelope env;
  env.to = to;
  env.accounted = false;
  env.parts.push_back({kind, fragment, {}, false});
  return env;
}

// ---- Factory ----------------------------------------------------------------

std::unique_ptr<Transport> MakeTransport(TransportKind kind,
                                         TransportOptions options) {
  switch (kind) {
    case TransportKind::kSync:
      return std::make_unique<SyncTransport>(std::move(options));
    case TransportKind::kPooled:
      return std::make_unique<PooledTransport>(nullptr, std::move(options));
    case TransportKind::kSocket:
      return std::make_unique<SocketTransport>(std::move(options));
  }
  PAXML_CHECK(false);
  return nullptr;
}

TransportKind DefaultTransportKind(const Cluster& cluster) {
  return cluster.options().parallel_execution ? TransportKind::kPooled
                                              : TransportKind::kSync;
}

std::unique_ptr<Transport> MakeTransportFor(const Cluster& cluster,
                                            std::optional<TransportKind> kind,
                                            TransportOptions options) {
  // A deployment map means a socket plane unless the caller insists
  // otherwise (in-process kinds then simply ignore the endpoints).
  const TransportKind k =
      kind.value_or(options.remote_endpoints.empty()
                        ? DefaultTransportKind(cluster)
                        : TransportKind::kSocket);
  if (k == TransportKind::kPooled) {
    return std::make_unique<PooledTransport>(cluster.worker_pool(),
                                             std::move(options));
  }
  return MakeTransport(k, std::move(options));
}

}  // namespace paxml
