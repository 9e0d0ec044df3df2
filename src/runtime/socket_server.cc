#include "runtime/socket_server.h"

#include <sys/socket.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "runtime/frame.h"
#include "runtime/site_driver.h"
#include "runtime/wire.h"
#include "runtime/worker_pool.h"
#include "serving/fingerprint.h"
#include "serving/fragment_memo.h"
#include "sim/cluster.h"

namespace paxml {

namespace {

/// The peer's staging plane: handlers send through it as through any
/// transport, but a sealed frame whose destination is not the hosted site
/// is captured (translated back to the client's run id) for the wire
/// instead of a local mailbox. Reply capture is staged *per client run* so
/// that concurrent rounds of independent runs (peer_concurrent_rounds > 1)
/// each take exactly their own frames, in their own seal order — per-run
/// order is all the client's reassembler checks. The base Transport is
/// thread-safe; the run map and staging strings here get their own lock.
class PeerPlane : public Transport {
 public:
  PeerPlane(SiteId home, TransportOptions options)
      : Transport(std::move(options)), home_(home) {}

  void Register(RunId local, RunId client) {
    std::lock_guard<std::mutex> lock(mu_);
    client_run_[local] = client;
  }
  void Forget(RunId local) {
    std::lock_guard<std::mutex> lock(mu_);
    client_run_.erase(local);
  }

  /// The kFrame records sealed for `client_run` since the last take, in
  /// seal order.
  std::string TakePending(RunId client_run) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(client_run);
    if (it == pending_.end()) return {};
    std::string bytes = std::move(it->second);
    pending_.erase(it);
    return bytes;
  }

  Status RunRound(RunId, const std::vector<SiteId>&, const DeliverFn&,
                  std::vector<double>*) override {
    return Status::Internal("the peer plane has no delivery rounds");
  }
  const char* name() const override { return "peer"; }

  using Transport::InjectFrame;  // the server feeds client frames in

 protected:
  bool TakeSealedFrameLocked(Frame& frame, FrameWireInfo* wire) override {
    if (frame.to == home_) return false;
    std::lock_guard<std::mutex> lock(mu_);  // after the base lock, only here
    auto it = client_run_.find(frame.run);
    PAXML_CHECK(it != client_run_.end());
    frame.run = it->second;
    *wire = AppendFrameRecord(frame, &pending_[frame.run]);
    return true;
  }

 private:
  SiteId home_;
  std::mutex mu_;
  std::map<RunId, RunId> client_run_;   ///< local run -> client run
  std::map<RunId, std::string> pending_;  ///< client run -> staged records
};

/// Everything one announced run owns at the peer.
struct RunState {
  RunId local_run = kNullRun;
  RunStats stats;  ///< advisory; the client's accounting is authoritative
  std::unique_ptr<SiteProgram> program;
  std::optional<SiteDriver> driver;
  Status broken;  ///< spec/placement problems surface at the next round
  /// True while this run's round executes on the connection's round pool.
  /// A well-behaved client never overlaps a run's rounds (its barrier is
  /// per-run) or closes a run mid-round; a violation is answered with a
  /// clean connection error, never a data race.
  std::atomic<bool> round_inflight{false};
};

}  // namespace

SiteServer::SiteServer(const Cluster* cluster, SiteId site,
                       SiteProgramFactory factory, size_t max_site_threads,
                       std::shared_ptr<FragmentMemo> memo,
                       size_t max_concurrent_rounds)
    : cluster_(cluster),
      site_(site),
      factory_(std::move(factory)),
      max_site_threads_(max_site_threads),
      memo_(std::move(memo)),
      max_concurrent_rounds_(max_concurrent_rounds) {
  PAXML_CHECK(site >= 0 &&
              static_cast<size_t>(site) < cluster->site_count());
}

SiteServer::~SiteServer() { CloseFd(listen_fd_); }

Result<int> SiteServer::Listen(const std::string& host, int port) {
  PAXML_CHECK(listen_fd_ < 0);
  PAXML_ASSIGN_OR_RETURN(listen_fd_, ListenOn(host, port));
  return BoundPort(listen_fd_);
}

void SiteServer::Shutdown() {
  shutdown_.store(true);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

Status SiteServer::Serve() {
  PAXML_CHECK(listen_fd_ >= 0);  // Listen first
  while (!shutdown_.load()) {
    Result<int> fd = AcceptOn(listen_fd_);
    if (!fd.ok()) {
      if (shutdown_.load()) return Status::OK();
      return fd.status();
    }
    // A connection failure tears down that client's runs only; the server
    // keeps accepting — but the operator gets to see why the client was
    // dropped (the client only sees "peer closed").
    Status status = ServeConnection(*fd);
    if (!status.ok()) {
      std::fprintf(stderr, "paxml_site[%d]: client dropped: %s\n", site_,
                   status.ToString().c_str());
    }
    CloseFd(*fd);
  }
  return Status::OK();
}

Status SiteServer::ServeOne() {
  PAXML_CHECK(listen_fd_ >= 0);
  PAXML_ASSIGN_OR_RETURN(int fd, AcceptOn(listen_fd_));
  Status status = ServeConnection(fd);
  CloseFd(fd);
  return status;
}

Status SiteServer::ServeConnection(int fd) {
  RecordBuffer buf;
  FrameReassembler reassembler;
  std::unique_ptr<PeerPlane> plane;  // built once the Hello arrives
  // Keyed by the *client's* run id. shared_ptr so a round executing on the
  // round pool keeps its state alive independent of the map.
  std::map<RunId, std::shared_ptr<RunState>> runs;
  bool hello_done = false;
  // Intra-site parallel delivery, sized by the client's Hello (capped by
  // the operator): one pool per connection, shared across its runs. Lanes
  // fan out and join inside each DeliverTimed.
  size_t site_threads = 1;
  std::shared_ptr<WorkerPool> site_pool;
  // Every write to the connection — a round's reply batch, an error, the
  // hello ack — happens under write_mu, so concurrent rounds' records
  // never interleave on the wire.
  std::mutex write_mu;
  // A round task's write failure, surfaced by the read loop (the task has
  // no other way to tear the connection down).
  std::mutex conn_status_mu;
  Status conn_status;
  // Cross-run round fan-out, sized by the client's Hello capped by the
  // operator. Declared AFTER everything a round task borrows: its
  // destructor drains and joins in-flight tasks first, so no task outlives
  // the plane, the run map or the mutexes above.
  std::shared_ptr<WorkerPool> rounds_pool;

  auto send_error = [&](RunId run, const std::string& message) -> Status {
    ErrorRecord error;
    error.run = run;
    error.message = message;
    std::string bytes;
    AppendControlRecord(RecordType::kError, error, &bytes);
    std::lock_guard<std::mutex> lock(write_mu);
    return WriteAll(fd, bytes);
  };

  // One run's round, from drain to the locked reply write. Runs inline on
  // the connection thread (the historical path) or as a round-pool task;
  // either way the reply frames precede the kRoundDone in one write — the
  // ordering the client's barrier depends on.
  auto run_round = [&](const std::shared_ptr<RunState>& state,
                       RunId client_run) -> Status {
    RoundDoneRecord done;
    done.run = client_run;
    done.site = site_;
    std::vector<Envelope> mail = plane->Drain(state->local_run, site_);
    done.status =
        state->driver->DeliverTimed(site_, std::move(mail), &done.report);
    // The peer's round boundary: stage -> frames, captured for the wire in
    // seal order.
    plane->FlushRun(state->local_run);
    // Reply frames first, the barrier release last — their order on this
    // connection is the round's correctness argument.
    std::string bytes = plane->TakePending(client_run);
    AppendControlRecord(RecordType::kRoundDone, done, &bytes);
    // Clear the in-flight mark BEFORE the write: the client may send this
    // run's next round-start the instant it sees the kRoundDone, and that
    // start must not race a stale mark. Nothing of this run runs between
    // here and the write — the barrier holds the client until the write
    // lands.
    state->round_inflight.store(false);
    std::lock_guard<std::mutex> lock(write_mu);
    return WriteAll(fd, bytes);
  };

  auto handle = [&](WireRecord record) -> Status {
    ByteReader reader(record.payload);
    if (!hello_done) {
      if (record.type != RecordType::kHello) {
        return Status::NetworkError("expected hello");
      }
      // Any other wire version, like a corrupt Hello, is refused.
      Result<HelloRecord> hello = HelloRecord::Decode(&reader);
      if (!hello.ok()) {
        (void)send_error(kNullRun, hello.status().message());
        return hello.status();
      }
      if (hello->site != site_) {
        (void)send_error(kNullRun, "this peer serves site " +
                                       std::to_string(site_));
        return Status::NetworkError("client dialed the wrong site");
      }
      // Seal replies under the client's plane options so both sides seal
      // identical frames (batching is implied — the frame is the wire
      // unit), after this machine's caps. Wire input: bound hostile thread
      // and round counts before sizing a pool (the split percentage needs
      // no bound — values over 100 just never fire).
      TransportOptions options = std::move(hello->options);
      options.batching = true;
      site_threads = static_cast<size_t>(std::clamp<uint64_t>(
          options.site_threads, 1, 64));
      if (max_site_threads_ > 0) {
        site_threads = std::min(site_threads, max_site_threads_);
      }
      options.site_threads = site_threads;
      if (site_threads > 1) {
        site_pool = std::make_shared<WorkerPool>(site_threads);
      }
      size_t rounds = static_cast<size_t>(
          std::clamp<uint64_t>(options.peer_concurrent_rounds, 1, 16));
      if (max_concurrent_rounds_ > 0) {
        rounds = std::min(rounds, max_concurrent_rounds_);
      }
      options.peer_concurrent_rounds = rounds;
      if (rounds > 1) rounds_pool = std::make_shared<WorkerPool>(rounds);
      plane = std::make_unique<PeerPlane>(site_, std::move(options));
      HelloAckRecord ack;
      ack.site = site_;
      std::string bytes;
      AppendControlRecord(RecordType::kHelloAck, ack, &bytes);
      hello_done = true;
      std::lock_guard<std::mutex> lock(write_mu);
      return WriteAll(fd, bytes);
    }

    switch (record.type) {
      case RecordType::kOpenRun: {
        PAXML_ASSIGN_OR_RETURN(OpenRunRecord open,
                               OpenRunRecord::Decode(&reader));
        if (runs.count(open.run) != 0) {
          return Status::NetworkError("open-run for an already open run");
        }
        auto& slot = runs[open.run];
        slot = std::make_shared<RunState>();
        RunState& state = *slot;
        state.stats.per_site.resize(cluster_->site_count());
        state.local_run = plane->OpenRun(cluster_, &state.stats);
        plane->Register(state.local_run, open.run);

        // Workload fingerprint first: a peer serving the other data model
        // reports the real mismatch immediately (and by name), instead of
        // a shape complaint or a compile failure deep in the program
        // factory.
        if (open.spec.family != cluster_->data().family()) {
          state.broken = Status::InvalidArgument(
              "workload mismatch: run is \"" + open.spec.family +
              "\" but this peer serves \"" +
              std::string(cluster_->data().family()) + "\" data");
          return send_error(open.run, state.broken.message());
        }

        // Placement fingerprint: a peer serving a different cluster must
        // fail loudly at the first delivery, not answer from divergent
        // data.
        if (open.site_count != cluster_->site_count() ||
            open.placement.size() != cluster_->fragment_count()) {
          state.broken = Status::InvalidArgument(
              "cluster shape mismatch between client and peer");
        } else {
          for (size_t f = 0; f < open.placement.size(); ++f) {
            if (open.placement[f] !=
                cluster_->site_of(static_cast<FragmentId>(f))) {
              state.broken =
                  Status::InvalidArgument("placement mismatch at fragment " +
                                          std::to_string(f));
              break;
            }
          }
        }
        if (state.broken.ok() && open.spec.algorithm.empty()) {
          state.broken = Status::InvalidArgument(
              "run was opened without a spec; remote delivery is impossible");
        }
        if (state.broken.ok()) {
          Result<std::unique_ptr<SiteProgram>> program = factory_(open.spec);
          if (program.ok()) {
            state.program = std::move(*program);
            // The memo session mirrors the one an in-process Coordinator
            // would open: same fingerprint, this peer's view of the epoch
            // (the clusters are bit-identical by the placement check).
            std::shared_ptr<MemoSession> session;
            if (memo_ != nullptr) {
              session = std::make_shared<MemoSession>(
                  memo_, RunFingerprint(open.spec), cluster_->data_epoch());
            }
            state.driver.emplace(cluster_, plane.get(), state.local_run,
                                 state.program->handlers(), site_pool,
                                 site_threads, std::move(session));
          } else {
            state.broken = program.status();
          }
        }
        return Status::OK();
      }
      case RecordType::kCloseRun: {
        PAXML_ASSIGN_OR_RETURN(CloseRunRecord close,
                               CloseRunRecord::Decode(&reader));
        auto it = runs.find(close.run);
        if (it == runs.end()) return Status::OK();  // already gone
        if (it->second->round_inflight.load()) {
          // A well-behaved client never closes mid-round (its barrier
          // completed first); drop the violator before the race happens.
          return Status::NetworkError("close-run during an in-flight round");
        }
        plane->Forget(it->second->local_run);
        plane->CloseRun(it->second->local_run);
        reassembler.CloseRun(close.run);
        runs.erase(it);
        return Status::OK();
      }
      case RecordType::kFrame: {
        PAXML_ASSIGN_OR_RETURN(Frame frame, DecodeFrameRecord(record));
        if (frame.to != site_) {
          return Status::NetworkError("frame for a site this peer does not serve");
        }
        PAXML_RETURN_NOT_OK(reassembler.Accept(frame));
        auto it = runs.find(frame.run);
        if (it == runs.end()) return Status::OK();  // races a close: drop
        frame.run = it->second->local_run;
        return plane->InjectFrame(std::move(frame),
                                  FrameWireInfo{record.payload.size()});
      }
      case RecordType::kRoundStart: {
        PAXML_ASSIGN_OR_RETURN(RoundStartRecord start,
                               RoundStartRecord::Decode(&reader));
        auto it = runs.find(start.run);
        Status refused;
        if (start.site != site_) {
          refused = Status::InvalidArgument(
              "round-start for a site this peer does not serve");
        } else if (it == runs.end()) {
          refused = Status::NetworkError("round-start for an unknown run");
        } else if (!it->second->broken.ok()) {
          refused = it->second->broken;
        }
        if (!refused.ok()) {
          RoundDoneRecord done;
          done.run = start.run;
          done.site = site_;
          done.status = std::move(refused);
          std::string bytes;
          AppendControlRecord(RecordType::kRoundDone, done, &bytes);
          std::lock_guard<std::mutex> lock(write_mu);
          return WriteAll(fd, bytes);
        }
        std::shared_ptr<RunState> state = it->second;
        if (state->round_inflight.exchange(true)) {
          // The client's per-run barrier makes this impossible for a
          // well-behaved client (RunRound checks it); refuse the violator
          // before two rounds of one run can race on its driver.
          return Status::NetworkError(
              "round-start for a run whose round is in flight");
        }
        if (rounds_pool != nullptr) {
          // Independent runs' rounds overlap on the site pool; this run's
          // reply batch goes out whenever its task finishes (per-run frame
          // order is preserved — that is all the client checks).
          rounds_pool->Post([run_round, state, client_run = start.run,
                             &conn_status, &conn_status_mu] {
            Status status = run_round(state, client_run);
            if (!status.ok()) {
              std::lock_guard<std::mutex> lock(conn_status_mu);
              if (conn_status.ok()) conn_status = std::move(status);
            }
          });
          return Status::OK();
        }
        return run_round(state, start.run);
      }
      default:
        return Status::NetworkError(std::string("unexpected record: ") +
                                    RecordTypeName(record.type));
    }
  };

  char chunk[1 << 16];
  while (true) {
    // A round task that failed to write its reply poisons the connection;
    // the read loop is the only place that can report it and return (the
    // rounds pool's destructor then drains any remaining tasks).
    {
      std::lock_guard<std::mutex> lock(conn_status_mu);
      if (!conn_status.ok()) return conn_status;
    }
    Result<size_t> n = ReadSome(fd, chunk, sizeof(chunk));
    if (!n.ok()) return n.status();
    if (*n == 0) {
      // Orderly teardown: the client went away; drop its runs.
      return buf.pending_bytes() == 0
                 ? Status::OK()
                 : Status::NetworkError("client closed mid-record");
    }
    buf.Append({chunk, *n});
    while (true) {
      Result<std::optional<WireRecord>> record = buf.Next();
      if (!record.ok()) return record.status();
      if (!record->has_value()) break;
      PAXML_RETURN_NOT_OK(handle(std::move(**record)));
    }
  }
}

}  // namespace paxml
