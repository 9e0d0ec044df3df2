// Transport: the message plane under the distributed algorithms.
//
// Every byte that crosses sites in a query evaluation flows through exactly
// one choke point, Transport::Send — the algorithms never touch the stats
// directly. An Envelope is one accounted network message; it carries typed
// WireParts (encoded per core/messages.h) plus optionally "phantom" bytes
// that model payloads the simulation does not materialize (the query text,
// answer XML subtrees, the naive baseline's raw tree data). Request parts
// (kQueryShip, k*Request) are the control plane: they replace the closure
// calls of the old QueryRun::Round API and, like those calls, cost no bytes
// — the paper accounts coordinator-driven stage starts as *visits*, not
// traffic.
//
// One transport carries any number of concurrent query evaluations. Each
// evaluation opens a *run* (OpenRun) and gets a RunId that namespaces its
// mailboxes and its RunStats; every envelope is stamped with the run it
// belongs to, so concurrent evaluations never see each other's mail or
// bleed into each other's accounting (invariant 5, DESIGN.md §6).
//
// Framing (DESIGN.md §8): by default the transport does not put envelopes
// on the (modeled) wire one by one. Send *stages* each cross-site envelope
// under its (run, from, to) edge; at the next round boundary — the inbox
// snapshot that starts a delivery round, or a Drain of a destination's
// mail — the staged envelopes of an edge are sealed into one Frame
// (runtime/frame.h), accounted as a single message, and delivered. Byte
// totals, per-edge byte splits and visit counts are exactly those of
// unbatched sending (tested property); only the message count — and with
// it every per-message cost in NetworkCostModel — shrinks. Staging is keyed
// by run, so concurrent evaluations never share a frame. TransportOptions
// is the escape hatch: batching=false restores the historical
// envelope-per-message plane. A sealed frame has one wire form, a kFrame
// record holding Frame::Encode (runtime/wire.h): a socket writes it, and
// in-process backends account its size without writing it.
//
// Three backends deliver mail:
//   * SyncTransport    — sequential, deterministic; the reference semantics.
//   * PooledTransport  — delivers each round's site mail on a WorkerPool
//                        (by default the cluster's shared pool, so heavy
//                        query streams pay no per-run thread spawns).
//                        Produces identical answers, visit counts and
//                        per-edge byte totals: site work is independent per
//                        site and coordinator-side processing is
//                        order-normalized (see Coordinator).
//   * SocketTransport  — (runtime/socket_transport.h) sites named in
//                        TransportOptions::remote_endpoints are served by
//                        paxml_site peer processes over TCP; sealed frames
//                        are the wire records and the round barrier is a
//                        control-record exchange (DESIGN.md §9). Reproduces
//                        SyncTransport's exact RunStats (tested property).

#ifndef PAXML_RUNTIME_TRANSPORT_H_
#define PAXML_RUNTIME_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "sim/stats.h"

namespace paxml {

class Cluster;
class FragmentMemo;
class WorkerPool;
struct Frame;

/// Identifies one query evaluation bound to a Transport. Ids are unique per
/// transport for its lifetime (never reused).
using RunId = uint64_t;
inline constexpr RunId kNullRun = 0;

/// Discriminates the typed chunks inside an Envelope. The runtime never
/// decodes the payload kinds — each workload family's handlers do
/// (core/xml_handlers.h for the XML wire formats, core/reach.cc for the
/// graph rows); here they are opaque routed bytes.
enum class MessageKind : uint8_t {
  kQueryShip = 0,   ///< the query text travels to a site (phantom bytes)
  kQualRequest,     ///< start the qualifier stage for one fragment
  kSelRequest,      ///< start the selection (or combined) stage
  kAnswerRequest,   ///< settle candidates and ship answers
  kDataRequest,     ///< ship raw fragment data (naive baseline)
  kQualUp,          ///< QualUpMessage
  kSelUp,           ///< SelUpMessage
  kAnswerUp,        ///< AnswerUpMessage
  kQualDown,        ///< QualDownMessage
  kSelDown,         ///< SelDownMessage
  kDataShip,        ///< raw tree data (phantom bytes; naive baseline)
  kReachRequest,    ///< start local reachability partial evaluation (graph)
  kReachUp,         ///< boolean-equation rows of one graph fragment
};

const char* MessageKindName(MessageKind kind);

/// What a remote peer needs to reconstruct one evaluation's site-side
/// program: the workload family, the algorithm within it (an
/// AlgorithmName() string — "PaX2", "PaX3", "NaiveCentralized", "ParBoX"
/// for "xml"; "Reach" for "graph"), the query source text and the options
/// that change site-side behavior. In-process backends ignore it; the
/// socket backend ships it in the run-open control record, and the peer
/// compiles the query against its own copy of the data (deterministic:
/// both sides derive identical pruning, stack inits and wire encodings).
/// core/workload.h turns a spec back into handlers by branching on its
/// family.
struct RunSpec {
  std::string algorithm;
  std::string query;
  bool use_annotations = false;
  uint8_t ship_mode = 0;  ///< AnswerShipMode as its wire value

  /// Workload family of the run ("xml", "graph"); selects the family's
  /// program builder. Last member with a default so existing four-field
  /// aggregate initializers keep meaning an XML run.
  std::string family = "xml";
};

/// Which RunStats bucket an envelope's bytes land in (besides total_bytes).
enum class PayloadCategory : uint8_t {
  kControl,  ///< partial answers, resolved values, the query itself
  kAnswer,   ///< shipped answers: the O(|ans|) term
  kData,     ///< raw XML shipping (NaiveCentralized baseline)
};

/// One typed chunk of an envelope. `bytes` holds the encoded wire format
/// for payload kinds and is empty for request kinds. An unaccounted part
/// rides along without contributing to the envelope's byte count — used for
/// the answer id list when answers already ship as self-describing XML
/// (phantom bytes), so accounting matches the paper's model.
struct WirePart {
  MessageKind kind;
  FragmentId fragment = kNullFragment;  ///< routing for request kinds
  std::string bytes;
  bool accounted = true;

  /// Logical (pre-transcoding) size of `bytes` for accounting, or 0 when
  /// the part ships exactly its logical encoding (the common case — the
  /// sentinel keeps every 4-field aggregate initializer meaning "bytes ARE
  /// the logical payload"). The answer-delta codec sets this to the
  /// fixed/absolute-varint size the ids *would* have cost, so per-edge
  /// bytes, answer_bytes and total_bytes stay bit-identical to the
  /// pre-delta wire while the frame encoding (wire_bytes) shrinks. A
  /// nonzero value never equals 0 by construction (headers are >= 1 byte),
  /// so "0 means bytes.size()" is unambiguous.
  uint64_t logical_bytes = 0;

  /// Accounted size of this part: the logical payload bytes.
  uint64_t LogicalSize() const {
    return logical_bytes != 0 ? logical_bytes : bytes.size();
  }
};

/// Behavior knobs of the message plane, shared by every backend. The three
/// that shape how a site delivers and seals — site_threads,
/// split_threshold_pct and peer_concurrent_rounds — are mirrored to
/// paxml_site peers in the Hello record (runtime/wire.h), so a peer seals
/// exactly the frames an in-process site would. Chunk sizes of streamed
/// shipments are constants (core/answer_stream.h): chunk boundaries never
/// show on the wire.
struct TransportOptions {
  /// Coalesce each round's envelopes per (run, destination edge) into one
  /// Frame at the round boundary (the default). Off restores the seed's
  /// envelope-per-message accounting — the escape hatch for comparisons
  /// and for callers that need Send-time accounting.
  bool batching = true;

  /// Intra-site parallelism: a site's round mail is partitioned into
  /// per-fragment lanes and delivered on up to this many worker threads
  /// (runtime/site_driver.h). 1 (the default) keeps the serial path. The
  /// socket backend mirrors the knob to its paxml_site peers via the Hello
  /// record, so remote sites parallelize the same way. RunStats — answers,
  /// visits, per-edge bytes/messages/envelopes, frame sequences — are
  /// bit-identical to the serial order (tested property): handler sends are
  /// captured per lane and replayed in the serial mail order at the round
  /// seal (DESIGN.md §10).
  size_t site_threads = 1;

  /// Intra-fragment work splitting (0 = off): with parallel delivery on
  /// (site_threads > 1), a round segment whose largest per-fragment lane
  /// carries at least this percentage of the segment's envelope/byte
  /// weight has that lane's work split into independent sub-tasks by the
  /// evaluator (MessageHandlers::MakeSplitTask) and fanned out on the same
  /// pool as the other lanes — the paratreet visitor/interact idiom, for
  /// sites whose round is dominated by one large fragment (DESIGN.md §14).
  /// 100 splits only a lane that IS the whole segment; values below force
  /// splitting earlier (tests use 1). RunStats stay bit-identical to the
  /// serial order; `parallel_seconds` becomes max-over-sub-tasks. The
  /// socket backend mirrors the knob to paxml_site peers via Hello. A run
  /// with a fragment memo never splits (a memo entry is one whole lane
  /// delivery).
  uint64_t split_threshold_pct = 0;

  /// Cross-run fan-out on a paxml_site peer: how many
  /// *independent runs'* rounds one connection may deliver concurrently on
  /// the peer's site pool. 1 (the default) keeps the historical
  /// one-round-at-a-time connection loop; higher values let a multi-query
  /// client overlap its runs' rounds on the peer, with the kRoundDone
  /// barrier kept per-run. The peer may cap it (paxml_site --rounds).
  /// Rounds of one run are never reordered (the client's per-run barrier
  /// already serializes them), so each run's RunStats are unchanged.
  uint64_t peer_concurrent_rounds = 1;

  /// Remote deployment map of the socket backend: site -> "host:port" of
  /// the paxml_site process serving it. Sites absent from the map (the
  /// query site S_Q must be one of them) are evaluated in-process by the
  /// client. Non-empty selects TransportKind::kSocket in MakeTransportFor
  /// when no explicit kind is given.
  std::map<SiteId, std::string> remote_endpoints = {};

  /// Fragment-stage memo shared across this transport's runs
  /// (serving/fragment_memo.h). When set, each Coordinator opens a
  /// MemoSession for its run and the run's SiteDriver serves repeated
  /// per-fragment stages from the memo instead of re-evaluating them;
  /// answers and all accounted counters stay bit-identical, with the
  /// skipped work reported via RunStats::memo_* (DESIGN.md §12). Null (the
  /// default) disables memoization. In-process only — socket peers hold
  /// their own memo (paxml_site --memo).
  std::shared_ptr<FragmentMemo> fragment_memo = nullptr;
};

/// One network message. Envelope metadata (routing, kinds) models the
/// constant-size header real stacks add and is not accounted, exactly as
/// the old QueryRun::Send(bytes) accounting did.
struct Envelope {
  /// The evaluation this envelope belongs to. Coordinator::Post and
  /// SiteContext::Send stamp it; Transport::Send rejects kNullRun.
  RunId run = kNullRun;

  SiteId from = kNullSite;
  SiteId to = kNullSite;
  PayloadCategory category = PayloadCategory::kControl;

  /// Control-plane envelopes (requests only) are not accounted: they model
  /// the stage-start RPC whose cost the paper counts as a site visit.
  bool accounted = true;

  /// Modeled-but-not-materialized payload bytes (query text, answer XML,
  /// shipped tree data).
  uint64_t phantom_bytes = 0;

  std::vector<WirePart> parts;

  /// Accounted payload bytes of this envelope (logical part sizes — what
  /// the paper's cost model counts, independent of wire transcoding).
  uint64_t WireBytes() const;
};

/// Appends `bytes` (carrying `logical` accounted bytes) to a part,
/// maintaining the logical_bytes sentinel: parts stay in the compact
/// "logical == bytes.size()" representation until the first append whose
/// logical size differs, then materialize the running total. The ONE
/// append path for streamed chunks (Transport::StreamAppend and
/// EnvelopeStream's buffered mode), so batched and unbatched runs account
/// identically.
void AppendPartBytes(WirePart& part, std::string_view bytes, uint64_t logical);

/// What one sealed frame put (or would put) on the wire: the payload of
/// its kFrame record, always Frame::EncodedSize() (runtime/wire.h).
struct FrameWireInfo {
  uint64_t bytes = 0;
};

/// Message plane between the sites of one Cluster. Owns the per-run per-site
/// mailboxes and the accounting; subclasses choose the execution strategy
/// for delivery rounds. All methods are thread-safe; any number of runs may
/// be open concurrently.
class Transport {
 public:
  /// Delivery callback: receives a site's drained mailbox.
  using DeliverFn = std::function<void(SiteId, std::vector<Envelope>)>;

  virtual ~Transport() = default;

  /// Opens a fresh run over `cluster`, accounting into `stats` (per_site
  /// must already be sized). The returned id namespaces the run's
  /// mailboxes; it never aliases another open run. `spec` describes the
  /// evaluation to remote peers (see RunSpec); in-process backends ignore
  /// it and it may be null (the socket backend then serves the run as a
  /// pure frame relay — remote delivery rounds fail cleanly).
  RunId OpenRun(const Cluster* cluster, RunStats* stats,
                const RunSpec* spec = nullptr);

  /// Releases a run's binding. Pending mail is discarded (error paths
  /// legitimately abandon a protocol mid-round). The id must name an open
  /// run; its RunStats is not touched after this returns. A socket backend
  /// tears the run down on its peers too (graceful: peers drop the run's
  /// mail and program without disturbing other runs).
  void CloseRun(RunId run);

  /// THE choke point. With batching (the default), a cross-site envelope is
  /// staged under its (run, from, to) edge and accounted when the edge's
  /// frame seals at the next round boundary; unbatched, it is accounted
  /// immediately (unless control-plane) and enqueued directly. Local
  /// delivery — between co-located fragments — is always immediate and
  /// free: there is no wire to frame, matching the deployment reality that
  /// S_Q holds the root fragment. env.run must name an open run. Virtual
  /// (with the stream methods below) so the parallel delivery path can
  /// interpose a capture plane that records handler sends for deterministic
  /// replay (runtime/site_driver.h).
  virtual void Send(Envelope env);

  /// Opens a streamed envelope on `head`'s edge (batching only, cross-site
  /// only): `head` is staged as the edge's open stream and StreamAppend
  /// extends its last part in place, so chunks emitted over time land in
  /// the same frame as one envelope. Exactly one stream may be open per
  /// (run, edge); it must be closed (StreamEnd) before the next round
  /// boundary. Use runtime/site_runtime.h's EnvelopeStream, which also
  /// handles the unbatched and local cases, instead of calling these
  /// directly.
  virtual void StreamBegin(Envelope head);

  /// Appends `bytes` to the open stream's last part (accounting
  /// `logical_bytes` of logical payload — pass bytes.size() unless the
  /// chunk was transcoded, e.g. delta-encoded answer ids) and adds
  /// `phantom_bytes` to its envelope's modeled payload.
  virtual void StreamAppend(RunId run, SiteId from, SiteId to,
                            std::string_view bytes, uint64_t logical_bytes,
                            uint64_t phantom_bytes);

  /// Closes the open stream on the edge; the envelope seals with the
  /// edge's next frame.
  virtual void StreamEnd(RunId run, SiteId from, SiteId to);

  /// Removes and returns `site`'s pending mail in `run`, sealing any
  /// staged frames destined to it first (a drain is a round boundary for
  /// the drained site).
  std::vector<Envelope> Drain(RunId run, SiteId site);

  /// Seals every staged edge of `run` now: a round boundary without an
  /// inbox snapshot. The remote peer's end-of-round flush — after its
  /// handlers ran, this turns their staged replies into the frames that go
  /// back on the wire.
  void FlushRun(RunId run);

  /// The query methods are const so a read-only view of the transport
  /// (e.g. Engine::transport()) can introspect it. Staged (not yet sealed)
  /// mail counts as pending: HasMail answers "would a Drain deliver
  /// anything", not "has a frame already sealed".
  bool HasMail(RunId run, SiteId site) const;

  /// True if any site of `run` holds undelivered mail.
  bool HasPendingMail(RunId run) const;

  /// Number of currently open runs.
  size_t open_run_count() const;

  /// Runs one delivery round for `run`: drains the mailbox of every site in
  /// `sites` (snapshot up front, so mail sent *during* the round queues for
  /// the next one), then invokes `deliver` once per site, measuring wall
  /// time per site into `durations` (aligned with `sites`). Reentrant:
  /// concurrent rounds of different runs do not wait on each other's work.
  /// The returned status is the *transport's* own health (in-process
  /// backends always succeed; the socket backend surfaces dead peers and
  /// remote handler failures here) — errors inside `deliver` stay the
  /// caller's to collect, as before.
  virtual Status RunRound(RunId run, const std::vector<SiteId>& sites,
                          const DeliverFn& deliver,
                          std::vector<double>* durations) = 0;

  virtual const char* name() const = 0;

  const TransportOptions& options() const { return options_; }
  bool batching() const { return options_.batching; }

 protected:
  Transport() = default;
  explicit Transport(TransportOptions options) : options_(std::move(options)) {}

  /// Snapshots the mailboxes of `sites` in `run` under the lock, in order.
  /// This is the round boundary: every staged frame of the run seals and
  /// delivers (and is accounted) first, so the snapshot sees the full
  /// pre-round traffic and mail sent *during* the round stages for the
  /// next boundary.
  std::vector<std::vector<Envelope>> SnapshotInboxes(
      RunId run, const std::vector<SiteId>& sites);

  /// Subclass hook, called under the transport lock when a staged edge has
  /// sealed, BEFORE the frame is accounted. Return true to take the frame
  /// off the local plane — a socket backend queues its kFrame record for
  /// the destination's connection — filling `*wire` with the bytes it put
  /// on the wire (the caller accounts them); return false for the default
  /// local delivery, leaving `*wire` untouched (the caller accounts
  /// Frame::EncodedSize(), the same number, so in-process runs reproduce
  /// the socket numbers exactly).
  virtual bool TakeSealedFrameLocked(Frame& frame, FrameWireInfo* wire);

  /// Delivers a frame received from elsewhere (a peer's socket) into the
  /// run's mailboxes, accounting it exactly as a locally sealed frame
  /// (AccountFrameWire — the codec round-trips everything accounting
  /// needs, so re-decoded frames reproduce RunStats). `wire` is the
  /// received kFrame record's payload size. Frames for runs that have
  /// already closed are dropped silently: remote mail legitimately races
  /// CloseRun. Frames whose destination TakeSealedFrameLocked claims are
  /// relayed onward instead of mailboxed. Errors mean wire-invalid site
  /// ids, never a crash — decoded input is untrusted.
  Status InjectFrame(Frame frame, FrameWireInfo wire);

  /// Hook pair around a run's lifetime, called *outside* the transport
  /// lock: after OpenRun registered the binding (a socket backend announces
  /// the run and its spec to every peer) and after CloseRun erased it (the
  /// backend tells peers to drop the run).
  virtual void RunOpened(RunId run, const Cluster* cluster,
                         const RunSpec* spec);
  virtual void RunClosing(RunId run);

  /// Folds a remote site's DeliveryReport (its memo savings and pool
  /// counters, DeliveryReport::AddTo) into the run's RunStats. A socket
  /// backend calls it from RunRound, on the round's calling thread after
  /// the barrier, for each peer that answered the round; the Coordinator
  /// folds its local sites' reports itself. `run` must be open.
  void AccountReport(RunId run, const DeliveryReport& report);

 private:
  using EdgeKey = std::pair<SiteId, SiteId>;

  /// Envelopes staged on one (run, edge) since the last round boundary.
  struct StagedEdge {
    std::vector<Envelope> envelopes;
    /// The last envelope is an open EnvelopeStream; it must be closed
    /// before this edge's frame can seal.
    bool stream_open = false;
  };

  /// Everything one evaluation owns inside the transport.
  struct RunBinding {
    RunStats* stats = nullptr;
    std::vector<std::vector<Envelope>> mailboxes;  // one per site
    /// std::map so frames seal in deterministic (from, to) order across
    /// backends.
    std::map<EdgeKey, StagedEdge> staging;
    /// Monotone per-edge frame numbering for the codec header; survives
    /// flushes for the run's lifetime.
    std::map<EdgeKey, uint64_t> next_frame_sequence;
  };

  /// Must hold mu_. PAXML_CHECKs that `run` is open.
  RunBinding& BindingLocked(RunId run);
  const RunBinding& BindingLocked(RunId run) const;

  static bool HasPendingMailLocked(const RunBinding& binding);

  /// Must hold mu_. Seals one staged edge into a Frame, accounts it into
  /// the run's stats and moves its envelopes to the destination mailbox.
  void SealEdgeLocked(RunId run, RunBinding& binding, const EdgeKey& edge,
                      StagedEdge&& staged);

  /// Must hold mu_. Seals every staged edge of the run (`FlushRunLocked`)
  /// or only the edges destined to one site (`FlushToSiteLocked`).
  void FlushRunLocked(RunId run, RunBinding& binding);
  void FlushToSiteLocked(RunId run, RunBinding& binding, SiteId site);

  /// mutable so the const query methods can lock. Guards runs_ and every
  /// binding's mailboxes + staging + stats.
  mutable std::mutex mu_;
  RunId next_run_id_ = 1;
  std::map<RunId, RunBinding> runs_;
  TransportOptions options_;
};

/// Deterministic sequential delivery; reproduces the seed simulator's
/// numbers exactly and keeps timing curves stable on small hosts.
class SyncTransport : public Transport {
 public:
  explicit SyncTransport(TransportOptions options = {})
      : Transport(std::move(options)) {}

  Status RunRound(RunId run, const std::vector<SiteId>& sites,
                  const DeliverFn& deliver,
                  std::vector<double>* durations) override;
  const char* name() const override { return "sync"; }
};

/// Delivers each round's site mail on a WorkerPool. Pass a shared pool
/// (e.g. Cluster::worker_pool()) to serve many transports and runs from one
/// set of threads; with no pool the transport creates a private one.
class PooledTransport : public Transport {
 public:
  explicit PooledTransport(std::shared_ptr<WorkerPool> pool = nullptr,
                           TransportOptions options = {});
  /// Private pool with exactly `workers` threads (0 = default sizing).
  explicit PooledTransport(size_t workers, TransportOptions options = {});

  Status RunRound(RunId run, const std::vector<SiteId>& sites,
                  const DeliverFn& deliver,
                  std::vector<double>* durations) override;
  const char* name() const override { return "pooled"; }

  size_t worker_count() const;
  const std::shared_ptr<WorkerPool>& pool() const { return pool_; }

 private:
  std::shared_ptr<WorkerPool> pool_;
};

/// Invokes `deliver` for one site's mail and returns the wall time spent —
/// the per-site duration unit every backend's RunRound reports, kept as
/// ONE definition so socket and in-process visits are timed identically.
double TimedDeliver(const Transport::DeliverFn& deliver, SiteId site,
                    std::vector<Envelope> mail);

/// Builders for the two control-plane envelope shapes every algorithm posts.

/// Models shipping the query text (`query_bytes` accounted phantom bytes).
Envelope MakeQueryShipEnvelope(SiteId to, uint64_t query_bytes);

/// A free stage-start request for one fragment (kind must be a *Request).
Envelope MakeRequestEnvelope(MessageKind kind, SiteId to, FragmentId fragment);

enum class TransportKind : uint8_t { kSync, kPooled, kSocket };

/// Creates a `kind` backend for `cluster`. Unset, the kind is kSocket when
/// `options.remote_endpoints` is non-empty, else the cluster's preference:
/// pooled iff ClusterOptions::parallel_execution. A pooled backend shares
/// the cluster's WorkerPool; a socket backend needs a non-empty
/// remote_endpoints and dials the peers here (dial failures surface as
/// clean RunRound errors, not aborts). The one place that wires transports
/// to cluster resources: the engine builds its shared transport here, and
/// so does any caller of EvaluateWorkload.
std::unique_ptr<Transport> MakeTransportFor(
    const Cluster& cluster, std::optional<TransportKind> kind = std::nullopt,
    TransportOptions options = {});

}  // namespace paxml

#endif  // PAXML_RUNTIME_TRANSPORT_H_
