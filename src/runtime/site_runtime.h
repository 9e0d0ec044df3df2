// The site-side execution surface: what an algorithm's handlers see.
//
// SiteContext tells a handler which site and run it serves and sends on
// its behalf; EnvelopeStream emits one logical envelope in chunks; and
// MessageHandlers is the workload seam — delivered envelopes reach the
// algorithm one part at a time, with the envelope for context. The runtime
// never decodes a part's payload: what the bytes mean is the workload
// family's business (core/xml_handlers.h decodes the XML wire formats of
// core/messages.h; the graph family decodes its reachability rows), which
// is what keeps this layer free of data-model headers (DESIGN.md §11).
// SiteDriver (runtime/site_driver.h) does the dispatching, for both roles
// of the protocol — worker sites (requests and down-messages, running on
// transport worker threads) and the coordinator (up-messages, running on
// the driver thread after each round) — so an algorithm is exactly its set
// of handlers plus a Coordinator script, and never touches sockets,
// threads, or byte accounting.

#ifndef PAXML_RUNTIME_SITE_RUNTIME_H_
#define PAXML_RUNTIME_SITE_RUNTIME_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "runtime/transport.h"

namespace paxml {

class Cluster;

/// What a handler sees of its execution environment: which site it runs at,
/// the placement, which run of the transport it belongs to, and a way to
/// send envelopes from that site.
class SiteContext {
 public:
  SiteContext(SiteId site, const Cluster* cluster, Transport* transport,
              RunId run)
      : site_(site), cluster_(cluster), transport_(transport), run_(run) {}

  SiteId site() const { return site_; }
  const Cluster& cluster() const { return *cluster_; }

  /// The evaluation this context sends on behalf of.
  RunId run() const { return run_; }

  /// The query site S_Q (the coordinator's address).
  SiteId query_site() const;

  /// Sends `env` from this site (env.from and env.run are stamped here, so
  /// a handler can never leak mail into another run's mailboxes).
  void Send(Envelope env) {
    env.from = site_;
    env.run = run_;
    transport_->Send(std::move(env));
  }

  /// The message plane this context sends on (EnvelopeStream below
  /// streams through it).
  Transport& transport() const { return *transport_; }

 private:
  SiteId site_;
  const Cluster* cluster_;
  Transport* transport_;
  RunId run_;
};

/// Incremental emitter of one logical envelope: open it on a head envelope
/// whose last part's bytes will grow, Append() chunks of encoded payload
/// (and/or modeled phantom bytes) as they are produced, Close() when done.
///
/// On a batching transport the head is staged into the open frame
/// immediately and every chunk extends it in place — the paper's answer
/// streaming: a site ships its answers as it settles them instead of
/// materializing one monolithic shipment, and the frame that leaves at the
/// round boundary is byte-identical to the monolithic envelope. With
/// batching off (or for free local delivery, where no wire exists) the
/// chunks accumulate privately and Close() sends one classic envelope —
/// the seed's exact behavior. Either way the receiver decodes a single
/// envelope, so handlers and accounting never see chunk boundaries.
///
/// Scoped to one handler invocation: a stream must be closed before the
/// handler returns (frames cannot seal around an open stream), and only
/// one stream per destination may be open at a time.
class EnvelopeStream {
 public:
  /// Stamps `head` with the context's site and run and opens the stream.
  /// `head.parts` must be non-empty; chunks extend the last part.
  EnvelopeStream(SiteContext& ctx, Envelope head);

  /// Closes the stream if Close() was not called explicitly.
  ~EnvelopeStream();

  EnvelopeStream(const EnvelopeStream&) = delete;
  EnvelopeStream& operator=(const EnvelopeStream&) = delete;

  /// Appends `bytes` to the growing part and `phantom_bytes` to the
  /// envelope's modeled payload.
  void Append(std::string_view bytes, uint64_t phantom_bytes = 0);

  /// Appends transcoded `bytes` that account as `logical_bytes` of logical
  /// payload (the delta-encoded answer chunks: shipped bytes shrink, the
  /// paper's byte accounting does not). Append(b, p) ==
  /// AppendRecoded(b, b.size(), p).
  void AppendRecoded(std::string_view bytes, uint64_t logical_bytes,
                     uint64_t phantom_bytes = 0);

  void Close();

 private:
  Transport* transport_;
  Envelope buffered_;    ///< the whole envelope when not staged
  RunId run_ = kNullRun;
  SiteId from_ = kNullSite;
  SiteId to_ = kNullSite;
  bool staged_ = false;  ///< head lives in the transport's open frame
  bool closed_ = false;
};

/// Algorithm-provided message handlers: the workload seam. One pure
/// virtual receives every routed part; a family's base class (e.g.
/// core/xml_handlers.h's XmlMessageHandlers) decodes its payload kinds
/// into typed callbacks on top of this.
///
/// Threading contract: site-side handlers (requests, down-messages) run on
/// transport worker threads, and — with site_threads > 1 — handlers for
/// *different fragments of one site* run concurrently within a round
/// (runtime/site_driver.h). An algorithm must therefore confine site-side
/// mutable state to per-fragment slots: a handler addressed to fragment f
/// may touch only f's state (plus the const data/query). One fragment's
/// mail is never processed concurrently with itself, and within-envelope
/// part order is preserved (a SelDown riding ahead of the AnswerRequest in
/// the same envelope still lands first). All shipped algorithm families
/// (core/{pax2,pax3,naive,parbox,reach}.cc) satisfy this: their site-side
/// state lives in per-fragment slots sized at construction (the graph
/// family's site side is read-only). Coordinator-side handlers
/// (up-messages, query/data ships) always run single-threaded on the
/// driver thread and may keep cross-fragment state (unifier, answer
/// assembly) unlocked.
/// One splittable request, produced by MessageHandlers::MakeSplitTask: the
/// paratreet visitor/interact idiom (DESIGN.md §14). Construction is the
/// cheap visitor pass — it builds `item_count()` *independent* work items
/// (64-entry bit-parallel traversals for the graph family, per-root-child
/// qualifier/selection subtrees for the XML family). RunItem is the
/// interact pass: the driver calls it once per item, concurrently for
/// distinct items, on the site worker pool — items must not share mutable
/// state (each writes private slots sized at construction). Finish runs
/// serially after every item completed and emits through `ctx` exactly the
/// sends the unsplit handler would have, byte for byte and in the same
/// order — the bit-identity contract is the evaluator's to keep; the
/// driver only supplies the threads and the replay position.
class SplitTask {
 public:
  virtual ~SplitTask() = default;

  virtual size_t item_count() const = 0;

  /// Computes item `item` into its private slot. Called at most once per
  /// item; concurrent across distinct items; must not send.
  virtual void RunItem(size_t item) = 0;

  /// Combines the item slots and emits the handler's sends through `ctx`.
  virtual Status Finish(SiteContext& ctx) = 0;
};

class MessageHandlers {
 public:
  virtual ~MessageHandlers() = default;

  /// One routed part of one envelope, in arrival order. `env` provides the
  /// routing context (from/to, phantom bytes); `part` the kind, fragment
  /// address and opaque payload bytes. The handler owns all decoding.
  virtual Status OnPart(SiteContext& ctx, const Envelope& env,
                        const WirePart& part) = 0;

  /// Splittable hook: a task evaluating `part` as independent sub-items, or
  /// null when this part cannot (or should not) split — the default. The
  /// driver asks only for the final part of a request envelope on a lane it
  /// decided to split (earlier parts of the envelope were already
  /// dispatched serially through OnPart, so down-messages are in place);
  /// a null return simply falls back to the serial OnPart path. The
  /// returned task must produce byte-identical sends to OnPart on the same
  /// part.
  virtual std::unique_ptr<SplitTask> MakeSplitTask(const Envelope& env,
                                                   const WirePart& part) {
    (void)env;
    (void)part;
    return nullptr;
  }
};

}  // namespace paxml

#endif  // PAXML_RUNTIME_SITE_RUNTIME_H_
