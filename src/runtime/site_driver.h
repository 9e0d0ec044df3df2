// SiteDriver: the site-side half of one evaluation's round loop.
//
// Extracted from the Coordinator so that both drivers of a run share one
// dispatch surface: the Coordinator delivers local sites' mail (and its own
// up-replies) through it, and a paxml_site peer (runtime/socket_server.h)
// delivers its hosted site's mail through an identical driver built from
// the client's RunSpec — the round barrier then works as a control-record
// exchange instead of a function call (DESIGN.md §9). Either way, a
// delivery decodes the envelopes in order into the algorithm's
// MessageHandlers through one SiteContext per site.
//
// One delivery walk (DESIGN.md §10). DeliverTimed() delivers a site's
// round mail in order. With no memo and nothing to fan out it is the serial
// walk straight into the transport. Otherwise the mail splits into
// *barriers* — query ship, up-messages, data ship, mixed-fragment
// envelopes — each delivered serially in place, and *lane segments*:
// maximal runs of envelopes whose parts all address one fragment with
// site-side kinds. A segment's envelopes group into per-fragment lanes,
// merged into at most site_threads lane tasks on the driver's pool; one
// task runs inline on the calling thread. A lane task delivers its
// envelopes in mail order through a private capture plane, built on its
// first evaluation, and after the tasks join the captured sends replay
// into the real transport in the serial mail order. So staging order,
// frame sequences and every per-edge byte/message/envelope count are
// bit-identical to the serial delivery
// (tested property). This is safe because every algorithm's site-side
// state is confined to per-fragment slots (the MessageHandlers threading
// contract, runtime/site_runtime.h), and a fragment stays in one lane.
//
// Fragment-stage memoization (DESIGN.md §12) is the per-envelope step of a
// lane task. On a hit, the recorded replies become the envelope's sends.
// On the first miss of a fragment after hits, the task rebuilds that
// fragment's handler state by re-delivering the memo-served request prefix
// with its sends discarded, then evaluates and records from there. Replayed
// replies go through Transport::Send like computed ones, so RunStats'
// accounted counters stay bit-identical and only the memo_* savings
// fields differ.
//
// Each delivery returns one DeliveryReport (sim/stats.h): its parallel
// cost, the memo savings of its hits and the pool counters of its fan-out.
// Nothing accumulates in the driver between deliveries; the Coordinator
// folds a local site's report into RunStats, a paxml_site peer sends its
// report home in the RoundDone record.
//
// Intra-fragment splitting (DESIGN.md §14): with
// TransportOptions::split_threshold_pct set and no memo session, a
// segment's largest lane is offered to the algorithm via
// MessageHandlers::MakeSplitTask when it is a single envelope carrying at
// least that percentage of the segment's byte weight — the paratreet
// visitor/interact idiom. Its item chunks run in the same pool batch as
// the other lanes' tasks, and the evaluator's Finish() emits
// byte-identical sends in the serial order. When the split lane is the
// whole segment there is no interleaving to reproduce, so Finish() sends
// straight into the real transport. `parallel_seconds` is max over every
// task of the batch, lanes and chunks alike.

#ifndef PAXML_RUNTIME_SITE_DRIVER_H_
#define PAXML_RUNTIME_SITE_DRIVER_H_

#include <memory>
#include <vector>

#include "runtime/site_runtime.h"
#include "runtime/transport.h"
#include "serving/fragment_memo.h"

namespace paxml {

class Cluster;
class WorkerPool;

class SiteDriver {
 public:
  /// Builds one SiteContext per site of `cluster`, all dispatching into
  /// `handlers` and sending through `transport` under `run`. A non-null
  /// `pool` with `site_threads` > 1 lets lane segments fan out; the pool
  /// must not be the one the transport's own delivery rounds execute on
  /// (see Cluster::site_worker_pool). A non-null `memo` serves repeated
  /// lane deliveries from the fragment-stage memo.
  SiteDriver(const Cluster* cluster, Transport* transport, RunId run,
             MessageHandlers* handlers,
             std::shared_ptr<WorkerPool> pool = nullptr,
             size_t site_threads = 1,
             std::shared_ptr<MemoSession> memo = nullptr);

  SiteDriver(const SiteDriver&) = delete;
  SiteDriver& operator=(const SiteDriver&) = delete;

  /// Decodes and dispatches `mail` at `site`, in order; stops at the first
  /// handler error. Always serial — the coordinator's up-mail dispatch
  /// depends on it (coordinator-side handler state is single-threaded).
  Status Deliver(SiteId site, std::vector<Envelope> mail);

  /// Delivers a site's *round* mail through the one walk (see the header
  /// comment) and fills *report: the memo savings and pool counters of
  /// this delivery, and in `seconds` its *parallel cost* — the unit both
  /// the local round loop and a remote peer's RoundDone report in. Serial
  /// work (barriers, replay) is measured as thread-CPU time;
  /// each fanned-out segment adds the maximum over its tasks' thread-CPU
  /// time, the intra-site analogue of the cluster's max-over-sites metric
  /// (sim/cluster.h), so the reported cost reflects the fan-out even when
  /// the host has fewer cores than lanes. On a handler error, sends up to
  /// and including the failing envelope (in serial order) are replayed,
  /// the rest discarded, and the first failing envelope's status (by
  /// serial position) is returned — later lanes may have run further than
  /// the serial order would have, which only ever happens on runs that are
  /// about to be torn down.
  Status DeliverTimed(SiteId site, std::vector<Envelope> mail,
                      DeliveryReport* report);

 private:
  struct Segment;

  Status DeliverSegment(SiteId site, std::vector<Envelope>* mail,
                        DeliveryReport* report);
  /// One lane task: delivers the segment envelopes `indices` (ascending)
  /// in order, each through the memo step when there is a memo, into the
  /// segment's per-envelope status and send slots, adding memo hits to
  /// *saved; stops at the first failure.
  void DeliverLane(SiteId site, const std::vector<size_t>& indices,
                   Segment* segment, MemoSavings* saved);

  std::vector<SiteContext> contexts_;  ///< one per site, indexed by SiteId
  const Cluster* cluster_;
  Transport* transport_;
  RunId run_;
  MessageHandlers* handlers_;
  std::shared_ptr<WorkerPool> pool_;
  size_t site_threads_ = 1;
  std::shared_ptr<MemoSession> memo_;
};

}  // namespace paxml

#endif  // PAXML_RUNTIME_SITE_DRIVER_H_
