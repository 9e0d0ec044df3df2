// Accounting for simulated distributed query runs.
//
// The paper's guarantees are stated in exactly these units:
//  * visits per site (<= 3 for PaX3, <= 2 for PaX2, 1 for ParBoX),
//  * communication volume O(|Q| |FT| + |ans|) — bytes, independent of |T|,
//  * total computation (sum over sites) and parallel computation (max over
//    sites per round, summed over rounds).

#ifndef PAXML_SIM_STATS_H_
#define PAXML_SIM_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace paxml {

/// Index of a site in a Cluster.
using SiteId = int32_t;
inline constexpr SiteId kNullSite = -1;

/// Accounted traffic on one directed site pair. With the framed message
/// plane (runtime/frame.h) a *message* is one frame on the wire; the
/// envelopes it coalesced are counted separately, so batching shrinks
/// `messages` while `envelopes` and `bytes` stay exactly what the protocol
/// produced.
struct EdgeStats {
  uint64_t messages = 0;   ///< frames (== envelopes when batching is off)
  uint64_t envelopes = 0;  ///< accounted envelopes carried by those frames
  uint64_t bytes = 0;

  bool operator==(const EdgeStats&) const = default;
};

/// Counters for one site across one query run.
struct SiteStats {
  int visits = 0;                ///< rounds in which the site participated
  uint64_t bytes_sent = 0;       ///< payload bytes sent by the site
  uint64_t bytes_received = 0;   ///< payload bytes delivered to the site
  uint64_t messages_sent = 0;
  uint64_t messages_received = 0;
  double compute_seconds = 0;    ///< wall time of the site's work closures
};

/// Latency/bandwidth model turning message counts and bytes into seconds.
/// Defaults approximate the paper's local LAN.
///
/// Field contract (enforced by TransferSeconds):
///  * `latency_seconds` >= 0 — fixed per-message cost; 0 models an ideal
///    network, negative makes no sense.
///  * `bandwidth_bytes_per_second` > 0 — a zero here used to divide every
///    byte count by 0, silently turning each derived elapsed-time metric
///    into inf. Model an infinitely fast link with a very large value, not
///    with 0.
struct NetworkCostModel {
  double latency_seconds = 0.0001;            ///< 0.1 ms per message
  double bandwidth_bytes_per_second = 100e6;  ///< ~100 MB/s

  /// Fixed framing overhead charged per message on top of the payload:
  /// headers, acks, protocol framing — the bytes a real stack adds to every
  /// message regardless of its size (>= 0; a TCP/IP+Ethernet header train
  /// is ~66 bytes). This is the term per-(run,edge) frame batching
  /// amortizes: N envelopes coalesced into one frame pay the overhead once.
  /// Default 0 keeps the historical model (payload bytes only).
  double per_message_overhead_bytes = 0;

  bool Valid() const {
    return latency_seconds >= 0 && bandwidth_bytes_per_second > 0 &&
           per_message_overhead_bytes >= 0;
  }

  double TransferSeconds(uint64_t messages, uint64_t bytes) const {
    PAXML_CHECK(Valid());
    const double wire_bytes =
        static_cast<double>(bytes) +
        static_cast<double>(messages) * per_message_overhead_bytes;
    return static_cast<double>(messages) * latency_seconds +
           wire_bytes / bandwidth_bytes_per_second;
  }
};

/// Site-pool saturation observed while a run's deliveries fanned out
/// (runtime/site_driver.h, DESIGN.md §14). Like MemoSavings these are
/// *extra* information, excluded from the bit-identity contract: `tasks`
/// counts the lane and split-item tasks this run's deliveries submitted
/// (exact, per run), while the peaks are gauges of the pool the run
/// shared — under concurrent runs they show combined pressure, which is
/// precisely the saturation signal the bench tables report.
struct PoolStats {
  uint64_t tasks = 0;       ///< pool tasks submitted (lanes + split chunks)
  uint64_t busy_peak = 0;   ///< max simultaneously busy workers observed
  uint64_t queue_peak = 0;  ///< max queued-task depth observed

  PoolStats& operator+=(const PoolStats& o) {
    tasks += o.tasks;
    busy_peak = busy_peak > o.busy_peak ? busy_peak : o.busy_peak;
    queue_peak = queue_peak > o.queue_peak ? queue_peak : o.queue_peak;
    return *this;
  }
};

/// Work a fragment-stage memo avoided during a run (serving layer,
/// DESIGN.md §12). Savings are *extra* information: the canonical counters
/// (visits, bytes, messages) still describe the protocol the coordinator
/// observed — a memo-served reply is accounted exactly like a computed one,
/// which is what keeps cached and uncached runs bit-identical.
struct MemoSavings {
  uint64_t fragment_hits = 0;  ///< memo-served (fragment, step) deliveries
  uint64_t saved_bytes = 0;    ///< accounted reply bytes served from memo
  double saved_seconds = 0;    ///< site compute time the hits skipped

  MemoSavings& operator+=(const MemoSavings& o) {
    fragment_hits += o.fragment_hits;
    saved_bytes += o.saved_bytes;
    saved_seconds += o.saved_seconds;
    return *this;
  }
};

/// Aggregated statistics of one distributed query evaluation.
struct RunStats {
  std::vector<SiteStats> per_site;

  int rounds = 0;                   ///< coordinator-driven stages executed

  /// Accounted messages on the wire. With frame batching (the default) a
  /// message is one frame — all of a round's envelopes on one (run, edge);
  /// with batching off it is one envelope, the historical meaning.
  uint64_t total_messages = 0;

  /// Accounted envelopes the protocol produced, regardless of how many
  /// frames carried them. Invariant: batching changes total_messages but
  /// never total_envelopes (or any byte total) — tested property.
  uint64_t total_envelopes = 0;

  uint64_t total_bytes = 0;         ///< all payload bytes on the wire
  uint64_t answer_bytes = 0;        ///< bytes of shipped answers (<= total)
  uint64_t data_bytes_shipped = 0;  ///< XML tree data moved (Naive baseline)

  /// Bytes *actually written* on the (modeled or real) wire with the framed
  /// message plane: every sealed frame's encoded size — header (run, edge,
  /// sequence) plus the materialized payload encodings. Differs from
  /// total_bytes in both directions: it adds the frame/part headers but
  /// excludes phantom bytes (modeled payloads no real bytes back). Control
  /// frames count too — they are written even though they are free in the
  /// paper's model. Zero with batching off (no frames exist).
  uint64_t wire_bytes = 0;

  /// Always equal to wire_bytes: frames have one encoding on the wire. Kept
  /// for readers that report it (the repository benchmark does).
  uint64_t wire_raw_bytes = 0;

  /// Answer-delta codec effect: logical bytes of delta-transcoded parts
  /// (what the paper's model charges — absolute varint ids) vs the bytes
  /// those parts actually occupy inside frames after delta encoding.
  /// Zero when no transcoded part shipped. delta_wire_bytes <=
  /// delta_logical_bytes on sorted id streams (tested ≥30% smaller on FT2).
  uint64_t delta_logical_bytes = 0;
  uint64_t delta_wire_bytes = 0;

  /// Per-edge traffic, keyed (from, to). Only cross-site accounted messages
  /// appear (local delivery is free); kNullSite marks coordinator-originated
  /// messages not attributable to a site's fragment work.
  std::map<std::pair<SiteId, SiteId>, EdgeStats> edges;

  /// Sum over rounds of the maximum site compute time in that round: the
  /// perceived (parallel) evaluation time.
  double parallel_seconds = 0;

  /// Sum of compute over all sites and rounds.
  double total_compute_seconds = 0;

  /// Coordinator-side work (evalFT unification etc.).
  double coordinator_seconds = 0;

  /// Fragment-memo savings (zero unless TransportOptions::fragment_memo is
  /// set). Not part of the paper's accounting; reported so serving-layer
  /// reuse is visible without perturbing any equality-tested counter.
  uint64_t memo_fragment_hits = 0;
  uint64_t memo_saved_bytes = 0;
  double memo_saved_seconds = 0;

  /// Site-pool saturation splits (zero when no delivery fanned out). Like
  /// memo_*, advisory: excluded from every bit-identity comparison — the
  /// whole point of the parallel path is that only these and the timing
  /// fields may differ from the serial run.
  uint64_t pool_tasks = 0;
  uint64_t pool_busy_peak = 0;
  uint64_t pool_queue_peak = 0;

  int max_visits() const;
  uint64_t total_visits() const;

  /// Parallel time plus modeled transfer time: the end-to-end latency a
  /// client would observe.
  double ElapsedSeconds(const NetworkCostModel& net = {}) const {
    return parallel_seconds + coordinator_seconds +
           net.TransferSeconds(total_messages, total_bytes);
  }

  /// Multi-line human-readable summary.
  std::string ToString() const;
};

/// What one site delivery reports besides its sends: its parallel cost,
/// the memo savings and the pool counters. SiteDriver::DeliverTimed builds
/// it (runtime/site_driver.h); a paxml_site peer sends it home inside its
/// RoundDone record (runtime/wire.h). Either way AddTo is the one merge
/// into RunStats.
struct DeliveryReport {
  /// Parallel cost: serial work plus max-over-tasks for each fanned-out
  /// segment, in thread-CPU seconds.
  double seconds = 0;
  MemoSavings memo;
  PoolStats pool;

  /// Folds the memo savings and pool counters into `stats`: sums, except
  /// the pool peaks, which take the max. `seconds` is not folded — a round
  /// prices its sites' costs as a max, which the Coordinator owns.
  void AddTo(RunStats* stats) const;
};

}  // namespace paxml

#endif  // PAXML_SIM_STATS_H_
