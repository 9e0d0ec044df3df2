// Fragment-stage memo: cross-run reuse of per-fragment partial answers.
//
// The unit of reuse is one memoizable site-side delivery — a lane envelope
// in the sense of runtime/site_driver.h (every part a site-side kind,
// consistently addressed to one fragment). Handlers are deterministic and
// their mutable state is confined to per-fragment slots (the
// MessageHandlers threading contract), so the reply set of the k-th lane
// delivery to a fragment is a pure function of (run fingerprint, fragment,
// data epoch, k) — which is exactly the memo key. A later run with the same
// fingerprint replays the recorded replies through Transport::Send instead
// of evaluating: answers, visits and every per-edge byte count stay
// bit-identical to the uncached run (a memo hit changes *when* work
// happened, never what the protocol carried), and the skipped compute is
// reported through the new RunStats memo_* fields (sim/stats.h).
//
// FragmentMemo is the shared, thread-safe LRU store (one per engine or per
// paxml_site process; share only across engines over the same cluster —
// the epoch in the key is that cluster's). MemoSession is one run's cursor
// over it, held by the run's SiteDriver and consulted once per lane
// envelope by the lane task that delivers it: per fragment it replays memo
// entries step by step until the first divergence (entry missing or request
// digest mismatch), then switches that fragment to evaluate mode — the
// lane task rebuilds the fragment's handler state by re-delivering the
// retained request prefix, and records fresh entries from there
// (DESIGN.md §12).

#ifndef PAXML_SERVING_FRAGMENT_MEMO_H_
#define PAXML_SERVING_FRAGMENT_MEMO_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/transport.h"
#include "sim/stats.h"

namespace paxml {

/// Content identity of an envelope for memo validation: FNV-1a over
/// routing, category, accounting flags and every part's kind/fragment/
/// bytes. The run id is excluded — the same request re-stamped for a new
/// run must match.
uint64_t EnvelopeDigest(const Envelope& env);

/// Thread-safe LRU store of recorded (request -> replies) fragment stages.
class FragmentMemo {
 public:
  struct Entry {
    uint64_t request_digest = 0;
    /// The replies the request's delivery sent, in send order. Stored with
    /// the recording run's stamp; replay restamps them.
    std::vector<Envelope> replies;
    double seconds = 0;       ///< site compute the delivery cost
    uint64_t reply_bytes = 0; ///< accounted payload bytes of `replies`
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };

  explicit FragmentMemo(size_t capacity = 4096);

  /// Copies the entry under `key` into `*out` if present *and* its recorded
  /// request digest equals `request_digest` (a mismatch is a miss: the
  /// request stream diverged, e.g. a down-envelope whose content depends on
  /// earlier replies of a different run).
  bool Lookup(const std::string& key, uint64_t request_digest, Entry* out);

  void Insert(const std::string& key, Entry entry);

  Stats stats() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  using LruEntry = std::pair<std::string, Entry>;

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<LruEntry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<LruEntry>::iterator> index_;
  Stats stats_;
};

/// One run's cursor over a FragmentMemo. Thread-safe (a pooled transport
/// delivers different sites of a round concurrently, and a site's lane
/// tasks run concurrently); per-fragment sequencing needs no ordering
/// beyond that because a fragment lives on exactly one site and, within a
/// delivery, in exactly one lane task, which walks its envelopes in mail
/// order.
class MemoSession {
 public:
  /// `fingerprint` is RunFingerprint(spec) (serving/fingerprint.h);
  /// `epoch` the cluster's data_epoch() when the run opened.
  MemoSession(std::shared_ptr<FragmentMemo> memo, std::string fingerprint,
              uint64_t epoch);

  /// Consults the memo for the fragment's next step. On a hit, fills
  /// `*replies` (copies; caller restamps run ids and sends them), adds the
  /// hit's savings to `*saved` (the delivery's report), retains the request
  /// for later recovery, and returns true. On a miss, returns
  /// false and — on the *first* miss of a fragment that had hits — moves
  /// the retained request prefix into `*recover`: the caller must re-deliver
  /// it through a discard plane to rebuild the fragment's handler state
  /// before evaluating. Subsequent calls for that fragment return false
  /// with `*recover` empty (evaluate mode).
  bool Lookup(FragmentId fragment, const Envelope& request,
              std::vector<Envelope>* replies, std::vector<Envelope>* recover,
              MemoSavings* saved);

  /// Records the fragment's next step (evaluate mode only): the request's
  /// digest, its reply set and the compute it cost.
  void Record(FragmentId fragment, const Envelope& request,
              std::vector<Envelope> replies, double seconds);

  const std::string& fingerprint() const { return fingerprint_; }

 private:
  struct FragmentTrack {
    uint64_t next_step = 0;
    bool replaying = true;
    std::vector<Envelope> retained;  ///< memo-served requests, for recovery
  };

  std::string Key(FragmentId fragment, uint64_t step) const;

  const std::shared_ptr<FragmentMemo> memo_;
  const std::string fingerprint_;
  const uint64_t epoch_;

  std::mutex mu_;
  std::map<FragmentId, FragmentTrack> tracks_;
};

}  // namespace paxml

#endif  // PAXML_SERVING_FRAGMENT_MEMO_H_
