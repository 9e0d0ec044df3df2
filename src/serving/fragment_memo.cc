#include "serving/fragment_memo.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace paxml {

namespace {

inline void HashBytes(uint64_t* h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ULL;  // FNV-1a prime
  }
}

template <typename T>
inline void HashValue(uint64_t* h, T v) {
  HashBytes(h, &v, sizeof(v));
}

}  // namespace

uint64_t EnvelopeDigest(const Envelope& env) {
  uint64_t h = 14695981039346656037ULL;  // FNV offset basis
  HashValue(&h, env.from);
  HashValue(&h, env.to);
  HashValue(&h, static_cast<uint8_t>(env.category));
  HashValue(&h, static_cast<uint8_t>(env.accounted));
  HashValue(&h, env.phantom_bytes);
  for (const WirePart& part : env.parts) {
    HashValue(&h, static_cast<uint8_t>(part.kind));
    HashValue(&h, part.fragment);
    HashValue(&h, static_cast<uint8_t>(part.accounted));
    HashValue(&h, static_cast<uint64_t>(part.bytes.size()));
    HashBytes(&h, part.bytes.data(), part.bytes.size());
  }
  return h;
}

FragmentMemo::FragmentMemo(size_t capacity) : capacity_(capacity) {
  PAXML_CHECK_GT(capacity_, 0u);
}

bool FragmentMemo::Lookup(const std::string& key, uint64_t request_digest,
                          Entry* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end() || it->second->second.request_digest != request_digest) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = it->second->second;
  return true;
}

void FragmentMemo::Insert(const std::string& key, Entry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = index_.find(key); it != index_.end()) {
    // Two runs raced to record the same step; the entries agree (determinism)
    // so keep the incumbent and just refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(entry));
  index_[key] = lru_.begin();
  ++stats_.insertions;
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

FragmentMemo::Stats FragmentMemo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t FragmentMemo::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

MemoSession::MemoSession(std::shared_ptr<FragmentMemo> memo,
                         std::string fingerprint, uint64_t epoch)
    : memo_(std::move(memo)),
      fingerprint_(std::move(fingerprint)),
      epoch_(epoch) {
  PAXML_CHECK(memo_ != nullptr);
}

std::string MemoSession::Key(FragmentId fragment, uint64_t step) const {
  return fingerprint_ +
         StringFormat("#f%d:e%llu:s%llu", fragment,
                      static_cast<unsigned long long>(epoch_),
                      static_cast<unsigned long long>(step));
}

bool MemoSession::Lookup(FragmentId fragment, const Envelope& request,
                         std::vector<Envelope>* replies,
                         std::vector<Envelope>* recover,
                         MemoSavings* saved) {
  std::lock_guard<std::mutex> lock(mu_);
  FragmentTrack& track = tracks_[fragment];
  if (!track.replaying) return false;
  FragmentMemo::Entry entry;
  if (!memo_->Lookup(Key(fragment, track.next_step), EnvelopeDigest(request),
                     &entry)) {
    track.replaying = false;
    *recover = std::move(track.retained);
    track.retained.clear();
    return false;
  }
  track.retained.push_back(request);
  ++track.next_step;
  *saved += MemoSavings{1, entry.reply_bytes, entry.seconds};
  *replies = std::move(entry.replies);
  return true;
}

void MemoSession::Record(FragmentId fragment, const Envelope& request,
                         std::vector<Envelope> replies, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  FragmentTrack& track = tracks_[fragment];
  PAXML_CHECK(!track.replaying);  // Record follows a Lookup miss
  uint64_t reply_bytes = 0;
  for (const Envelope& r : replies) reply_bytes += r.WireBytes();
  memo_->Insert(Key(fragment, track.next_step),
                FragmentMemo::Entry{EnvelopeDigest(request), std::move(replies),
                                    seconds, reply_bytes});
  ++track.next_step;
}

}  // namespace paxml
