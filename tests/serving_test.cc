// Serving-layer tests (src/serving/, DESIGN.md §12): canonical query
// fingerprints, the answer cache's hit/leader/follower admission and LRU,
// single-flight coalescing under concurrent identical submissions, epoch
// invalidation, the fragment-stage memo's keys, and the MemoSession
// divergence/recovery contract. That a memo run reproduces the RunStats of
// a run without one is checked by the equivalence matrix
// (equivalence_matrix_test.cc).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "fragment/fragmenter.h"
#include "runtime/site_driver.h"
#include "runtime/worker_pool.h"
#include "serving/answer_cache.h"
#include "serving/fingerprint.h"
#include "serving/fragment_memo.h"
#include "test_util.h"

namespace paxml {
namespace {

// ---- Fingerprints -----------------------------------------------------------

TEST(FingerprintTest, CanonicalizesWhitespaceOutsideQuotesOnly) {
  EXPECT_EQ(CanonicalQueryText("  //a[b]  "), "//a[b]");
  EXPECT_EQ(CanonicalQueryText("//a\t\n [ b ]"), "//a [ b ]");
  // Quoted literals keep their spacing: different strings, different query.
  EXPECT_EQ(CanonicalQueryText("a[c = \"A  B\"]"), "a[c = \"A  B\"]");
  EXPECT_NE(CanonicalQueryText("a[c = \"A  B\"]"),
            CanonicalQueryText("a[c = \"A B\"]"));
  // Conservative: token-level differences are preserved, never merged.
  EXPECT_NE(CanonicalQueryText("//a [ b ]"), CanonicalQueryText("//a[b]"));
}

TEST(FingerprintTest, SeparatesFamiliesAlgorithmsAndOptions) {
  RunSpec base{"PaX2", "reach 1 2", false, 0, "xml"};
  RunSpec graph = base;
  graph.family = "graph";
  // The colliding-query-text case: identical text, different workload.
  EXPECT_NE(RunFingerprint(base), RunFingerprint(graph));

  RunSpec annotated = base;
  annotated.use_annotations = true;
  EXPECT_NE(RunFingerprint(base), RunFingerprint(annotated));

  RunSpec shipped = base;
  shipped.ship_mode = 1;
  EXPECT_NE(RunFingerprint(base), RunFingerprint(shipped));

  RunSpec algo = base;
  algo.algorithm = "PaX3";
  EXPECT_NE(RunFingerprint(base), RunFingerprint(algo));

  RunSpec spaced = base;
  spaced.query = "  reach 1   2";
  EXPECT_EQ(RunFingerprint(base), RunFingerprint(spaced));
}

// ---- AnswerCache unit -------------------------------------------------------

TEST(AnswerCacheTest, HitLeaderFollowerRolesAndLru) {
  AnswerCache cache(/*capacity=*/2);
  auto result = std::make_shared<const DistributedResult>();

  AnswerCache::Ticket leader = cache.Begin("a");
  EXPECT_EQ(leader.role, AnswerCache::Role::kLeader);
  ASSERT_NE(leader.flight, nullptr);

  AnswerCache::Ticket follower = cache.Begin("a");
  EXPECT_EQ(follower.role, AnswerCache::Role::kFollower);
  EXPECT_EQ(follower.flight, leader.flight);

  bool woken = false;
  follower.flight->AddWaiter([&] { woken = true; });
  EXPECT_FALSE(woken);
  cache.Publish(leader.flight, "a", result);
  EXPECT_TRUE(woken);

  AnswerCache::Ticket hit = cache.Begin("a");
  EXPECT_EQ(hit.role, AnswerCache::Role::kHit);
  EXPECT_EQ(hit.cached, result);

  // A waiter attached after completion runs immediately.
  bool late = false;
  follower.flight->AddWaiter([&] { late = true; });
  EXPECT_TRUE(late);

  // LRU order is [a] after the hit; inserting "b" then "c" overflows the
  // 2-entry capacity and evicts "a", the least recently used.
  cache.Publish(cache.Begin("b").flight, "b", result);
  cache.Publish(cache.Begin("c").flight, "c", result);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.Begin("a").role, AnswerCache::Role::kLeader);

  const AnswerCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
}

TEST(AnswerCacheTest, AbortedFlightCachesNothingAndReportsFailure) {
  AnswerCache cache;
  AnswerCache::Ticket leader = cache.Begin("k");
  AnswerCache::Ticket follower = cache.Begin("k");

  Status seen = Status::OK();
  follower.flight->AddWaiter([flight = follower.flight, &seen] {
    std::lock_guard<std::mutex> lock(flight->mu);
    seen = flight->failure;
  });
  cache.Abort(leader.flight, "k", Status::Internal("evaluation failed"));
  EXPECT_EQ(seen.code(), StatusCode::kInternal);

  // Errors are never cached: the next submission retries as a new leader.
  EXPECT_EQ(cache.Begin("k").role, AnswerCache::Role::kLeader);
  EXPECT_EQ(cache.size(), 0u);
}

// ---- Engine integration -----------------------------------------------------

class ServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tree t = testing::BuildClienteleTree();
    auto doc = FragmentByCuts(t, testing::ClienteleCuts(t));
    ASSERT_TRUE(doc.ok());
    doc_ = std::make_shared<FragmentedDocument>(std::move(doc).ValueOrDie());
    cluster_ = std::make_unique<Cluster>(doc_, 4);
    cluster_->PlaceRootAndSpread();
  }

  EngineConfig CacheConfig(size_t depth,
                           TransportKind kind = TransportKind::kSync) const {
    EngineConfig config;
    config.depth = depth;
    config.transport = kind;
    config.serving.answer_cache = true;
    return config;
  }

  std::shared_ptr<FragmentedDocument> doc_;
  std::unique_ptr<Cluster> cluster_;
};

const char* kQueryA = "clientele/client/broker/name";
const char* kQueryB = "//stock/code";

// The acceptance property: a repeated query is served from the cache in
// zero rounds and zero wire bytes, with answers bit-identical to the
// uncached run.
TEST_F(ServingTest, RepeatedQueryServedInZeroRoundsZeroBytes) {
  Engine engine(*cluster_, CacheConfig(1));
  QueryReport first = engine.Submit(kQueryA).TakeReport();
  ASSERT_TRUE(first.result.ok());
  EXPECT_FALSE(first.served_from_cache);
  EXPECT_GT(first.rounds, 0);
  EXPECT_GT(first.stats.total_bytes, 0u);

  QueryReport second = engine.Submit(kQueryA).TakeReport();
  ASSERT_TRUE(second.result.ok());
  EXPECT_TRUE(second.served_from_cache);
  EXPECT_EQ(second.rounds, 0);
  EXPECT_EQ(second.stats.rounds, 0);
  EXPECT_EQ(second.stats.total_bytes, 0u);
  EXPECT_EQ(second.stats.wire_bytes, 0u);
  EXPECT_EQ(second.stats.total_messages, 0u);
  EXPECT_EQ(second.stats.total_envelopes, 0u);
  EXPECT_EQ(second.stats.total_visits(), 0u);
  ASSERT_EQ(second.stats.per_site.size(), cluster_->site_count());
  EXPECT_EQ(second.result->answers, first.result->answers);

  ASSERT_NE(engine.answer_cache(), nullptr);
  const AnswerCache::Stats stats = engine.answer_cache()->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);

  // Whitespace variants share the canonical entry.
  QueryReport third =
      engine.Submit(std::string("  clientele/client/broker/name ")).TakeReport();
  ASSERT_TRUE(third.result.ok());
  EXPECT_TRUE(third.served_from_cache);
  EXPECT_EQ(third.result->answers, first.result->answers);
}

// N concurrent identical submissions run the protocol exactly once; the
// rest are followers of the leader's flight (or late enough to hit).
TEST_F(ServingTest, SingleFlightCoalescesConcurrentIdenticalQueries) {
  constexpr size_t kN = 8;
  Engine engine(*cluster_, CacheConfig(4, TransportKind::kPooled));
  std::vector<QueryHandle> handles;
  for (size_t i = 0; i < kN; ++i) handles.push_back(engine.Submit(kQueryB));

  std::vector<GlobalNodeId> answers;
  for (size_t i = 0; i < kN; ++i) {
    QueryReport report = handles[i].TakeReport();
    ASSERT_TRUE(report.result.ok());
    if (i == 0) {
      answers = report.result->answers;
    } else {
      EXPECT_EQ(report.result->answers, answers);
    }
    if (report.served_from_cache) {
      EXPECT_EQ(report.stats.total_bytes, 0u);
      EXPECT_EQ(report.rounds, 0);
    }
  }
  const AnswerCache::Stats stats = engine.answer_cache()->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.coalesced, kN - 1);
}

TEST_F(ServingTest, EpochBumpInvalidatesCachedAnswers) {
  Engine engine(*cluster_, CacheConfig(1));
  QueryReport first = engine.Submit(kQueryA).TakeReport();
  ASSERT_TRUE(first.result.ok());

  // The data-change hook: Place() bumps it on re-placement; here we bump it
  // directly, as an ingestion path would after mutating fragments.
  cluster_->AdvanceDataEpoch();

  QueryReport second = engine.Submit(kQueryA).TakeReport();
  ASSERT_TRUE(second.result.ok());
  EXPECT_FALSE(second.served_from_cache);
  EXPECT_GT(second.rounds, 0);
  EXPECT_EQ(second.result->answers, first.result->answers);
  EXPECT_EQ(engine.answer_cache()->stats().misses, 2u);
}

TEST_F(ServingTest, FailedQueriesAreNotCached) {
  Engine engine(*cluster_, CacheConfig(1));
  QueryReport first = engine.Submit("///[").TakeReport();
  EXPECT_FALSE(first.result.ok());
  QueryReport second = engine.Submit("///[").TakeReport();
  EXPECT_FALSE(second.result.ok());
  // Both submissions led their own (failing) evaluation; nothing cached.
  const AnswerCache::Stats stats = engine.answer_cache()->stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.insertions, 0u);
}

// The multi-front-end deployment: engines over the same cluster share one
// cache; an answer computed by one front-end serves the other's clients.
TEST_F(ServingTest, SharedCacheServesAcrossEngines) {
  auto shared = std::make_shared<AnswerCache>();
  EngineConfig config = CacheConfig(1);
  config.serving.shared_answer_cache = shared;

  Engine a(*cluster_, config);
  QueryReport first = a.Submit(kQueryA).TakeReport();
  ASSERT_TRUE(first.result.ok());

  Engine b(*cluster_, config);
  QueryReport second = b.Submit(kQueryA).TakeReport();
  ASSERT_TRUE(second.result.ok());
  EXPECT_TRUE(second.served_from_cache);
  EXPECT_EQ(second.result->answers, first.result->answers);
  EXPECT_EQ(shared->stats().hits, 1u);
}

// ---- Fragment-stage memo ----------------------------------------------------

TEST_F(ServingTest, MemoKeysOnEpochAndFingerprint) {
  EngineConfig config;
  config.depth = 1;
  config.serving.fragment_memo = std::make_shared<FragmentMemo>();
  Engine engine(*cluster_, config);

  QueryReport first = engine.Submit(kQueryA).TakeReport();
  ASSERT_TRUE(first.result.ok());

  // A different query records its own entries, hits nothing.
  QueryReport other = engine.Submit(kQueryB).TakeReport();
  ASSERT_TRUE(other.result.ok());
  EXPECT_EQ(other.stats.memo_fragment_hits, 0u);

  // An epoch bump orphans every recorded entry.
  cluster_->AdvanceDataEpoch();
  QueryReport after = engine.Submit(kQueryA).TakeReport();
  ASSERT_TRUE(after.result.ok());
  EXPECT_EQ(after.stats.memo_fragment_hits, 0u);
  EXPECT_EQ(after.result->answers, first.result->answers);
}

// ---- MemoSession divergence/recovery contract -------------------------------

Envelope MakeLaneEnvelope(FragmentId fragment, const std::string& bytes) {
  Envelope env;
  env.from = 0;
  env.to = 1;
  WirePart part;
  part.kind = MessageKind::kQualRequest;
  part.fragment = fragment;
  part.bytes = bytes;
  env.parts.push_back(std::move(part));
  return env;
}

TEST(MemoSessionTest, ReplaysUntilDivergenceThenHandsBackRecoveryPrefix) {
  auto memo = std::make_shared<FragmentMemo>();
  const Envelope req_a = MakeLaneEnvelope(1, "step-a");
  const Envelope req_b = MakeLaneEnvelope(1, "step-b");
  const Envelope req_x = MakeLaneEnvelope(1, "diverged");
  const Envelope reply = MakeLaneEnvelope(1, "reply");

  {
    MemoSession first(memo, "fp", /*epoch=*/1);
    std::vector<Envelope> replies, recover;
    MemoSavings none;
    EXPECT_FALSE(first.Lookup(1, req_a, &replies, &recover, &none));
    EXPECT_TRUE(recover.empty());  // nothing was ever replayed
    first.Record(1, req_a, {reply}, 0.25);
    EXPECT_FALSE(first.Lookup(1, req_b, &replies, &recover, &none));
    first.Record(1, req_b, {reply, reply}, 0.25);
    EXPECT_EQ(none.fragment_hits, 0u);
  }

  {
    MemoSession second(memo, "fp", /*epoch=*/1);
    std::vector<Envelope> replies, recover;
    MemoSavings saved;
    ASSERT_TRUE(second.Lookup(1, req_a, &replies, &recover, &saved));
    EXPECT_EQ(replies.size(), 1u);
    // Divergence at step 2: the miss returns the memo-served request prefix
    // so the driver can rebuild the fragment's handler state.
    replies.clear();
    EXPECT_FALSE(second.Lookup(1, req_x, &replies, &recover, &saved));
    ASSERT_EQ(recover.size(), 1u);
    EXPECT_EQ(EnvelopeDigest(recover[0]), EnvelopeDigest(req_a));
    // Evaluate mode from here: later misses hand back no prefix twice.
    recover.clear();
    EXPECT_FALSE(second.Lookup(1, req_b, &replies, &recover, &saved));
    EXPECT_TRUE(recover.empty());
    // Only the hit adds to the caller's savings: its entry's recorded cost
    // and reply bytes.
    EXPECT_EQ(saved.fragment_hits, 1u);
    EXPECT_EQ(saved.saved_seconds, 0.25);
    EXPECT_EQ(saved.saved_bytes, reply.WireBytes());
  }

  // A different epoch shares nothing.
  {
    MemoSession other(memo, "fp", /*epoch=*/2);
    std::vector<Envelope> replies, recover;
    MemoSavings saved;
    EXPECT_FALSE(other.Lookup(1, req_a, &replies, &recover, &saved));
  }
}

// ---- The driver's memo step: recovery after hits ----------------------------

/// A site program whose replies depend on per-fragment state: every request
/// to fragment f bumps f's counter and replies "f:count:payload" to the
/// query site. A fragment whose state was not rebuilt after memo hits
/// answers with a stale count.
class CountingHandlers : public MessageHandlers {
 public:
  explicit CountingHandlers(size_t fragments) : counts_(fragments, 0) {}

  Status OnPart(SiteContext& ctx, const Envelope&,
                const WirePart& part) override {
    const int count = ++counts_[static_cast<size_t>(part.fragment)];
    Envelope reply;
    reply.to = ctx.query_site();
    reply.parts.push_back({MessageKind::kQualUp, part.fragment,
                           std::to_string(part.fragment) + ":" +
                               std::to_string(count) + ":" + part.bytes,
                           true});
    ctx.Send(std::move(reply));
    return Status::OK();
  }

 private:
  std::vector<int> counts_;  ///< per-fragment slots, as the contract asks
};

/// The driver's real plane: records every envelope replayed into it.
class RecordingTransport : public Transport {
 public:
  RecordingTransport() : Transport(TransportOptions{}) {}
  void Send(Envelope env) override { sent.push_back(std::move(env)); }
  Status RunRound(RunId, const std::vector<SiteId>&, const DeliverFn&,
                  std::vector<double>*) override {
    return Status::Internal("no rounds");
  }
  const char* name() const override { return "recording"; }

  std::vector<Envelope> sent;
};

std::string Describe(const std::vector<Envelope>& sent) {
  std::string out;
  for (const Envelope& env : sent) {
    out += std::to_string(env.run) + "/" + std::to_string(env.from) + ">" +
           std::to_string(env.to) + ":";
    for (const WirePart& part : env.parts) out += part.bytes + ";";
    out += "\n";
  }
  return out;
}

// Hits on a fragment, then a miss: the driver must rebuild the fragment's
// handler state from the memo-served prefix before evaluating, or the
// replies after the miss differ from a delivery without a memo. Fragment
// a diverges at step 1 (its recorded step-1 request differs); fragment b
// runs out of entries at step 2, after two hits.
TEST(SiteDriverMemoTest, RecoveryAfterHitsMatchesADeliveryWithoutMemo) {
  Tree t = testing::BuildClienteleTree();
  auto doc = FragmentByCuts(t, testing::ClienteleCuts(t));
  ASSERT_TRUE(doc.ok());
  auto shared = std::make_shared<FragmentedDocument>(std::move(doc).ValueOrDie());
  Cluster cluster(shared, 2);
  for (size_t f = 0; f < shared->size(); ++f) {
    ASSERT_TRUE(cluster.Place(static_cast<FragmentId>(f), f < 2 ? 0 : 1).ok());
  }
  const SiteId site = 1;
  const FragmentId a = cluster.fragments_at(site)[0];
  const FragmentId b = cluster.fragments_at(site)[1];
  auto round = [&](const std::string& to_a, const std::string& to_b) {
    std::vector<Envelope> mail;
    mail.push_back(MakeLaneEnvelope(a, to_a));
    mail.push_back(MakeLaneEnvelope(b, to_b));
    return mail;
  };
  const std::vector<std::vector<Envelope>> recorded = {
      round("a0", "b0"), round("a1-recorded", "b1")};
  const std::vector<std::vector<Envelope>> replayed = {
      round("a0", "b0"), round("a1", "b1"), round("a2", "b2")};
  const RunId run = 7;

  for (size_t threads : {1, 4}) {
    SCOPED_TRACE("site_threads=" + std::to_string(threads));
    auto pool = threads > 1 ? std::make_shared<WorkerPool>(threads) : nullptr;
    auto deliver_all = [&](const std::vector<std::vector<Envelope>>& rounds,
                           std::shared_ptr<MemoSession> session,
                           MemoSavings* saved) {
      CountingHandlers handlers(cluster.fragment_count());
      RecordingTransport plane;
      SiteDriver driver(&cluster, &plane, run, &handlers, pool, threads,
                        std::move(session));
      for (const std::vector<Envelope>& mail : rounds) {
        DeliveryReport report;
        EXPECT_TRUE(driver.DeliverTimed(site, mail, &report).ok());
        // Each delivery reports its own hits; nothing carries over.
        if (saved != nullptr) *saved += report.memo;
      }
      return Describe(plane.sent);
    };

    auto memo = std::make_shared<FragmentMemo>();
    (void)deliver_all(recorded, std::make_shared<MemoSession>(memo, "fp", 0),
                      nullptr);
    MemoSavings saved;
    const std::string with_memo = deliver_all(
        replayed, std::make_shared<MemoSession>(memo, "fp", 0), &saved);
    const std::string without_memo = deliver_all(replayed, nullptr, nullptr);
    EXPECT_EQ(with_memo, without_memo);
    // Hits: a0, b0 and b1; a diverged at step 1, b ran out at step 2.
    EXPECT_EQ(saved.fragment_hits, 3u);
    EXPECT_NE(with_memo.find(std::to_string(a) + ":2:a1"), std::string::npos)
        << with_memo;
    EXPECT_NE(with_memo.find(std::to_string(b) + ":3:b2"), std::string::npos)
        << with_memo;
  }
}

TEST(FragmentMemoTest, DigestMismatchIsAMissAndRunIdIsExcluded) {
  Envelope env = MakeLaneEnvelope(3, "payload");
  env.run = 7;
  Envelope restamped = env;
  restamped.run = 99;
  EXPECT_EQ(EnvelopeDigest(env), EnvelopeDigest(restamped));

  Envelope different = MakeLaneEnvelope(3, "other-payload");
  EXPECT_NE(EnvelopeDigest(env), EnvelopeDigest(different));

  FragmentMemo memo;
  FragmentMemo::Entry entry;
  entry.request_digest = EnvelopeDigest(env);
  entry.seconds = 1.0;
  memo.Insert("k", entry);
  FragmentMemo::Entry out;
  EXPECT_TRUE(memo.Lookup("k", EnvelopeDigest(restamped), &out));
  EXPECT_FALSE(memo.Lookup("k", EnvelopeDigest(different), &out));
  EXPECT_EQ(memo.stats().hits, 1u);
  EXPECT_EQ(memo.stats().misses, 1u);
}

}  // namespace
}  // namespace paxml
