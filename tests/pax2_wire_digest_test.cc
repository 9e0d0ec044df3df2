// Pins PaX2's wire bytes to recorded digests.
//
// Every transport backend runs the same site pass, so the equality suites
// (pooled, split, socket — each against SyncTransport) cannot notice a
// change that alters the bytes on every backend at once. Interning formulas
// in a different order is such a change: it renumbers the arena handles
// that QualUp and SelUp encode, and every backend ships the new bytes
// alike. This suite hashes every part the sites and the coordinator send
// (kind and bytes, streamed chunks included) over fixed query mixes and
// compares the FNV-1a digest with the value the pass produced when the
// digests were recorded. A digest mismatch means the shipped bytes changed;
// if that is intended, the change must say so and re-record the values.
//
// The digests were recorded with GCC (12.2, x86-64). C++ leaves the order in
// which a call's arguments are evaluated unspecified, and the passes build
// And/Or operands as call arguments, so a compiler that picks the other
// order interns formulas in another order and ships other (equally valid)
// bytes; such a toolchain needs its own recorded values.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/pax2.h"
#include "fragment/fragmenter.h"
#include "harness.h"
#include "runtime/transport.h"
#include "test_util.h"

namespace paxml {
namespace {

/// SyncTransport that folds every sent part into one running FNV-1a
/// digest. SyncTransport delivers sites one after another on the calling
/// thread, so the send order — and with it the digest — is deterministic.
class DigestTransport : public SyncTransport {
 public:
  void Send(Envelope env) override {
    MixParts(env);
    SyncTransport::Send(std::move(env));
  }

  void StreamBegin(Envelope head) override {
    MixParts(head);
    SyncTransport::StreamBegin(std::move(head));
  }

  void StreamAppend(RunId run, SiteId from, SiteId to, std::string_view bytes,
                    uint64_t logical_bytes, uint64_t phantom_bytes) override {
    Mix(bytes);
    SyncTransport::StreamAppend(run, from, to, bytes, logical_bytes,
                                phantom_bytes);
  }

  uint64_t digest() const { return hash_; }

 private:
  void MixParts(const Envelope& env) {
    for (const WirePart& part : env.parts) {
      const auto kind = static_cast<uint8_t>(part.kind);
      Mix(std::string_view(reinterpret_cast<const char*>(&kind), 1));
      Mix(part.bytes);
    }
  }

  void Mix(std::string_view bytes) {
    for (unsigned char c : bytes) {
      hash_ ^= c;
      hash_ *= 1099511628211ULL;  // FNV-1a prime
    }
  }

  uint64_t hash_ = 14695981039346656037ULL;  // FNV-1a offset basis
};

/// Runs every query of `queries` through PaX2 on one DigestTransport and
/// returns the digest of everything sent.
uint64_t DigestOf(const Cluster& cluster,
                  const std::vector<std::string>& queries, bool annotations) {
  DigestTransport transport;
  PaxOptions options;
  options.use_annotations = annotations;
  for (const std::string& text : queries) {
    auto query = CompileXPath(text, cluster.doc().symbols());
    EXPECT_TRUE(query.ok()) << text;
    if (!query.ok()) continue;
    auto r = EvaluatePaX2(cluster, *query, options, &transport);
    EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  }
  return transport.digest();
}

/// Qualifiers with no QVect entry: `[.]` compiles to a constant-true
/// qualifier, so the pass creates qz locals and resolves them without a
/// single qualifier row.
std::vector<std::string> Ft2EntrylessQualifiers() {
  return {"//item[.]/name", "/sites/site/people/person[.]/name",
          "/sites/site/regions/*/item[.]"};
}

/// The property battery plus leading qualifiers on selecting queries (the
/// battery's `.[q]` queries are Boolean and go to ParBoX).
std::vector<std::string> BatteryWithLeadingQualifiers() {
  std::vector<std::string> queries = testing::PropertyQueryBattery();
  queries.push_back(".[//a]//b");
  queries.push_back(".[root/c and not(//e)]/root/a");
  queries.push_back("root[a]//c[d]");
  return queries;
}

TEST(Pax2WireDigestTest, Ft2MixMatchesRecordedDigest) {
  bench::Workload w = bench::MakeFT2Paper(0.05);
  EXPECT_EQ(DigestOf(*w.cluster, testing::Ft2QueryMix(),
                     /*annotations=*/false),
            0x49e90c55bc8fe1edULL);
  EXPECT_EQ(DigestOf(*w.cluster, testing::Ft2QueryMix(),
                     /*annotations=*/true),
            0x1af2a19536058733ULL);
}

TEST(Pax2WireDigestTest, EntrylessQualifiersMatchRecordedDigest) {
  bench::Workload w = bench::MakeFT2Paper(0.05);
  EXPECT_EQ(DigestOf(*w.cluster, Ft2EntrylessQualifiers(),
                     /*annotations=*/false),
            0x905e0f36b026ec78ULL);
  EXPECT_EQ(DigestOf(*w.cluster, Ft2EntrylessQualifiers(),
                     /*annotations=*/true),
            0xde7fdf36269de188ULL);
}

TEST(Pax2WireDigestTest, QueryBatteryMatchesRecordedDigests) {
  struct Case {
    uint64_t seed;
    uint64_t digest_plain;
    uint64_t digest_annotated;
  };
  const Case cases[] = {
      {1, 0x3917991d6359c90dULL, 0xcb5218dd9484ebf5ULL},
      {2, 0x14b3d96c0164a059ULL, 0x196456540b7574b5ULL},
      {3, 0xe7079de338a95476ULL, 0x5cc6a40bd409b053ULL},
      {5, 0xb3c4781b462029efULL, 0xa22f8da0b2a23b14ULL},
      {8, 0xf53aac7ba1eab9bfULL, 0x3d368e6fbc25e34bULL},
  };
  for (const Case& c : cases) {
    Rng rng(c.seed);
    Tree tree = testing::RandomTree(&rng, 120 + rng.NextBounded(240));
    auto doc = FragmentRandomly(tree, 2 + rng.NextBounded(8), &rng);
    ASSERT_TRUE(doc.ok());
    Cluster cluster(
        std::make_shared<FragmentedDocument>(std::move(doc).ValueOrDie()),
        1 + rng.NextBounded(4));
    cluster.PlaceRootAndSpread();
    const std::vector<std::string> queries = BatteryWithLeadingQualifiers();
    EXPECT_EQ(DigestOf(cluster, queries, /*annotations=*/false),
              c.digest_plain)
        << "seed " << c.seed;
    EXPECT_EQ(DigestOf(cluster, queries, /*annotations=*/true),
              c.digest_annotated)
        << "seed " << c.seed;
  }
}

/// Every query of QualifierKernelQueries has a qualifier, so annotations
/// change nothing (PaX2 takes the concrete-init path only without
/// qualifiers) and each case pins one digest.
TEST(Pax2WireDigestTest, QualifierKernelMatchesRecordedDigests) {
  struct Case {
    uint64_t seed;
    bool whole;  ///< the tree as one fragment: no virtual node anywhere
    uint64_t digest;
  };
  const Case cases[] = {
      {1, false, 0x09518360afe4942fULL},
      {2, false, 0x9821a6d843ad1f73ULL},
      {3, false, 0x4e6f5feaaa450a25ULL},
      {1, true, 0x5162825ba75495e3ULL},
  };
  for (const Case& c : cases) {
    Rng rng(c.seed);
    Tree tree = testing::RandomTree(&rng, 120 + rng.NextBounded(240));
    auto doc = c.whole ? FragmentByCuts(tree, {})
                       : FragmentRandomly(tree, 2 + rng.NextBounded(8), &rng);
    ASSERT_TRUE(doc.ok());
    Cluster cluster(
        std::make_shared<FragmentedDocument>(std::move(doc).ValueOrDie()),
        1 + rng.NextBounded(4));
    cluster.PlaceRootAndSpread();
    EXPECT_EQ(DigestOf(cluster, testing::QualifierKernelQueries(),
                       /*annotations=*/false),
              c.digest)
        << "seed " << c.seed << (c.whole ? " whole" : "");
  }
}

}  // namespace
}  // namespace paxml
