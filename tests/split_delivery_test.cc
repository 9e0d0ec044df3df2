// Intra-fragment work splitting (DESIGN.md §14): when a round's mail at a
// site is dominated by one large fragment, the split path asks the
// algorithm for independent sub-items (per-root-child subtree walks for
// PaX2's concrete-init selections) and fans them out on the site pool —
// yet every observable stays bit-identical to the serial delivery, exactly
// the §10 guarantee extended below the fragment grain. These tests force
// the split threshold low so the path actually fires (pinned via the
// advisory RunStats::pool_tasks counter), pin the two fast paths
// (site_threads == 1 and the single-lane capture bypass), and re-check the
// randomized battery with splitting on.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "fragment/fragmenter.h"
#include "sim/cluster.h"
#include "test_util.h"

namespace paxml {
namespace {

using testing::ExpectContractEqual;
using testing::PropertyQueryBattery;
using testing::RandomTree;

/// `query` on a sync transport with `site_threads` lanes per site and
/// intra-fragment splitting offered at `split_pct` (0: off).
Result<DistributedResult> Evaluate(const Cluster& cluster,
                                   const std::string& query,
                                   DistributedAlgorithm algo, bool annotations,
                                   size_t site_threads, uint64_t split_pct) {
  EngineOptions options;
  options.algorithm = algo;
  options.pax.use_annotations = annotations;
  TransportOptions transport;
  transport.site_threads = site_threads;
  transport.split_threshold_pct = split_pct;
  return testing::EvaluateOn(cluster, query, options, TransportKind::kSync,
                             transport);
}

// ---- Randomized split-vs-serial determinism ---------------------------------

struct SplitCase {
  uint64_t seed;
};

class SplitDeliveryPropertyTest : public ::testing::TestWithParam<SplitCase> {};

// Few fragments spread over few sites with the threshold forced to 1%: any
// segment's largest single-envelope lane is offered for splitting, so the
// split path runs constantly across the battery — and every run must still
// reproduce the serial RunStats exactly. Algorithms whose requests decline
// the split (PaX3, qualifier-laden PaX2, the naive baseline) exercise the
// decline path under the same forcing.
TEST_P(SplitDeliveryPropertyTest, SplitMatchesSerialExactly) {
  Rng rng(GetParam().seed);
  Tree tree = RandomTree(&rng, 150 + rng.NextBounded(250));
  auto doc_r = FragmentRandomly(tree, 3 + rng.NextBounded(4), &rng);
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  const size_t sites = 2 + rng.NextBounded(2);
  Cluster cluster(doc, sites);
  cluster.PlaceRootAndSpread();

  uint64_t split_pool_tasks = 0;
  for (const std::string& query : PropertyQueryBattery()) {
    for (auto algo : {DistributedAlgorithm::kPaX2, DistributedAlgorithm::kPaX3,
                      DistributedAlgorithm::kNaiveCentralized}) {
      for (bool xa : {false, true}) {
        if (algo == DistributedAlgorithm::kNaiveCentralized && xa) continue;
        const std::string label = std::string(AlgorithmName(algo)) +
                                  (xa ? "|xa|" : "|") + query + " seed " +
                                  std::to_string(GetParam().seed);
        auto serial = Evaluate(cluster, query, algo, xa, 1, 0);
        auto split = Evaluate(cluster, query, algo, xa, 4, 1);
        ASSERT_TRUE(serial.ok()) << label << ": " << serial.status();
        ASSERT_TRUE(split.ok()) << label << ": " << split.status();
        EXPECT_EQ(split->answers, serial->answers) << label;
        ExpectContractEqual(split->stats, serial->stats, label);
        // The serial run never touches a pool.
        EXPECT_EQ(serial->stats.pool_tasks, 0u) << label;
        split_pool_tasks += split->stats.pool_tasks;
      }
    }
  }
  // The property is not vacuous: across the battery the forced threshold
  // made deliveries actually fan out on the pool.
  EXPECT_GT(split_pool_tasks, 0u) << "seed " << GetParam().seed;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SplitDeliveryPropertyTest,
    ::testing::Values(SplitCase{11}, SplitCase{23}, SplitCase{47},
                      SplitCase{83}),
    [](const ::testing::TestParamInfo<SplitCase>& info) {
      return "seed_" + std::to_string(info.param.seed);
    });

// ---- The one-hot shape splitting exists for ---------------------------------

// One fragment per site: per-fragment lanes cannot fan a site's round out
// at all (every segment is a single lane), so any pool activity is the
// intra-fragment split itself. PaX2 with annotations on a qualifier-free
// selection is the splittable shape — the capture bypass (a split lane
// that is its whole segment sends straight into the real plane) must send
// byte-identically, and pool_tasks proves the sub-items actually ran.
TEST(SplitDeliveryTest, OneFragmentPerSiteSplitsAndMatchesSerial) {
  Rng rng(4242);
  Tree tree = RandomTree(&rng, 400);
  auto doc_r = FragmentRandomly(tree, 3, &rng);
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  Cluster cluster(doc, 3);
  cluster.PlaceRootAndSpread();

  uint64_t split_pool_tasks = 0;
  for (const std::string& query :
       {std::string("//a"), std::string("//a/b"), std::string("//a//b"),
        std::string("root/*/a"), std::string("//*")}) {
    auto serial =
        Evaluate(cluster, query, DistributedAlgorithm::kPaX2, true, 1, 0);
    auto split =
        Evaluate(cluster, query, DistributedAlgorithm::kPaX2, true, 4, 1);
    ASSERT_TRUE(serial.ok()) << query << ": " << serial.status();
    ASSERT_TRUE(split.ok()) << query << ": " << split.status();
    EXPECT_EQ(split->answers, serial->answers) << query;
    ExpectContractEqual(split->stats, serial->stats, query);
    split_pool_tasks += split->stats.pool_tasks;
  }
  EXPECT_GT(split_pool_tasks, 0u);
}

// A splitting fragment whose answers sit under one root child while a
// sibling's subtree is dead for the query yet holds a virtual node. The
// walk skips the dead subtree except the path to that virtual node, whose
// top (all false) must still ship, in order, exactly as the serial pass
// ships it. Random fragmentations rarely produce this shape on a fragment
// that annotations keep in the round, so it is built by hand.
TEST(SplitDeliveryTest, DeadSubtreeStillReportsItsVirtualTop) {
  Tree tree;
  const NodeId root = tree.AddElement(kNullNode, "root");
  const NodeId x = tree.AddElement(root, "x");
  tree.AddElement(root, "y");
  for (int i = 0; i < 3; ++i) tree.AddElement(tree.AddElement(x, "a"), "b");
  const NodeId d = tree.AddElement(tree.AddElement(x, "c"), "d");
  const NodeId e = tree.AddElement(d, "e");
  tree.AddElement(tree.AddElement(e, "a"), "b");
  tree.AddElement(x, "a");
  auto doc_r = FragmentByCuts(tree, {x, e});
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  Cluster cluster(doc, 3);
  cluster.PlaceRootAndSpread();

  uint64_t split_pool_tasks = 0;
  for (const std::string& query :
       {std::string("root/x/a/b"), std::string("root/x/a")}) {
    auto serial =
        Evaluate(cluster, query, DistributedAlgorithm::kPaX2, true, 1, 0);
    auto split =
        Evaluate(cluster, query, DistributedAlgorithm::kPaX2, true, 4, 1);
    ASSERT_TRUE(serial.ok()) << query << ": " << serial.status();
    ASSERT_TRUE(split.ok()) << query << ": " << split.status();
    EXPECT_FALSE(serial->answers.empty()) << query;
    EXPECT_EQ(split->answers, serial->answers) << query;
    ExpectContractEqual(split->stats, serial->stats, query);
    split_pool_tasks += split->stats.pool_tasks;
  }
  EXPECT_GT(split_pool_tasks, 0u);
}

// ---- Fast-path pins ---------------------------------------------------------

// site_threads == 1 with the threshold set: there is no pool, so the split
// machinery must stay entirely out of the way — bit-identical stats and a
// zero pool_tasks counter.
TEST(SplitDeliveryTest, SingleThreadWithThresholdIsTheSerialPath) {
  Rng rng(999);
  Tree tree = RandomTree(&rng, 250);
  auto doc_r = FragmentRandomly(tree, 4, &rng);
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  Cluster cluster(doc, 2);
  cluster.PlaceRootAndSpread();

  for (const std::string& query :
       {std::string("//a/b"), std::string("//a[b]/c")}) {
    auto serial =
        Evaluate(cluster, query, DistributedAlgorithm::kPaX2, true, 1, 0);
    auto gated =
        Evaluate(cluster, query, DistributedAlgorithm::kPaX2, true, 1, 1);
    ASSERT_TRUE(serial.ok()) << serial.status();
    ASSERT_TRUE(gated.ok()) << gated.status();
    EXPECT_EQ(gated->answers, serial->answers) << query;
    ExpectContractEqual(gated->stats, serial->stats, query);
    EXPECT_EQ(gated->stats.pool_tasks, 0u) << query;
  }
}

// A 100% threshold only ever offers a lane that IS its whole segment — the
// capture-bypass fast path by construction. Still exact.
TEST(SplitDeliveryTest, WholeSegmentThresholdIsExact) {
  Rng rng(2718);
  Tree tree = RandomTree(&rng, 300);
  auto doc_r = FragmentRandomly(tree, 5, &rng);
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  Cluster cluster(doc, 2);
  cluster.PlaceRootAndSpread();

  for (const std::string& query : PropertyQueryBattery()) {
    auto serial =
        Evaluate(cluster, query, DistributedAlgorithm::kPaX2, true, 1, 0);
    auto split =
        Evaluate(cluster, query, DistributedAlgorithm::kPaX2, true, 4, 100);
    ASSERT_TRUE(serial.ok()) << query << ": " << serial.status();
    ASSERT_TRUE(split.ok()) << query << ": " << split.status();
    EXPECT_EQ(split->answers, serial->answers) << query;
    ExpectContractEqual(split->stats, serial->stats, query);
  }
}

}  // namespace
}  // namespace paxml
