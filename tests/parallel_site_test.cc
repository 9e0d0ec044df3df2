// Intra-site parallel delivery (DESIGN.md §10): with site_threads > 1 a
// site's per-fragment mail is evaluated on a worker pool, yet the
// capture-and-replay send path must keep every observable — answers,
// rounds, visits, per-edge byte/message/envelope splits, wire bytes — bit-
// identical to the serial order. These tests pin that equivalence on
// randomized multi-fragment placements (the ones where lanes actually fan
// out). The equivalence matrix crosses the same knob with every other
// axis; the WorkerPool nesting guard is tested in scheduler_test.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
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

/// `query` on a sync transport whose sites deliver on `site_threads` lanes.
Result<DistributedResult> Evaluate(const Cluster& cluster,
                                   const std::string& query,
                                   DistributedAlgorithm algo, bool annotations,
                                   size_t site_threads) {
  EngineOptions options;
  options.algorithm = algo;
  options.pax.use_annotations = annotations;
  TransportOptions transport;
  transport.site_threads = site_threads;
  return testing::EvaluateOn(cluster, query, options, TransportKind::kSync,
                             transport);
}

// ---- Randomized parallel-vs-serial determinism ------------------------------

struct ParallelCase {
  uint64_t seed;
};

class ParallelSitePropertyTest
    : public ::testing::TestWithParam<ParallelCase> {};

// Random trees cut into many fragments spread over few sites, so that
// every site holds several fragments and the parallel path genuinely fans
// out. site_threads = 4 must reproduce the serial run exactly.
TEST_P(ParallelSitePropertyTest, ParallelMatchesSerialExactly) {
  Rng rng(GetParam().seed);
  Tree tree = RandomTree(&rng, 120 + rng.NextBounded(280));
  // Many fragments, few sites: multi-fragment mail at every site.
  auto doc_r = FragmentRandomly(tree, 6 + rng.NextBounded(6), &rng);
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  const size_t sites = 2 + rng.NextBounded(2);
  Cluster cluster(doc, sites);
  cluster.PlaceRootAndSpread();

  for (const std::string& query : PropertyQueryBattery()) {
    for (auto algo : {DistributedAlgorithm::kPaX2, DistributedAlgorithm::kPaX3,
                      DistributedAlgorithm::kNaiveCentralized}) {
      for (bool xa : {false, true}) {
        if (algo == DistributedAlgorithm::kNaiveCentralized && xa) continue;
        const std::string label = std::string(AlgorithmName(algo)) +
                                  (xa ? "|xa|" : "|") + query + " seed " +
                                  std::to_string(GetParam().seed);
        auto serial = Evaluate(cluster, query, algo, xa, 1);
        auto parallel = Evaluate(cluster, query, algo, xa, 4);
        ASSERT_TRUE(serial.ok()) << label << ": " << serial.status();
        ASSERT_TRUE(parallel.ok()) << label << ": " << parallel.status();
        EXPECT_EQ(parallel->answers, serial->answers) << label;
        ExpectContractEqual(parallel->stats, serial->stats, label);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ParallelSitePropertyTest,
    ::testing::Values(ParallelCase{7}, ParallelCase{19}, ParallelCase{42},
                      ParallelCase{77}, ParallelCase{101}),
    [](const ::testing::TestParamInfo<ParallelCase>& info) {
      return "seed_" + std::to_string(info.param.seed);
    });

// Boolean queries delegate to ParBoX; its one-visit protocol must survive
// the parallel path identically too.
TEST(ParallelSiteTest, ParBoXMatchesSerialExactly) {
  Rng rng(271828);
  Tree tree = RandomTree(&rng, 300);
  auto doc_r = FragmentRandomly(tree, 8, &rng);
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  Cluster cluster(doc, 3);
  cluster.PlaceRootAndSpread();

  for (const std::string& query :
       {std::string(".[//a]"), std::string(".[//a/b and //c]")}) {
    auto serial =
        Evaluate(cluster, query, DistributedAlgorithm::kPaX2, false, 1);
    auto parallel =
        Evaluate(cluster, query, DistributedAlgorithm::kPaX2, false, 4);
    ASSERT_TRUE(serial.ok()) << serial.status();
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_EQ(parallel->answers, serial->answers) << query;
    ExpectContractEqual(parallel->stats, serial->stats, query);
  }
}

// site_threads beyond the fragment count must degrade gracefully (lanes
// cap at the number of fragments present in a round's mail).
TEST(ParallelSiteTest, MoreThreadsThanFragmentsIsExact) {
  Rng rng(31337);
  Tree tree = RandomTree(&rng, 200);
  auto doc_r = FragmentRandomly(tree, 3, &rng);
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  Cluster cluster(doc, 2);
  cluster.PlaceRootAndSpread();

  auto serial =
      Evaluate(cluster, "//a[b]/c", DistributedAlgorithm::kPaX3, false, 1);
  auto parallel =
      Evaluate(cluster, "//a[b]/c", DistributedAlgorithm::kPaX3, false, 16);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(parallel->answers, serial->answers);
  ExpectContractEqual(parallel->stats, serial->stats, "threads>fragments");
}

}  // namespace
}  // namespace paxml
