// Remaining core coverage: ParBoX against centralized on randomized Boolean
// queries, answer shipping modes, engine dispatch, and error propagation
// through the public API.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/parbox.h"
#include "core/reach.h"
#include "eval/centralized.h"
#include "fragment/fragmenter.h"
#include "test_util.h"

namespace paxml {
namespace {

TEST(ParBoXPropertyTest, MatchesCentralizedOnRandomBooleanQueries) {
  // Boolean variants of the property battery: wrap each path query as a
  // root-anchored existence test.
  Rng rng(777);
  for (int iter = 0; iter < 6; ++iter) {
    Tree tree = testing::RandomTree(&rng, 80 + rng.NextBounded(150));
    auto doc_r = FragmentRandomly(tree, 1 + rng.NextBounded(7), &rng);
    ASSERT_TRUE(doc_r.ok());
    auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
    Cluster cluster(doc, 1 + rng.NextBounded(4));
    cluster.PlaceRootAndSpread();

    for (const char* qual :
         {"//a/b", "//a[b]/c", "//d[val() > 15]", "//a/b and //c",
          "not(//a[.//b])", "//a[text() = \"x\"] or //b[text() = \"y\"]"}) {
      const std::string query = std::string(".[") + qual + "]";
      auto compiled = CompileXPath(query, tree.symbols());
      ASSERT_TRUE(compiled.ok()) << query;
      ASSERT_TRUE(compiled->IsBooleanQuery());

      auto r =
          EvaluateParBoX(cluster, *compiled, MakeTransportFor(cluster).get());
      ASSERT_TRUE(r.ok()) << query << ": " << r.status();
      auto expected = EvaluateCentralized(tree, *compiled);
      EXPECT_EQ(r->value, !expected.answers.empty()) << query;
      EXPECT_EQ(r->stats.max_visits(), 1) << query;
    }
  }
}

TEST(ShipModeTest, ReferencesAndSubtreesReturnSameAnswers) {
  Tree tree = testing::BuildClienteleTree();
  auto doc_r = FragmentByCuts(tree, testing::ClienteleCuts(tree));
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  Cluster cluster(doc, 4);
  cluster.PlaceRootAndSpread();

  const std::string query = "//market[name/text() = \"NASDAQ\"]";
  EngineOptions refs;
  refs.pax.ship_mode = AnswerShipMode::kReferences;
  EngineOptions subs;
  subs.pax.ship_mode = AnswerShipMode::kSubtrees;
  auto r1 = testing::EvaluateOn(cluster, query, refs);
  auto r2 = testing::EvaluateOn(cluster, query, subs);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->answers, r2->answers);
  // Subtree shipping moves strictly more bytes (markets carry stocks).
  EXPECT_GT(r2->stats.answer_bytes, r1->stats.answer_bytes);
}

TEST(EngineTest, DispatchesAllAlgorithms) {
  Tree tree = testing::BuildClienteleTree();
  auto doc_r = FragmentByCuts(tree, testing::ClienteleCuts(tree));
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  Cluster cluster(doc, 2);

  for (auto algo :
       {DistributedAlgorithm::kPaX3, DistributedAlgorithm::kPaX2,
        DistributedAlgorithm::kNaiveCentralized}) {
    EngineOptions options;
    options.algorithm = algo;
    auto r = testing::EvaluateOn(cluster, "//stock/code", options);
    ASSERT_TRUE(r.ok()) << AlgorithmName(algo);
    EXPECT_EQ(r->answers.size(), 5u) << AlgorithmName(algo);
  }
  EXPECT_STREQ(AlgorithmName(DistributedAlgorithm::kPaX3), "PaX3");
  EXPECT_STREQ(AlgorithmName(DistributedAlgorithm::kPaX2), "PaX2");
  EXPECT_STREQ(AlgorithmName(DistributedAlgorithm::kNaiveCentralized),
               "NaiveCentralized");
}

TEST(EngineTest, ParseErrorsPropagateThroughEvaluateWorkload) {
  Tree tree = testing::BuildClienteleTree();
  auto doc_r = FragmentByCuts(tree, testing::ClienteleCuts(tree));
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  Cluster cluster(doc, 2);

  auto r = testing::EvaluateOn(cluster, "not [ valid");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(NaiveTest, ShipsEveryFragmentOnce) {
  Tree tree = testing::BuildClienteleTree();
  auto doc_r = FragmentByCuts(tree, testing::ClienteleCuts(tree));
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  Cluster cluster(doc, 4);
  cluster.PlaceRootAndSpread();

  auto compiled = CompileXPath("//name", tree.symbols());
  ASSERT_TRUE(compiled.ok());
  auto r = EvaluateNaiveCentralized(cluster, *compiled,
                                    MakeTransportFor(cluster).get());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.max_visits(), 1);
  // Data shipped ~ serialized size of the non-local fragments.
  EXPECT_GT(r->stats.data_bytes_shipped, 0u);
  auto r2 = testing::EvaluateOn(cluster, "//name");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r->answers, r2->answers);
}

TEST(TransportLocalDeliveryTest, LocalDeliveryIsFree) {
  // Messages whose source and destination coincide (fragments co-located
  // with the query site) cost nothing — matching the deployment reality
  // that S_Q holds the root fragment.
  Tree tree = testing::BuildClienteleTree();
  auto doc_r = FragmentByCuts(tree, testing::ClienteleCuts(tree));
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  Cluster single(doc, 1);

  auto r = testing::EvaluateOn(single, "//broker/name");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.total_bytes, 0u);
  EXPECT_EQ(r->stats.total_messages, 0u);
}

// A missing transport is a caller error, never a hidden fresh transport:
// the workload entry point and all five algorithm functions refuse it.
TEST(EngineTest, NullTransportIsInvalidArgument) {
  Tree tree = testing::BuildClienteleTree();
  auto doc_r = FragmentByCuts(tree, testing::ClienteleCuts(tree));
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  Cluster cluster(doc, 2);
  auto select = CompileXPath("//stock/code", tree.symbols());
  auto boolean = CompileXPath(".[//stock]", tree.symbols());
  ASSERT_TRUE(select.ok() && boolean.ok());

  for (const Status& status :
       {EvaluateWorkload(cluster, "//stock/code", {}, nullptr).status(),
        EvaluatePaX2(cluster, *select, {}, nullptr).status(),
        EvaluatePaX3(cluster, *select, {}, nullptr).status(),
        EvaluatePaX2(cluster, *boolean, {}, nullptr).status(),
        EvaluateNaiveCentralized(cluster, *select, nullptr).status(),
        EvaluateParBoX(cluster, *boolean, nullptr).status(),
        EvaluateReachability(cluster, ReachQuery{0, 1}, nullptr).status()}) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_NE(status.message().find("null transport"), std::string::npos)
        << status;
  }
}

}  // namespace
}  // namespace paxml
