// Stress and adversarial-shape tests: extreme fragmentations (every element
// its own fragment), deep chains (deep fragment trees, long unification
// chains), wide fan-outs, and degenerate placements. All iterative
// traversals in the library must survive these without recursion-depth
// limits, and every algorithm must still agree with centralized evaluation.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "eval/centralized.h"
#include "fragment/fragmenter.h"
#include "test_util.h"
#include "xml/builder.h"

namespace paxml {
namespace {

void ExpectAllAgree(const Tree& tree, std::shared_ptr<FragmentedDocument> doc,
                    Cluster& cluster, const std::string& query) {
  auto compiled = CompileXPath(query, tree.symbols());
  ASSERT_TRUE(compiled.ok()) << query;
  auto expected = EvaluateCentralized(tree, *compiled);
  for (auto algo : {DistributedAlgorithm::kPaX3, DistributedAlgorithm::kPaX2}) {
    for (bool xa : {false, true}) {
      EngineOptions options;
      options.algorithm = algo;
      options.pax.use_annotations = xa;
      auto r = testing::EvaluateOn(cluster, query, options);
      ASSERT_TRUE(r.ok()) << AlgorithmName(algo) << " " << query << ": "
                          << r.status();
      EXPECT_EQ(r->ToSourceIds(*doc), expected.answers)
          << AlgorithmName(algo) << (xa ? "-XA" : "-NA") << " " << query;
    }
  }
}

TEST(StressTest, EveryElementItsOwnFragment) {
  Tree tree = testing::BuildClienteleTree();
  std::vector<NodeId> cuts;
  for (NodeId v = 1; v < static_cast<NodeId>(tree.size()); ++v) {
    if (tree.IsElement(v)) cuts.push_back(v);
  }
  auto doc_r = FragmentByCuts(tree, cuts);
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  // Every fragment holds exactly one element (plus text/virtual leaves).
  EXPECT_EQ(doc->size(), cuts.size() + 1);

  Cluster cluster(doc, 5);
  cluster.PlaceRootAndSpread();
  ExpectAllAgree(tree, doc, cluster, "//broker[market/name = \"NASDAQ\"]/name");
  ExpectAllAgree(tree, doc, cluster, "clientele/client/broker/market/stock/code");
  ExpectAllAgree(tree, doc, cluster, "//stock[buy/val() > 300]/qt");
  ExpectAllAgree(tree, doc, cluster, ".[//code/text() = \"IBM\"]");
}

TEST(StressTest, DeepChainFragmentedEveryFewNodes) {
  // A 300-deep chain a/b/a/b/... with text at the bottom; cut every 7 nodes:
  // the fragment tree is a 40+ deep chain, exercising long unification
  // chains in evalFT (z variables resolved through dozens of hops).
  TreeBuilder b(std::make_shared<SymbolTable>());
  const int depth = 300;
  for (int i = 0; i < depth; ++i) b.Open(i % 2 ? "b" : "a");
  b.Text("bottom");
  for (int i = 0; i < depth; ++i) b.Close();
  Tree tree = std::move(b).Finish();

  std::vector<NodeId> cuts;
  for (NodeId v = 7; v < static_cast<NodeId>(tree.size()) - 1; v += 7) {
    if (tree.IsElement(v)) cuts.push_back(v);
  }
  auto doc_r = FragmentByCuts(tree, cuts);
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  ASSERT_GT(doc->size(), 40u);

  Cluster cluster(doc, 6);
  cluster.PlaceRootAndSpread();
  ExpectAllAgree(tree, doc, cluster, "//a[b]/b");
  ExpectAllAgree(tree, doc, cluster, "//b[.//a and text() = \"never\"]");
  ExpectAllAgree(tree, doc, cluster, "//.[text() = \"bottom\"]");
  ExpectAllAgree(tree, doc, cluster, ".[//b/a//b]");
}

TEST(StressTest, WideFanOut) {
  // 4000 children under one root, fragmented by size.
  TreeBuilder b(std::make_shared<SymbolTable>());
  b.Open("root");
  for (int i = 0; i < 4000; ++i) {
    b.Open(i % 3 == 0 ? "x" : "y");
    if (i % 5 == 0) b.Text(std::to_string(i % 100));
    b.Close();
  }
  b.Close();
  Tree tree = std::move(b).Finish();

  auto doc_r = FragmentBySize(tree, 500);
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  Cluster cluster(doc, 4);
  ExpectAllAgree(tree, doc, cluster, "root/x");
  ExpectAllAgree(tree, doc, cluster, "root/x[val() < 50]");
  ExpectAllAgree(tree, doc, cluster, "root/*");
}

TEST(StressTest, AllFragmentsOnOneSiteAndMoreSitesThanFragments) {
  Tree tree = testing::BuildClienteleTree();
  auto doc_r = FragmentByCuts(tree, testing::ClienteleCuts(tree));
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());

  {
    Cluster one(doc, 1);
    ExpectAllAgree(tree, doc, one, "//broker/name");
  }
  {
    Cluster many(doc, 16);  // more sites than fragments
    many.PlaceRootAndSpread();
    ExpectAllAgree(tree, doc, many, "//broker/name");
  }
  {
    // Adversarial placement: parent and child fragments interleaved across
    // two sites.
    Cluster two(doc, 2);
    ASSERT_TRUE(two.Place(0, 0).ok());
    ASSERT_TRUE(two.Place(1, 1).ok());
    ASSERT_TRUE(two.Place(2, 0).ok());
    ASSERT_TRUE(two.Place(3, 1).ok());
    ASSERT_TRUE(two.Place(4, 0).ok());
    ExpectAllAgree(tree, doc, two,
                   "clientele/client[country/text() = \"US\"]/broker/name");
  }
}

TEST(StressTest, ResidualFormulasStayCompact) {
  // The residuals shipped per fragment must stay O(|Q|)-ish even when the
  // fragment has many virtual children (the paper's communication bound
  // depends on it). 200 virtual children under one root.
  TreeBuilder b(std::make_shared<SymbolTable>());
  b.Open("root");
  for (int i = 0; i < 200; ++i) {
    b.Open("x");
    b.Open("y").Text("v").Close();
    b.Close();
  }
  b.Close();
  Tree tree = std::move(b).Finish();
  std::vector<NodeId> cuts;
  for (NodeId c : tree.children(tree.root())) cuts.push_back(c);
  auto doc_r = FragmentByCuts(tree, cuts);
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  Cluster cluster(doc, 8);
  cluster.PlaceRootAndSpread();

  auto r = testing::EvaluateOn(cluster, ".[//x[y/text() = \"v\"]]");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->answers.size(), 1u);
  // Traffic: the root fragment's residual is an OR over 200 child variables
  // — linear in |FT|, which the bound allows — but nowhere near |T|.
  EXPECT_LT(r->stats.total_bytes, 20'000u);
}

TEST(StressTest, LargeRandomMatrixQuickCheck) {
  // One bigger randomized round (kept out of the per-seed property suite to
  // bound runtime): 2000-node tree, 40 fragments, 7 sites.
  Rng rng(4242);
  Tree tree = testing::RandomTree(&rng, 2000);
  auto doc_r = FragmentRandomly(tree, 40, &rng);
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  Cluster cluster(doc, 7);
  cluster.PlaceRootAndSpread();
  for (const char* q : {"//a[b/c]/d", "root//c[.//a or text() = \"x\"]",
                        "//*[a and not(b)]/c"}) {
    ExpectAllAgree(tree, doc, cluster, q);
  }
}

}  // namespace
}  // namespace paxml
