#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/messages.h"
#include "core/parbox.h"
#include "core/pax2.h"
#include "core/pax3.h"
#include "eval/centralized.h"
#include "fragment/fragmenter.h"
#include "harness.h"
#include "test_util.h"
#include "xmark/generator.h"

namespace paxml {
namespace {

using testing::BuildClienteleTree;
using testing::ClienteleCuts;
using testing::PropertyQueryBattery;
using testing::RandomTree;

/// Shared fixture: the paper's clientele tree, fragmented per Fig. 1 and
/// placed on four sites per Fig. 2 (S0: F0, S1: F1, S2: F2 + Kim's market,
/// S3: Lisa's client).
class DistributedClienteleTest : public ::testing::Test {
 protected:
  DistributedClienteleTest() : tree_(BuildClienteleTree()) {
    auto doc = FragmentByCuts(tree_, ClienteleCuts(tree_));
    PAXML_CHECK(doc.ok());
    doc_ = std::make_shared<FragmentedDocument>(std::move(doc).ValueOrDie());
    cluster_ = std::make_unique<Cluster>(doc_, 4);
    PAXML_CHECK(cluster_->Place(0, 0).ok());
    PAXML_CHECK(cluster_->Place(1, 1).ok());
    PAXML_CHECK(cluster_->Place(2, 2).ok());
    PAXML_CHECK(cluster_->Place(3, 2).ok());
    PAXML_CHECK(cluster_->Place(4, 3).ok());
  }

  std::vector<NodeId> Centralized(const std::string& query) {
    auto r = EvaluateCentralized(tree_, query);
    PAXML_CHECK(r.ok());
    return r->answers;
  }

  DistributedResult Run(const std::string& query, DistributedAlgorithm algo,
                        bool annotations = false) {
    EngineOptions options;
    options.algorithm = algo;
    options.pax.use_annotations = annotations;
    auto r = testing::EvaluateOn(*cluster_, query, options);
    PAXML_CHECK(r.ok());
    return std::move(r).ValueOrDie();
  }

  void ExpectAllAlgorithmsAgree(const std::string& query) {
    const std::vector<NodeId> expected = Centralized(query);
    for (auto algo : {DistributedAlgorithm::kPaX3, DistributedAlgorithm::kPaX2,
                      DistributedAlgorithm::kNaiveCentralized}) {
      for (bool xa : {false, true}) {
        if (algo == DistributedAlgorithm::kNaiveCentralized && xa) continue;
        DistributedResult r = Run(query, algo, xa);
        EXPECT_EQ(r.ToSourceIds(*doc_), expected)
            << AlgorithmName(algo) << (xa ? "-XA" : "-NA") << " on " << query;
      }
    }
  }

  Tree tree_;
  std::shared_ptr<FragmentedDocument> doc_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(DistributedClienteleTest, PaperExample21AllAlgorithms) {
  ExpectAllAlgorithmsAgree(
      "clientele/client[country/text() = \"US\"]/"
      "broker[market/name/text() = \"NASDAQ\"]/name");
}

TEST_F(DistributedClienteleTest, QueryBatteryAllAlgorithms) {
  const std::vector<std::string> queries = {
      "clientele/client/name",
      "clientele/client/broker/name",
      "//stock/code",
      "//broker[//stock/code/text() = \"GOOG\" and "
      "not(//stock/code/text() = \"YHOO\")]/name",
      "//market[name/text() = \"NASDAQ\"]/stock/code",
      "//stock[buy/val() > 300]/code",
      "clientele/client[not(country/text() = \"US\")]/name",
      "clientele/*/broker",
      "clientele//qt",
      "//market/name[text() = \"NASDAQ\"]",
      "clientele/client[name]/country",
      "//.[code]",
  };
  for (const std::string& q : queries) ExpectAllAlgorithmsAgree(q);
}

TEST_F(DistributedClienteleTest, BooleanQueryViaParBoX) {
  auto compiled = CompileXPath(".[//stock/code/text() = \"GOOG\"]",
                               doc_->symbols());
  ASSERT_TRUE(compiled.ok());
  auto r =
      EvaluateParBoX(*cluster_, *compiled, MakeTransportFor(*cluster_).get());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->value);
  // ParBoX: every site visited exactly once.
  EXPECT_EQ(r->stats.max_visits(), 1);
  EXPECT_EQ(r->stats.rounds, 1);

  auto compiled2 = CompileXPath(".[//stock/code/text() = \"MSFT\"]",
                                doc_->symbols());
  ASSERT_TRUE(compiled2.ok());
  auto r2 =
      EvaluateParBoX(*cluster_, *compiled2, MakeTransportFor(*cluster_).get());
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->value);
}

TEST_F(DistributedClienteleTest, ParBoXRejectsDataSelectingQueries) {
  auto compiled = CompileXPath("//broker/name", doc_->symbols());
  ASSERT_TRUE(compiled.ok());
  EXPECT_FALSE(
      EvaluateParBoX(*cluster_, *compiled, MakeTransportFor(*cluster_).get())
          .ok());
}

TEST_F(DistributedClienteleTest, BooleanQueryThroughPaxDelegation) {
  for (auto algo : {DistributedAlgorithm::kPaX3, DistributedAlgorithm::kPaX2}) {
    DistributedResult r = Run(".[//stock/code/text() = \"GOOG\"]", algo);
    ASSERT_EQ(r.answers.size(), 1u);
    EXPECT_EQ(r.answers[0], (GlobalNodeId{0, doc_->fragment(0).tree.root()}));
    EXPECT_EQ(r.stats.max_visits(), 1);
  }
}

// ---- The paper's visit guarantees (Sections 3, 4, 5) --------------------------

TEST_F(DistributedClienteleTest, PaX3VisitBounds) {
  // With qualifiers: three rounds, each site <= 3 visits.
  DistributedResult with_quals =
      Run("clientele/client[country/text() = \"US\"]/broker/name",
          DistributedAlgorithm::kPaX3);
  EXPECT_LE(with_quals.stats.max_visits(), 3);
  EXPECT_GE(with_quals.stats.rounds, 2);

  // Qualifier-free: stage 1 skipped, <= 2 visits.
  DistributedResult no_quals =
      Run("clientele/client/broker/name", DistributedAlgorithm::kPaX3);
  EXPECT_LE(no_quals.stats.max_visits(), 2);
}

TEST_F(DistributedClienteleTest, PaX2VisitBounds) {
  DistributedResult with_quals =
      Run("clientele/client[country/text() = \"US\"]/broker/name",
          DistributedAlgorithm::kPaX2);
  EXPECT_LE(with_quals.stats.max_visits(), 2);

  DistributedResult no_quals =
      Run("clientele/client/broker/name", DistributedAlgorithm::kPaX2);
  EXPECT_LE(no_quals.stats.max_visits(), 2);
}

TEST_F(DistributedClienteleTest, AnnotationsGiveSingleVisitForQualifierFree) {
  // Section 5: with XPath annotations and no qualifiers, stack inits are
  // concrete, so no candidates arise and one visit suffices.
  for (auto algo : {DistributedAlgorithm::kPaX3, DistributedAlgorithm::kPaX2}) {
    DistributedResult r =
        Run("clientele/client/broker/name", algo, /*annotations=*/true);
    EXPECT_EQ(r.stats.max_visits(), 1) << AlgorithmName(algo);
  }
}

TEST_F(DistributedClienteleTest, AnnotationsPruneIrrelevantSites) {
  // client/name touches only F0 and Lisa's fragment (Example 5.1): sites
  // S1 and S2 are never visited with annotations on.
  DistributedResult r = Run("clientele/client/name",
                            DistributedAlgorithm::kPaX2, /*annotations=*/true);
  EXPECT_EQ(r.stats.per_site[1].visits, 0);
  EXPECT_EQ(r.stats.per_site[2].visits, 0);
  EXPECT_GE(r.stats.per_site[0].visits, 1);
  EXPECT_GE(r.stats.per_site[3].visits, 1);
}

// ---- Communication guarantees (Section 3.4) -----------------------------------

TEST_F(DistributedClienteleTest, PartialEvaluationShipsNoTreeData) {
  DistributedResult pax = Run(
      "clientele/client[country/text() = \"US\"]/broker/name",
      DistributedAlgorithm::kPaX2);
  EXPECT_EQ(pax.stats.data_bytes_shipped, 0u);
  EXPECT_GT(pax.stats.answer_bytes, 0u);

  DistributedResult naive = Run(
      "clientele/client[country/text() = \"US\"]/broker/name",
      DistributedAlgorithm::kNaiveCentralized);
  EXPECT_GT(naive.stats.data_bytes_shipped, 0u);
  // The naive baseline ships (nearly) the whole document.
  EXPECT_GT(naive.stats.data_bytes_shipped, pax.stats.total_bytes);
}

TEST_F(DistributedClienteleTest, TrafficIndependentOfDataSize) {
  // Grow the per-client payload 8x: PaX traffic (minus answers) must not
  // grow with it. Build a bigger clientele by duplicating stocks.
  TreeBuilder b(std::make_shared<SymbolTable>());
  b.Open("clientele");
  for (int c = 0; c < 3; ++c) {
    b.Open("client");
    b.LeafText("name", c == 0 ? "Anna" : (c == 1 ? "Kim" : "Lisa"));
    b.LeafText("country", c == 2 ? "Canada" : "US");
    b.Open("broker");
    b.LeafText("name", "B");
    b.Open("market");
    b.LeafText("name", "NASDAQ");
    for (int s = 0; s < 40; ++s) {
      b.Open("stock");
      b.LeafText("code", s % 2 ? "GOOG" : "YHOO");
      b.LeafNumber("buy", 100 + s);
      b.LeafNumber("qt", s);
      b.Close();
    }
    b.Close().Close().Close();
  }
  b.Close();
  Tree big = std::move(b).Finish();

  auto make_cluster = [&](const Tree& t) {
    auto doc_r = FragmentBySubtrees(t, t.root());
    PAXML_CHECK(doc_r.ok());
    auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
    return std::make_unique<Cluster>(doc, 4);
  };

  auto small_cluster = make_cluster(tree_);
  auto big_cluster = make_cluster(big);

  const std::string query =
      ".[//stock/code/text() = \"GOOG\"]";  // Boolean: |ans| plays no role
  auto qs = CompileXPath(query, small_cluster->doc().symbols());
  auto qb = CompileXPath(query, big_cluster->doc().symbols());
  ASSERT_TRUE(qs.ok());
  ASSERT_TRUE(qb.ok());
  auto rs = EvaluateParBoX(*small_cluster, *qs,
                           MakeTransportFor(*small_cluster).get());
  auto rb =
      EvaluateParBoX(*big_cluster, *qb, MakeTransportFor(*big_cluster).get());
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rb.ok());
  // Same fragment-tree shape (root + 3 children), same query: identical
  // traffic despite ~8x more tree data.
  EXPECT_EQ(rs->stats.total_bytes, rb->stats.total_bytes);
}

// ---- Randomized equivalence: the soundness workhorse ---------------------------

struct PropertyCase {
  uint64_t seed;
};

class DistributedPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(DistributedPropertyTest, AllAlgorithmsMatchCentralized) {
  Rng rng(GetParam().seed);
  Tree tree = RandomTree(&rng, 60 + rng.NextBounded(240));
  auto doc_r = FragmentRandomly(tree, 1 + rng.NextBounded(9), &rng);
  ASSERT_TRUE(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  const size_t sites = 1 + rng.NextBounded(5);
  ClusterOptions copts;
  copts.parallel_execution = rng.NextBool();
  Cluster cluster(doc, sites, copts);
  cluster.PlaceRootAndSpread();

  for (const std::string& query : PropertyQueryBattery()) {
    auto compiled = CompileXPath(query, tree.symbols());
    ASSERT_TRUE(compiled.ok()) << query;
    auto centralized = EvaluateCentralized(tree, *compiled);

    for (auto algo : {DistributedAlgorithm::kPaX3, DistributedAlgorithm::kPaX2,
                      DistributedAlgorithm::kNaiveCentralized}) {
      for (bool xa : {false, true}) {
        if (algo == DistributedAlgorithm::kNaiveCentralized && xa) continue;
        EngineOptions options;
        options.algorithm = algo;
        options.pax.use_annotations = xa;
        auto r = testing::EvaluateOn(cluster, query, options);
        ASSERT_TRUE(r.ok()) << AlgorithmName(algo) << " " << query << ": "
                            << r.status();
        EXPECT_EQ(r->ToSourceIds(*doc), centralized.answers)
            << AlgorithmName(algo) << (xa ? "-XA" : "-NA") << " seed "
            << GetParam().seed << " on " << query;
        EXPECT_LE(r->stats.max_visits(),
                  algo == DistributedAlgorithm::kPaX3 ? 3 : 2);
      }
    }
  }
}

// `[.]` compiles to a constant-true qualifier with no QVect entry: PaX2's
// combined pass creates qz locals for it but builds no qualifier row, so
// such a query depends on the post-order step that resolves the locals. The
// battery has no such qualifier, so these queries run here, over an
// XMark-shaped document and over the battery's random trees.
TEST_P(DistributedPropertyTest, EntrylessQualifiersMatchCentralized) {
  Rng rng(GetParam().seed);
  XMarkOptions xopts;
  xopts.seed = GetParam().seed;
  const Tree xmark = GenerateUniformSitesTree(30000, 2, xopts);
  const Tree random = RandomTree(&rng, 60 + rng.NextBounded(240));
  const struct {
    const Tree* tree;
    std::vector<std::string> queries;
  } cases[] = {
      {&xmark,
       {"//item[.]/name", "/sites/site/people/person[.]/name",
        "/sites/site/regions/*/item[.]"}},
      {&random, {"//a[.]/b", "root/a[.]/b", "root/*/a[.]", "//.[.]/c"}},
  };
  for (const auto& c : cases) {
    auto doc_r = FragmentRandomly(*c.tree, 1 + rng.NextBounded(9), &rng);
    ASSERT_TRUE(doc_r.ok());
    auto doc =
        std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
    Cluster cluster(doc, 1 + rng.NextBounded(5));
    cluster.PlaceRootAndSpread();
    for (const std::string& query : c.queries) {
      auto compiled = CompileXPath(query, c.tree->symbols());
      ASSERT_TRUE(compiled.ok()) << query;
      ASSERT_TRUE(compiled->has_qualifiers()) << query;
      ASSERT_TRUE(compiled->entries().empty()) << query;
      const auto centralized = EvaluateCentralized(*c.tree, *compiled);
      if (c.tree == &xmark) {
        EXPECT_FALSE(centralized.answers.empty()) << query;
      }
      for (bool xa : {false, true}) {
        PaxOptions options;
        options.use_annotations = xa;
        auto r = EvaluatePaX2(cluster, *compiled, options,
                              MakeTransportFor(cluster).get());
        ASSERT_TRUE(r.ok()) << query << ": " << r.status();
        EXPECT_EQ(r->ToSourceIds(*doc), centralized.answers)
            << (xa ? "PaX2-XA" : "PaX2-NA") << " seed " << GetParam().seed
            << " on " << query;
      }
    }
  }
}

// PaX2 computes the qualifier rows of a node with no virtual node below it
// as bit sets. QualifierKernelQueries reaches every branch of that step;
// each runs over a random fragmentation (nodes deep inside virtual-free
// subtrees, fragments with no virtual node) and over the whole tree as one
// fragment (no virtual node anywhere, the root's rows leave the bit rows).
TEST_P(DistributedPropertyTest, QualifierKernelMatchesCentralized) {
  Rng rng(GetParam().seed);
  Tree tree = RandomTree(&rng, 120 + rng.NextBounded(240));
  auto split = FragmentRandomly(tree, 2 + rng.NextBounded(8), &rng);
  ASSERT_TRUE(split.ok());
  auto whole = FragmentByCuts(tree, {});
  ASSERT_TRUE(whole.ok());
  for (auto* doc_r : {&split, &whole}) {
    auto doc =
        std::make_shared<FragmentedDocument>(std::move(*doc_r).ValueOrDie());
    Cluster cluster(doc, 1 + rng.NextBounded(4));
    cluster.PlaceRootAndSpread();
    for (const std::string& query : testing::QualifierKernelQueries()) {
      auto compiled = CompileXPath(query, tree.symbols());
      ASSERT_TRUE(compiled.ok()) << query;
      const auto centralized = EvaluateCentralized(tree, *compiled);
      for (bool xa : {false, true}) {
        PaxOptions options;
        options.use_annotations = xa;
        auto r = EvaluatePaX2(cluster, *compiled, options,
                              MakeTransportFor(cluster).get());
        ASSERT_TRUE(r.ok()) << query << ": " << r.status();
        EXPECT_EQ(r->ToSourceIds(*doc), centralized.answers)
            << (xa ? "PaX2-XA" : "PaX2-NA") << " seed " << GetParam().seed
            << ", " << doc->size() << " fragments, on " << query;
      }
    }
  }
}

TEST(QualifierKernelQueriesTest, ReachEveryEntryShape) {
  auto symbols = std::make_shared<SymbolTable>();
  size_t wide = 0;
  std::vector<bool> tests(5), rests(4);
  for (const std::string& query : testing::QualifierKernelQueries()) {
    auto compiled = CompileXPath(query, symbols);
    ASSERT_TRUE(compiled.ok()) << query;
    if (compiled->entries().size() > 64) ++wide;
    for (const auto& e : compiled->entries()) {
      tests[static_cast<size_t>(e.test)] = true;
      rests[static_cast<size_t>(e.rest_axis)] = true;
    }
  }
  EXPECT_EQ(wide, 2u);
  EXPECT_EQ(tests, std::vector<bool>(5, true));
  EXPECT_EQ(rests, std::vector<bool>(4, true));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DistributedPropertyTest,
    ::testing::Values(PropertyCase{1}, PropertyCase{2}, PropertyCase{3},
                      PropertyCase{5}, PropertyCase{8}, PropertyCase{13},
                      PropertyCase{21}, PropertyCase{34}, PropertyCase{55},
                      PropertyCase{89}),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      return "seed_" + std::to_string(info.param.seed);
    });

// ---- Degenerate placements ------------------------------------------------------

TEST_F(DistributedClienteleTest, SingleSiteCluster) {
  Cluster one(doc_, 1);
  auto compiled = CompileXPath("//stock/code", doc_->symbols());
  ASSERT_TRUE(compiled.ok());
  auto r = EvaluatePaX2(one, *compiled, {}, MakeTransportFor(one).get());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->ToSourceIds(*doc_), Centralized("//stock/code"));
}

TEST_F(DistributedClienteleTest, EverySiteEmptyQueryAnswer) {
  DistributedResult r = Run("clientele/nonexistent/x",
                            DistributedAlgorithm::kPaX2);
  EXPECT_TRUE(r.answers.empty());
  EXPECT_EQ(r.stats.answer_bytes, 0u);
}

// ---- Shipping order ---------------------------------------------------------

/// SyncTransport that decodes what the sites ship: every SelUp part, and
/// every AnswerUp, whole (a site's stream to itself is sent as one
/// envelope) or streamed (its header part plus the appended id chunks).
/// SyncTransport runs one handler at a time, so an append always extends
/// the stream opened last.
class DecodingTransport : public SyncTransport {
 public:
  void Send(Envelope env) override {
    for (const WirePart& part : env.parts) {
      if (part.kind == MessageKind::kAnswerUp) {
        streams_.emplace_back(part.kind, part.bytes);
      }
      if (part.kind != MessageKind::kSelUp) continue;
      ByteReader in(part.bytes);
      auto m = SelUpMessage::Decode(&arena_, &in);
      EXPECT_TRUE(m.ok()) << m.status();
      if (m.ok()) sel_ups_.push_back(std::move(m).ValueOrDie());
    }
    SyncTransport::Send(std::move(env));
  }

  void StreamBegin(Envelope head) override {
    streams_.emplace_back(head.parts.front().kind, head.parts.front().bytes);
    SyncTransport::StreamBegin(std::move(head));
  }

  void StreamAppend(RunId run, SiteId from, SiteId to, std::string_view bytes,
                    uint64_t logical_bytes, uint64_t phantom_bytes) override {
    streams_.back().second.append(bytes);
    SyncTransport::StreamAppend(run, from, to, bytes, logical_bytes,
                                phantom_bytes);
  }

  /// The virtual-top fragment refs fragment `f`'s SelUp replies carried.
  std::vector<FragmentId> VirtualTopsOf(FragmentId f) const {
    std::vector<FragmentId> refs;
    for (const SelUpMessage& m : sel_ups_) {
      if (m.fragment != f) continue;
      for (const auto& top : m.virtual_tops) refs.push_back(top.child);
    }
    return refs;
  }

  /// The answer ids fragment `f`'s AnswerUp streams carried, in shipping
  /// order.
  std::vector<NodeId> AnswersOf(FragmentId f) const {
    std::vector<NodeId> ids;
    for (const auto& [kind, bytes] : streams_) {
      if (kind != MessageKind::kAnswerUp) continue;
      ByteReader in(bytes);
      auto m = AnswerUpMessage::Decode(&in);
      EXPECT_TRUE(m.ok()) << m.status();
      if (!m.ok() || m->fragment != f) continue;
      ids.insert(ids.end(), m->answers.begin(), m->answers.end());
    }
    return ids;
  }

 private:
  FormulaArena arena_;
  std::vector<SelUpMessage> sel_ups_;
  std::vector<std::pair<MessageKind, std::string>> streams_;
};

// PaX2's site pass meets a fragment's nodes in document order, so the
// answers it settles and the virtual tops it reports ship in that order.
// The root fragment here interleaves answers with three virtual nodes at
// different depths; the fragmenter numbers cuts in document order, so the
// tops must read F1, F2, F3.
TEST(ShippingOrderTest, Pax2ShipsAnswersAndVirtualTopsInDocumentOrder) {
  Tree tree;
  const NodeId root = tree.AddElement(kNullNode, "root");
  const NodeId a1 = tree.AddElement(root, "a");
  tree.AddElement(a1, "a");
  const NodeId cut1 = tree.AddElement(tree.AddElement(a1, "b"), "a");
  const NodeId cut2 = tree.AddElement(root, "a");
  tree.AddElement(cut2, "b");
  const NodeId b = tree.AddElement(root, "b");
  const NodeId a7 = tree.AddElement(b, "a");
  const NodeId cut3 = tree.AddElement(a7, "a");
  tree.AddElement(b, "a");
  auto doc_r = FragmentByCuts(tree, {cut1, cut2, cut3});
  ASSERT_TRUE(doc_r.ok()) << doc_r.status();
  auto doc =
      std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  // F0: root0 a1 a2 b3 [F1]4 [F2]5 b6 a7 [F3]8 a9.
  ASSERT_EQ(doc->fragment(0).tree.size(), 10u);
  Cluster cluster(doc, 2);
  cluster.PlaceRootAndSpread();

  const struct {
    const char* query;
    std::vector<NodeId> f0_answers;
  } cases[] = {
      {"//a", {1, 2, 7, 9}},
      {"//*", {0, 1, 2, 3, 6, 7, 9}},
      // a7's only child is F3's root: a candidate settled in visit two.
      {"//a[not(b)]", {2, 7, 9}},
  };
  for (const auto& c : cases) {
    for (bool annotations : {false, true}) {
      const std::string label =
          std::string(c.query) + (annotations ? " annotated" : "");
      auto query = CompileXPath(c.query, doc->symbols());
      ASSERT_TRUE(query.ok()) << label;
      DecodingTransport transport;
      PaxOptions options;
      options.use_annotations = annotations;
      auto r = EvaluatePaX2(cluster, *query, options, &transport);
      ASSERT_TRUE(r.ok()) << label << ": " << r.status();
      EXPECT_EQ(transport.VirtualTopsOf(0), (std::vector<FragmentId>{1, 2, 3}))
          << label;
      EXPECT_EQ(transport.AnswersOf(0), c.f0_answers) << label;
    }
  }
}

// Answer ids ship ascending, so the delta coding never costs more than
// the absolute ids would: on every query of the FT2 mix, for PaX2 and
// PaX3, with annotations (one visit, answers with the first reply) and
// without (answers in the last visit).
TEST(ShippingOrderTest, AnswerDeltasNeverExceedAbsoluteIdsOnFt2Mix) {
  bench::Workload w = bench::MakeFT2Paper(0.05);
  uint64_t logical = 0;
  for (auto evaluate : {&EvaluatePaX2, &EvaluatePaX3}) {
    for (bool annotations : {false, true}) {
      for (const std::string& text : testing::Ft2QueryMix()) {
        const std::string label =
            std::string(evaluate == &EvaluatePaX2 ? "PaX2 " : "PaX3 ") +
            text + (annotations ? " annotated" : "");
        auto query = CompileXPath(text, w.doc->symbols());
        ASSERT_TRUE(query.ok()) << label;
        SyncTransport transport;
        PaxOptions options;
        options.use_annotations = annotations;
        auto r = evaluate(*w.cluster, *query, options, &transport, nullptr);
        ASSERT_TRUE(r.ok()) << label << ": " << r.status();
        EXPECT_LE(r->stats.delta_wire_bytes, r->stats.delta_logical_bytes)
            << label;
        logical += r->stats.delta_logical_bytes;
      }
    }
  }
  EXPECT_GT(logical, 0u);
}

}  // namespace
}  // namespace paxml
