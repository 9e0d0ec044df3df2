// The paper's running example, end to end.
//
// Builds the investment-company clientele tree of Fig. 1, fragments it along
// the dashed lines into F0..F4, distributes the fragments over four sites
// (Fig. 2), and evaluates the queries the paper discusses:
//
//   * the Boolean query Q  = [//stock/code/text() = "GOOG"]  (Section 1),
//   * the data-selecting Q' = //broker[//stock/code/text() = "GOOG"]/name,
//   * Q1 = //broker[GOOG and not YHOO]/name                  (Section 2.2),
//   * Example 2.1's query (US clients trading on NASDAQ),
//
// and prints the partial-evaluation artifacts along the way: normal forms,
// the XPath-annotated fragment tree (Fig. 6), per-site visits, and the
// resolved answers.

#include <cstdio>

#include "common/logging.h"
#include "eval/centralized.h"
#include "core/engine.h"
#include "core/parbox.h"
#include "fragment/fragmenter.h"
#include "fragment/pruning.h"
#include "xml/builder.h"
#include "xml/serializer.h"

using namespace paxml;

namespace {

Tree BuildClientele() {
  TreeBuilder b(std::make_shared<SymbolTable>());
  auto stock = [&](const char* code, double buy, double qt) {
    b.Open("stock");
    b.LeafText("code", code);
    b.LeafNumber("buy", buy);
    b.LeafNumber("qt", qt);
    b.Close();
  };
  b.Open("clientele");
  b.Open("client");  // Anna
  b.LeafText("name", "Anna").LeafText("country", "US");
  b.Open("broker");  // F1
  b.LeafText("name", "E*trade");
  b.Open("market");  // F2
  b.LeafText("name", "NASDAQ");
  stock("GOOG", 374, 40);
  stock("YHOO", 33, 40);
  b.Close().Close().Close();
  b.Open("client");  // Kim
  b.LeafText("name", "Kim").LeafText("country", "US");
  b.Open("broker");
  b.LeafText("name", "Bache");
  b.Open("market");
  b.LeafText("name", "NYSE");
  stock("IBM", 80, 50);
  b.Close();
  b.Open("market");  // F3 (the paper's F4)
  b.LeafText("name", "NASDAQ");
  stock("GOOG", 370, 75);
  b.Close().Close().Close();
  b.Open("client");  // Lisa — F4 (the paper's F3)
  b.LeafText("name", "Lisa").LeafText("country", "Canada");
  b.Open("broker");
  b.LeafText("name", "CIBC");
  b.Open("market");
  b.LeafText("name", "TSE");
  stock("GOOG", 382, 90);
  b.Close().Close().Close();
  b.Close();
  return std::move(b).Finish();
}

NodeId Find(const Tree& t, const char* query) {
  auto r = EvaluateCentralized(t, query);
  PAXML_CHECK(r.ok());
  PAXML_CHECK_EQ(r->answers.size(), 1u);
  return r->answers[0];
}

void ShowAnswers(const FragmentedDocument& doc, const DistributedResult& r) {
  for (const GlobalNodeId& g : r.answers) {
    const Tree& ft = doc.fragment(g.fragment).tree;
    std::printf("    [F%d at %s] %s\n", g.fragment,
                ft.LabelPath(g.node).c_str(), SerializeXml(ft, g.node).c_str());
  }
  std::printf("    visits per site:");
  for (size_t s = 0; s < r.stats.per_site.size(); ++s) {
    std::printf(" S%zu=%d", s, r.stats.per_site[s].visits);
  }
  std::printf("  traffic=%llu bytes\n",
              static_cast<unsigned long long>(r.stats.total_bytes));
}

}  // namespace

int main() {
  Tree tree = BuildClientele();
  std::printf("== Fig. 1: the clientele tree (%zu nodes) ==\n%s\n\n",
              tree.size(),
              SerializeXml(tree, kNullNode, {.indent = true}).c_str());

  // Fragment along the paper's dashed lines.
  std::vector<NodeId> cuts = {
      Find(tree, "clientele/client[name = \"Anna\"]/broker"),
      Find(tree, "clientele/client[name = \"Anna\"]/broker/market"),
      Find(tree, "clientele/client[name = \"Kim\"]/broker/"
                 "market[name = \"NASDAQ\"]"),
      Find(tree, "clientele/client[name = \"Lisa\"]"),
  };
  auto doc_r = FragmentByCuts(tree, cuts);
  PAXML_CHECK(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());

  std::printf("== Fig. 2/6: fragments and the XPath-annotated fragment tree ==\n");
  std::printf("%s\n", doc->DebugString().c_str());

  // Four sites, placed as in Fig. 2: S0{F0} S1{F1} S2{F2,F3} S3{F4}.
  Cluster cluster(doc, 4);
  PAXML_CHECK(cluster.Place(0, 0).ok());
  PAXML_CHECK(cluster.Place(1, 1).ok());
  PAXML_CHECK(cluster.Place(2, 2).ok());
  PAXML_CHECK(cluster.Place(3, 2).ok());
  PAXML_CHECK(cluster.Place(4, 3).ok());
  Engine engine(cluster);

  // ---- The Boolean query of the introduction (ParBoX) ----------------------
  {
    // PaX2 delegates Boolean queries to ParBoX; a true query answers with
    // the document root.
    auto r = engine.Submit(".[//stock/code/text() = \"GOOG\"]")
                 .TakeReport()
                 .result;
    PAXML_CHECK(r.ok());
    std::printf("== Boolean Q = [//stock/code/text()=\"GOOG\"] ==\n");
    std::printf("    result: %s (each site visited once)\n\n",
                r->answers.empty() ? "false" : "true");
  }

  struct Demo {
    const char* title;
    const char* query;
  };
  const Demo demos[] = {
      {"Q' = //broker[//stock/code/text()=\"GOOG\"]/name (Section 1)",
       "//broker[//stock/code/text() = \"GOOG\"]/name"},
      {"Q1 = //broker[GOOG and not YHOO]/name (Section 2.2)",
       "//broker[//stock/code/text() = \"GOOG\" and "
       "not(//stock/code/text() = \"YHOO\")]/name"},
      {"Example 2.1: US clients trading on NASDAQ",
       "clientele/client[country/text() = \"US\"]/"
       "broker[market/name/text() = \"NASDAQ\"]/name"},
  };

  for (const Demo& demo : demos) {
    auto q = CompileXPath(demo.query, doc->symbols());
    PAXML_CHECK(q.ok());
    std::printf("== %s ==\n  normal form: %s\n", demo.title,
                q->normal_form().c_str());

    for (auto algo : {DistributedAlgorithm::kPaX3, DistributedAlgorithm::kPaX2}) {
      SubmitOptions submit;
      submit.engine_options = EngineOptions{algo, {}};
      auto r = engine.Submit(demo.query, submit).TakeReport().result;
      PAXML_CHECK(r.ok());
      std::printf("  %s:\n", AlgorithmName(algo));
      ShowAnswers(*doc, *r);
    }
    std::printf("\n");
  }

  // ---- Section 5: what the annotations prune -------------------------------
  {
    auto q = CompileXPath("clientele/client/name", doc->symbols());
    PAXML_CHECK(q.ok());
    PruneResult p = PruneFragments(*doc, *q);
    std::printf("== Example 5.1: pruning for clientele/client/name ==\n");
    for (size_t f = 0; f < doc->size(); ++f) {
      std::printf("    F%zu: %s\n", f,
                  p.selection_relevant[f] ? "relevant" : "pruned");
    }
    SubmitOptions submit;
    submit.engine_options =
        EngineOptions{DistributedAlgorithm::kPaX2, {.use_annotations = true}};
    auto r = engine.Submit(q->source(), submit).TakeReport().result;
    PAXML_CHECK(r.ok());
    std::printf("  PaX2-XA (single visit, pruned sites untouched):\n");
    ShowAnswers(*doc, *r);
  }
  return 0;
}
