// XPath-annotation pruning, visualized (Section 5 of the paper).
//
//   $ ./build/examples/annotations_pruning
//
// For a set of queries over an FT2-style fragmented XMark document, shows
// which fragments the annotated fragment tree rules out, distinguishing
// selection relevance ("can contain answers") from qualifier visibility
// ("a qualifier of a live node can see into it") — and the resulting
// visit/traffic savings of PaX2-XA over PaX2-NA.

#include <cstdio>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "fragment/fragmenter.h"
#include "fragment/pruning.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xml/serializer.h"

using namespace paxml;

int main() {
  // A site with heavy regions/open_auctions sections, fragmented by section.
  XMarkOptions options;
  options.symbols = std::make_shared<SymbolTable>();
  SiteBudget budget;
  budget.regions_namerica = 40'000;
  budget.regions_other = 60'000;
  budget.categories = 20'000;
  budget.people = 80'000;
  budget.open_auctions = 100'000;
  budget.closed_auctions = 40'000;
  Tree tree = GenerateSitesTree({budget, budget}, options);

  // Cut every section of every site into its own fragment.
  std::vector<NodeId> cuts;
  for (NodeId site : tree.children(tree.root())) {
    for (NodeId section : tree.children(site)) cuts.push_back(section);
  }
  auto doc_r = FragmentByCuts(tree, cuts);
  PAXML_CHECK(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  Cluster cluster(doc, doc->size());
  Engine engine(cluster);

  std::printf("fragment tree (%zu fragments):\n%s\n", doc->size(),
              doc->DebugString().c_str());

  const char* queries[] = {
      xmark::kQ1,
      xmark::kQ2,
      xmark::kQ3,
      xmark::kQ4,
      "/sites/site/closed_auctions/closed_auction/price",
      "/sites/site[people/person/profile/age > 55]/categories/category/name",
      "//regions//item/name",
  };

  for (const char* query : queries) {
    auto compiled = CompileXPath(query, doc->symbols());
    PAXML_CHECK(compiled.ok());
    PruneResult p = PruneFragments(*doc, *compiled);

    std::printf("query: %s\n  pruning:", query);
    for (size_t f = 0; f < doc->size(); ++f) {
      if (p.selection_relevant[f]) continue;
      std::printf(" F%zu=%s", f, p.required[f] ? "qual-only" : "pruned");
    }
    std::printf("  (%zu/%zu fragments required)\n", p.CountRequired(),
                doc->size());

    for (bool xa : {false, true}) {
      SubmitOptions submit;
      submit.engine_options =
          EngineOptions{DistributedAlgorithm::kPaX2, {.use_annotations = xa}};
      auto r = engine.Submit(query, submit).TakeReport().result;
      PAXML_CHECK(r.ok());
      uint64_t visited_sites = 0;
      for (const SiteStats& s : r->stats.per_site) {
        if (s.visits > 0) ++visited_sites;
      }
      std::printf(
          "  PaX2-%s: answers=%zu sites-visited=%llu traffic=%s "
          "total-compute=%.4fs\n",
          xa ? "XA" : "NA", r->answers.size(),
          static_cast<unsigned long long>(visited_sites),
          HumanBytes(r->stats.total_bytes).c_str(),
          r->stats.total_compute_seconds);
    }
    std::printf("\n");
  }
  return 0;
}
