// XMark explorer: generate an auction-site document, distribute it, and
// compare every algorithm on the paper's experiment queries.
//
//   $ ./build/examples/xmark_explorer [total_kb] [sites] [seed]
//
// Defaults: 2048 KB of data over 4 XMark sites, seed 42. Prints the
// per-algorithm answer counts (all identical), visits, traffic and times —
// a miniature of the paper's experimental section on your own parameters.

#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "fragment/fragmenter.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xml/serializer.h"

using namespace paxml;

int main(int argc, char** argv) {
  const size_t total_kb = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 2048;
  const size_t site_count = argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 4;
  const uint64_t seed = argc > 3 ? static_cast<uint64_t>(std::atoll(argv[3])) : 42;

  XMarkOptions options;
  options.seed = seed;
  options.symbols = std::make_shared<SymbolTable>();
  Tree tree = GenerateUniformSitesTree(total_kb * 1024, site_count, options);
  std::printf("generated %zu nodes (%s serialized), %zu XMark sites, seed %llu\n",
              tree.size(), HumanBytes(SerializedSize(tree)).c_str(), site_count,
              static_cast<unsigned long long>(seed));

  // One fragment per XMark site subtree plus the root fragment; one machine
  // per fragment.
  auto doc_r = FragmentBySubtrees(tree, tree.root());
  PAXML_CHECK(doc_r.ok());
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  Cluster cluster(doc, doc->size());
  std::printf("%s\n", doc->DebugString().c_str());

  Engine engine(cluster);
  for (const auto& q : xmark::ExperimentQueries()) {
    std::printf("%s: %s\n", q.name, q.text);

    struct Config {
      const char* name;
      DistributedAlgorithm algo;
      bool xa;
    };
    const Config configs[] = {
        {"PaX3-NA", DistributedAlgorithm::kPaX3, false},
        {"PaX3-XA", DistributedAlgorithm::kPaX3, true},
        {"PaX2-NA", DistributedAlgorithm::kPaX2, false},
        {"PaX2-XA", DistributedAlgorithm::kPaX2, true},
        {"Naive  ", DistributedAlgorithm::kNaiveCentralized, false},
    };
    for (const Config& c : configs) {
      SubmitOptions submit;
      submit.engine_options = EngineOptions{c.algo, {.use_annotations = c.xa}};
      auto r = engine.Submit(q.text, submit).TakeReport().result;
      PAXML_CHECK(r.ok());
      const RunStats& s = r->stats;
      std::printf(
          "  %s  answers=%-6zu visits<=%d  traffic=%-9s parallel=%.4fs "
          "total=%.4fs\n",
          c.name, r->answers.size(), s.max_visits(),
          HumanBytes(s.total_bytes).c_str(), s.parallel_seconds,
          s.total_compute_seconds);
    }
    std::printf("\n");
  }
  return 0;
}
