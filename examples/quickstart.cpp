// Quickstart: fragment a document, distribute it, run one query.
//
//   $ ./build/examples/quickstart
//
// Walks through the five steps every paxml program performs: build (or
// parse) a tree, fragment it, place fragments on sites, compile a query,
// evaluate it through an Engine session — and shows the performance
// counters the paper's guarantees are stated in.

#include <cstdio>

#include "core/engine.h"
#include "fragment/fragmenter.h"
#include "xml/parser.h"
#include "xml/serializer.h"

using namespace paxml;

int main() {
  // 1. A small catalog document. ParseXml accepts any well-formed XML;
  //    trees can also be built programmatically with TreeBuilder.
  const char* xml = R"(
    <catalog>
      <book><title>A Discipline of Programming</title><price>35</price>
            <author>Dijkstra</author></book>
      <book><title>The Art of Computer Programming</title><price>150</price>
            <author>Knuth</author></book>
      <book><title>Structure and Interpretation</title><price>45</price>
            <author>Abelson</author><author>Sussman</author></book>
    </catalog>)";
  auto tree = ParseXml(xml);
  if (!tree.ok()) {
    std::fprintf(stderr, "parse error: %s\n", tree.status().ToString().c_str());
    return 1;
  }

  // 2. Fragment it: every <book> subtree becomes its own fragment; the
  //    root fragment keeps <catalog> with virtual placeholders.
  auto doc_r = FragmentBySubtrees(*tree, tree->root());
  if (!doc_r.ok()) {
    std::fprintf(stderr, "fragmentation error: %s\n",
                 doc_r.status().ToString().c_str());
    return 1;
  }
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  std::printf("%s\n", doc->DebugString().c_str());

  // 3. Place the fragments on three sites (site 0 = query site, holding the
  //    root fragment).
  Cluster cluster(doc, 3);
  cluster.PlaceRootAndSpread();

  // 4. Compile a query: titles of books cheaper than 100 by Knuth or
  //    Dijkstra.
  auto query = CompileXPath(
      "catalog/book[price < 100 and "
      "(author = \"Knuth\" or author = \"Dijkstra\")]/title",
      doc->symbols());
  if (!query.ok()) {
    std::fprintf(stderr, "query error: %s\n", query.status().ToString().c_str());
    return 1;
  }
  std::printf("query:       %s\nnormal form: %s\n\n", query->source().c_str(),
              query->normal_form().c_str());

  // 5. Evaluate with PaX2 + XPath annotations (the paper's best
  //    configuration): submit the query text to an Engine and wait.
  EngineConfig config;
  config.defaults.algorithm = DistributedAlgorithm::kPaX2;
  config.defaults.pax.use_annotations = true;
  Engine engine(cluster, config);
  QueryReport report = engine.Submit(query->source()).TakeReport();
  const Result<DistributedResult>& result = report.result;
  if (!result.ok()) {
    std::fprintf(stderr, "evaluation error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("answers:\n");
  for (const GlobalNodeId& g : result->answers) {
    const Tree& ft = doc->fragment(g.fragment).tree;
    std::printf("  [F%d] %s\n", g.fragment, SerializeXml(ft, g.node).c_str());
  }
  std::printf("\nrun statistics:\n%s", result->stats.ToString().c_str());
  return 0;
}
