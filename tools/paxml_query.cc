// paxml_query: evaluate an XPath query over a fragment directory.
//
//   $ paxml_query FRAGDIR "QUERY" [--algo pax2|pax3|naive] [--xa]
//                 [--sites N] [--stats] [--refs]
//                 [--remote SITE=HOST:PORT[,SITE=HOST:PORT...]]
//
// Loads a directory written by paxml_fragment / SaveDocument, simulates a
// cluster of N sites (default: one per fragment), evaluates the query
// through an Engine session, and prints the answers as XML (one per line). --stats adds the run's
// visit/traffic/time accounting; --refs ships answer references instead of
// subtrees; --xa enables XPath annotations.
//
// --remote turns the run into a real multi-process evaluation: each listed
// site is served by a paxml_site process (started against the same FRAGDIR
// and placement) and the frames travel over TCP; unlisted sites — the
// query site must be one — run in this process. Answers and accounting
// are identical to the in-process run (DESIGN.md §9).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/engine.h"
#include "fragment/storage.h"
#include "xml/serializer.h"

using namespace paxml;

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: paxml_query FRAGDIR \"QUERY\" [--algo pax2|pax3|naive] "
               "[--xa] [--sites N] [--stats] [--refs] "
               "[--remote SITE=HOST:PORT,...]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    Usage();
    return 2;
  }
  const std::string dir = argv[1];
  const std::string query_text = argv[2];
  EngineConfig config;
  EngineOptions& options = config.defaults;
  options.algorithm = DistributedAlgorithm::kPaX2;
  bool stats = false;
  size_t sites = 0;

  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--algo") == 0 && i + 1 < argc) {
      const std::string a = argv[++i];
      if (a == "pax2") {
        options.algorithm = DistributedAlgorithm::kPaX2;
      } else if (a == "pax3") {
        options.algorithm = DistributedAlgorithm::kPaX3;
      } else if (a == "naive") {
        options.algorithm = DistributedAlgorithm::kNaiveCentralized;
      } else {
        Usage();
        return 2;
      }
    } else if (std::strcmp(argv[i], "--xa") == 0) {
      options.pax.use_annotations = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      stats = true;
    } else if (std::strcmp(argv[i], "--refs") == 0) {
      options.pax.ship_mode = AnswerShipMode::kReferences;
    } else if (std::strcmp(argv[i], "--sites") == 0 && i + 1 < argc) {
      sites = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--remote") == 0 && i + 1 < argc) {
      // SITE=HOST:PORT pairs, comma-separated.
      const char* p = argv[++i];
      while (*p != '\0') {
        char* eq = nullptr;
        const long site = std::strtol(p, &eq, 10);
        if (eq == p || *eq != '=') {
          Usage();
          return 2;
        }
        const char* end = std::strchr(eq + 1, ',');
        const std::string endpoint =
            end == nullptr
                ? std::string(eq + 1)
                : std::string(eq + 1, static_cast<size_t>(end - (eq + 1)));
        config.transport_options
            .remote_endpoints[static_cast<SiteId>(site)] = endpoint;
        p = end == nullptr ? eq + 1 + endpoint.size() : end + 1;
      }
    } else {
      Usage();
      return 2;
    }
  }

  auto symbols = std::make_shared<SymbolTable>();
  auto doc_r = LoadDocument(dir, symbols);
  if (!doc_r.ok()) {
    std::fprintf(stderr, "load error: %s\n", doc_r.status().ToString().c_str());
    return 1;
  }
  auto doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  if (sites == 0) sites = doc->size();
  Cluster cluster(doc, sites);
  cluster.PlaceRootAndSpread();

  Engine engine(cluster, config);
  const QueryReport report = engine.Submit(query_text).TakeReport();
  const Result<DistributedResult>& result = report.result;
  if (!result.ok()) {
    std::fprintf(stderr, "%s error: %s\n",
                 result.status().code() == StatusCode::kParseError
                     ? "query"
                     : "evaluation",
                 result.status().ToString().c_str());
    return 1;
  }

  for (const GlobalNodeId& g : result->answers) {
    const Tree& ft = doc->fragment(g.fragment).tree;
    if (ft.IsText(g.node)) {
      std::printf("%s\n", std::string(ft.text(g.node)).c_str());
    } else {
      std::printf("%s\n", SerializeXml(ft, g.node).c_str());
    }
  }
  if (stats) {
    std::fprintf(stderr, "algorithm: %s%s  answers: %zu\n%s",
                 AlgorithmName(options.algorithm),
                 options.pax.use_annotations ? "-XA" : "",
                 result->answers.size(), result->stats.ToString().c_str());
  }
  return 0;
}
