// The query table (Fig. 7) with compiled-vector shapes and measured
// selectivity on a sample document — documents exactly what each experiment
// evaluates — and each query's serial PaX2 wall time (compilation
// included): FT2 at scale 1.0 on the paper's four sites, run one site after
// another on the calling thread, the median of
// max(9, 2 * PAXML_BENCH_REPS + 1) runs after one warm-up.
//
//   build/bench/bench_queries

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/logging.h"
#include "core/workload.h"
#include "eval/centralized.h"
#include "harness.h"
#include "xpath/normal_form.h"
#include "xpath/parser.h"

using namespace paxml;
using namespace paxml::bench;

namespace {

/// Median wall time of PaX2 evaluating `query` on `cluster`, in ms.
double SerialPax2Ms(const Cluster& cluster, const std::string& query) {
  const int runs = std::max(9, 2 * Repetitions() + 1);
  SyncTransport transport;
  std::vector<double> ms;
  for (int i = 0; i <= runs; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto r = EvaluateWorkload(cluster, query, {}, &transport);
    const auto end = std::chrono::steady_clock::now();
    PAXML_CHECK(r.ok());
    if (i == 0) continue;  // warm-up: first-use tables, caches
    ms.push_back(std::chrono::duration<double, std::milli>(end - start)
                     .count());
  }
  std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
  return ms[ms.size() / 2];
}

}  // namespace

int main() {
  std::printf("Fig. 7 — experiment queries\n\n");

  Workload w = MakeFT2(1.0);
  Tree assembled = w.doc->Assemble();
  // Serial runs on the paper's four sites (MakeFT2Paper's layout).
  ClusterOptions serial;
  serial.parallel_execution = false;
  Cluster paper(w.doc, 4, serial);
  PlaceFT2Paper(paper);

  TablePrinter table({"query", "qualifiers", "has-//", "SVect", "QVect",
                      "answers", "pax2-serial-ms"});
  for (const auto& q : xmark::ExperimentQueries()) {
    auto compiled = CompileXPath(q.text, w.doc->symbols());
    PAXML_CHECK(compiled.ok());
    auto result = EvaluateCentralized(assembled, *compiled);
    table.AddRow({q.name, q.has_qualifiers ? "yes" : "no",
                  q.has_descendant ? "yes" : "no",
                  std::to_string(compiled->selection_size()),
                  std::to_string(compiled->entries().size()),
                  std::to_string(result.answers.size()),
                  StringFormat("%.2f", SerialPax2Ms(paper, q.text))});
  }

  std::printf("\nQuery texts and normal forms:\n");
  for (const auto& q : xmark::ExperimentQueries()) {
    auto ast = ParseXPath(q.text);
    PAXML_CHECK(ast.ok());
    NormalPath normal = Normalize(**ast);
    std::printf("  %s: %s\n      normal form:   %s\n      selection path: %s\n",
                q.name, q.text, ToString(normal).c_str(),
                SelectionPathString(normal).c_str());
  }
  return 0;
}
