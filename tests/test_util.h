// Shared helpers for the paxml test suite.

#ifndef PAXML_TESTS_TEST_UTIL_H_
#define PAXML_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "core/workload.h"
#include "eval/centralized.h"
#include "runtime/transport.h"
#include "xmark/queries.h"
#include "xml/builder.h"
#include "xml/tree.h"

namespace paxml::testing {

/// Evaluates `query` on a fresh transport of `kind` (unset: the cluster's
/// default, or sockets when `transport_options` names remote endpoints).
inline Result<DistributedResult> EvaluateOn(
    const Cluster& cluster, const std::string& query,
    const EngineOptions& options = {},
    std::optional<TransportKind> kind = std::nullopt,
    TransportOptions transport_options = {}) {
  std::unique_ptr<Transport> transport =
      MakeTransportFor(cluster, kind, std::move(transport_options));
  return EvaluateWorkload(cluster, query, options, transport.get());
}

/// The RunStats bit-identity contract: every count the paper's guarantees
/// are stated in, the full per-site and per-edge splits, the wire bytes
/// (each frame is priced by its one kFrame encoding, whichever backend
/// sealed it) and the delta-codec fields (envelope-level, deterministic).
/// Timing fields and the advisory memo_* / pool_* fields are excluded: they
/// are the only ones a backend or knob may change. Returns the first field
/// in which `got` differs from the reference run `want`, or "" when the
/// contract holds. With `framed` false — `got` ran with batching off and
/// `want` with it on — message counts and wire bytes are skipped: those
/// are the fields frame batching exists to change.
inline std::string ContractMismatch(const RunStats& got, const RunStats& want,
                                    bool framed = true) {
  std::ostringstream out;
  auto check = [&](const std::string& field, uint64_t g, uint64_t w) {
    if (out.tellp() == 0 && g != w) {
      out << field << ": " << g << " != reference " << w;
    }
  };
  check("rounds", got.rounds, want.rounds);
  check("total_envelopes", got.total_envelopes, want.total_envelopes);
  check("total_bytes", got.total_bytes, want.total_bytes);
  check("answer_bytes", got.answer_bytes, want.answer_bytes);
  check("data_bytes_shipped", got.data_bytes_shipped, want.data_bytes_shipped);
  check("delta_logical_bytes", got.delta_logical_bytes,
        want.delta_logical_bytes);
  check("per_site.size", got.per_site.size(), want.per_site.size());
  check("edges.size", got.edges.size(), want.edges.size());
  if (framed) {
    check("total_messages", got.total_messages, want.total_messages);
    check("delta_wire_bytes", got.delta_wire_bytes, want.delta_wire_bytes);
    check("wire_bytes", got.wire_bytes, want.wire_bytes);
    check("wire_raw_bytes", got.wire_raw_bytes, want.wire_raw_bytes);
  }
  if (out.tellp() != 0) return out.str();
  for (size_t s = 0; s < want.per_site.size(); ++s) {
    const SiteStats& g = got.per_site[s];
    const SiteStats& w = want.per_site[s];
    const std::string site = "site " + std::to_string(s) + " ";
    check(site + "visits", g.visits, w.visits);
    check(site + "bytes_sent", g.bytes_sent, w.bytes_sent);
    check(site + "bytes_received", g.bytes_received, w.bytes_received);
    if (framed) {
      check(site + "messages_sent", g.messages_sent, w.messages_sent);
      check(site + "messages_received", g.messages_received,
            w.messages_received);
    }
  }
  for (auto g = got.edges.begin(), w = want.edges.begin();
       g != got.edges.end() && out.tellp() == 0; ++g, ++w) {
    const std::string edge = "edge " + std::to_string(g->first.first) + "->" +
                             std::to_string(g->first.second) + " ";
    if (g->first != w->first) return edge + "is not a reference edge";
    check(edge + "bytes", g->second.bytes, w->second.bytes);
    check(edge + "envelopes", g->second.envelopes, w->second.envelopes);
    if (framed) {
      check(edge + "messages", g->second.messages, w->second.messages);
    }
  }
  return out.str();
}

/// ContractMismatch as a test expectation: `got` must reproduce `want`.
inline void ExpectContractEqual(const RunStats& got, const RunStats& want,
                                const std::string& label = "") {
  EXPECT_EQ(ContractMismatch(got, want), "") << label;
}

/// Builds the investment-clientele tree of Fig. 1 of the paper:
///
/// clientele
///  ├ client  (Anna, US)    broker E*trade -> market NASDAQ
///  │                         {GOOG 374 x40, YHOO 33 x40}
///  ├ client  (Kim, US)     broker Bache -> market NYSE {IBM 80 x50}
///  │                                    -> market NASDAQ {GOOG 370 x75}
///  └ client  (Lisa, Canada) broker CIBC -> market TSE {GOOG 382 x90}
///
/// The canonical fragmentation used in fragment/core tests cuts it into
/// F0..F4 exactly as the paper's dashed lines do (see MakeClienteleCuts).
inline Tree BuildClienteleTree(std::shared_ptr<SymbolTable> symbols = nullptr) {
  TreeBuilder b(std::move(symbols));
  b.Open("clientele");

  auto stock = [&](const char* code, double buy, double qt) {
    b.Open("stock");
    b.LeafText("code", code);
    b.LeafNumber("buy", buy);
    b.LeafNumber("qt", qt);
    b.Close();
  };

  // Anna.
  b.Open("client");
  b.LeafText("name", "Anna");
  b.LeafText("country", "US");
  b.Open("broker");  // F1 root
  b.LeafText("name", "E*trade");
  b.Open("market");  // F2 root
  b.LeafText("name", "NASDAQ");
  stock("GOOG", 374, 40);
  stock("YHOO", 33, 40);
  b.Close();  // market
  b.Close();  // broker
  b.Close();  // client

  // Kim.
  b.Open("client");
  b.LeafText("name", "Kim");
  b.LeafText("country", "US");
  b.Open("broker");
  b.LeafText("name", "Bache");
  b.Open("market");
  b.LeafText("name", "NYSE");
  stock("IBM", 80, 50);
  b.Close();  // market
  b.Open("market");  // F4 root
  b.LeafText("name", "NASDAQ");
  stock("GOOG", 370, 75);
  b.Close();  // market
  b.Close();  // broker
  b.Close();  // client

  // Lisa (F3 root is this whole client).
  b.Open("client");
  b.LeafText("name", "Lisa");
  b.LeafText("country", "Canada");
  b.Open("broker");
  b.LeafText("name", "CIBC");
  b.Open("market");
  b.LeafText("name", "TSE");
  stock("GOOG", 382, 90);
  b.Close();  // market
  b.Close();  // broker
  b.Close();  // client

  b.Close();  // clientele
  return std::move(b).Finish();
}

/// Direct text content of each node, sorted (order-insensitive matching).
inline std::vector<std::string> TextsOf(const Tree& tree,
                                        const std::vector<NodeId>& nodes) {
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (NodeId v : nodes) {
    out.push_back(tree.IsText(v) ? std::string(tree.text(v))
                                 : tree.DirectText(v));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Label paths of each node, sorted.
inline std::vector<std::string> PathsOf(const Tree& tree,
                                        const std::vector<NodeId>& nodes) {
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (NodeId v : nodes) out.push_back(tree.LabelPath(v));
  std::sort(out.begin(), out.end());
  return out;
}

/// Finds the unique node selected by `query` (fails the test if not unique).
inline NodeId FindOne(const Tree& tree, const std::string& query) {
  auto r = EvaluateCentralized(tree, query);
  PAXML_CHECK(r.ok());
  PAXML_CHECK_EQ(r->answers.size(), 1u);
  return r->answers[0];
}

/// The paper's fragmentation cuts for the clientele tree (Fig. 1 dashed
/// polygons). In document order the cut fragments get ids:
///   F1 = Anna's broker, F2 = Anna's NASDAQ market,
///   F3 = Kim's NASDAQ market, F4 = Lisa's whole client subtree.
/// (The paper labels Kim's market F4 and Lisa's client F3; ids here follow
/// document order, the content is identical.)
inline std::vector<NodeId> ClienteleCuts(const Tree& t) {
  return {
      FindOne(t, "clientele/client[name = \"Anna\"]/broker"),
      FindOne(t, "clientele/client[name = \"Anna\"]/broker/market"),
      FindOne(t, "clientele/client[name = \"Kim\"]/broker/"
                 "market[name = \"NASDAQ\"]"),
      FindOne(t, "clientele/client[name = \"Lisa\"]"),
  };
}

/// Deterministic random tree over a small label alphabet, with text leaves
/// carrying string and numeric values — designed so that the property-test
/// query battery has plenty of matches and near-misses.
inline Tree RandomTree(Rng* rng, size_t target_nodes) {
  static const char* kLabels[] = {"a", "b", "c", "d", "e"};
  static const char* kTexts[] = {"x", "y", "z", "10", "20", "30"};
  TreeBuilder b(std::make_shared<SymbolTable>());
  b.Open("root");
  size_t nodes = 1;
  // Random growth: at each step, open a child, add a text leaf, or close.
  // Adjacent text siblings are avoided: XML serialization merges them, so
  // they cannot round-trip through parse/serialize (and never arise from
  // parsed documents).
  bool last_was_text = false;
  while (nodes < target_nodes) {
    const uint64_t action = rng->NextBounded(10);
    if (action < 5) {  // open an element child
      b.Open(kLabels[rng->NextBounded(5)]);
      last_was_text = false;
      ++nodes;
    } else if (action < 8) {  // text leaf
      if (!last_was_text) {
        b.Text(kTexts[rng->NextBounded(6)]);
        last_was_text = true;
        ++nodes;
      }
    } else if (b.open_depth() > 1) {
      b.Close();
      last_was_text = false;
    } else {
      b.Open(kLabels[rng->NextBounded(5)]);
      last_was_text = false;
      ++nodes;
    }
    if (b.open_depth() > 8) {
      b.Close();
      last_was_text = false;
    }
  }
  while (b.open_depth() > 0) b.Close();
  return std::move(b).Finish();
}

/// The query battery used by randomized equivalence tests: exercises child
/// and descendant steps, wildcards, self filters, text/val comparisons, and
/// the Boolean operators.
inline std::vector<std::string> PropertyQueryBattery() {
  return {
      "root/a",
      "root/a/b",
      "//a",
      "//a/b",
      "//a//b",
      "root//c",
      "root/*/a",
      "//*",
      "root/a[b]",
      "//a[b/c]",
      "//a[b or c]/d",
      "//a[not(b)]/c",
      "//a[text() = \"x\"]",
      "//b[val() >= 20]",
      "//a[b/text() = \"y\"]/c",
      "//a[.//b]",
      "//a[.//b/text() = \"x\" and not(c)]/b",
      "root/a/.[b]/c",
      "//.[a/b]",
      ".[//a]",
      ".[//a/b and //c]",
      "root//.[text() = \"z\"]",
      "//a[b][c]/d",
      "//d[.//a or val() < 15]",
  };
}

/// The eight-query PaX2 mix of the repository benchmark's FT2 workloads:
/// Q1-Q4 plus four qualifier-free paths over every FT2 region.
inline std::vector<std::string> Ft2QueryMix() {
  return {xmark::kQ1,
          xmark::kQ2,
          xmark::kQ3,
          xmark::kQ4,
          "//item/name",
          "/sites/site/regions//item",
          "/sites/site/closed_auctions//annotation",
          "/sites/site/people/person/address/country"};
}

/// Qualifier queries that reach every branch of PaX2's per-node qualifier
/// step on the battery's random trees: each rest axis (child, `//A`,
/// `//.[q]`), ε steps with qualifiers, `not(...)`, text and value tests,
/// wildcards, qualifiers at nodes deep inside fragments, and two queries
/// with more than 64 QVect entries, whose last (highest-numbered) atoms are
/// the ones most often true.
inline std::vector<std::string> QualifierKernelQueries() {
  static const char* kLabels[] = {"a", "b", "c", "d", "e"};
  // 42 distinct three-step paths over the five labels: with their shared
  // suffixes they compile to more than 64 entries.
  auto wide = [&](const std::string& head, const std::string& tail) {
    std::string q = head + "[";
    int n = 0;
    for (int i = 0; i < 5 && n < 42; ++i) {
      for (int j = 0; j < 5 && n < 42; ++j) {
        for (int k = 0; k < 5 && n < 42; k += 2, ++n) {
          q += std::string(kLabels[(i + 2) % 5]) + "/" + kLabels[(j + 3) % 5] +
               "/" + kLabels[(k + i + j) % 5] + " or ";
        }
      }
    }
    return q + tail + "]";
  };
  return {
      "//a[.[b or c]/d]",
      "//a[b//c]/d",
      "//*[b//.[text() = \"x\"]]",
      "//*[not(.//c) and d]",
      "//a[.//b[val() > 15]]/c",
      "root//.[b/text() = \"z\" or c//d]",
      "//b[*/c and not(d/text() = \"y\")]",
      "//a[b]//c[d/e]",
      "//e[.//.[a and not(b)]/c]",
      "//c[d/*/e//a]",
      wide("//a", "b/text() = \"x\" or c//d"),
      wide("//*", "not(e) and d//.[text() = \"10\"]") + "/c",
  };
}

}  // namespace paxml::testing

#endif  // PAXML_TESTS_TEST_UTIL_H_
