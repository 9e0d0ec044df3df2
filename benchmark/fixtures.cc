#include "fixtures.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/reach.h"
#include "fragment/fragmenter.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace paxml::perf {
namespace {

NodeId ChildLabeled(const Tree& t, NodeId parent, std::string_view label) {
  for (NodeId c : t.children(parent)) {
    if (t.IsElement(c) && t.LabelName(c) == label) return c;
  }
  PAXML_CHECK(false);
  return kNullNode;
}

/// One relative fragment-size unit at scale 1.0.
constexpr size_t kUnitBytes = 48 * 1024;

/// The banded digraph's row width: an edge spans less than two rows.
constexpr int32_t kWindow = 16;

/// Vertices per fragment of ContiguousPartition: whole rows, so every cut
/// falls on a row boundary.
int32_t FragmentSpan(int32_t vertices, size_t fragments) {
  const int32_t k = static_cast<int32_t>(fragments);
  const int32_t rows = ((vertices + k - 1) / k + kWindow - 1) / kWindow;
  return rows * kWindow;
}

}  // namespace

Tree GenerateFT2(double scale, uint64_t seed) {
  const double u = static_cast<double>(kUnitBytes) * scale;
  auto units = [&](double n) { return static_cast<size_t>(n * u); };

  SiteBudget site_a = SiteBudget::Uniform(units(5));

  SiteBudget site_b;  // remainder 5, regions 12, open_auctions 12
  site_b.regions_namerica = units(4);
  site_b.regions_other = units(8);
  site_b.categories = units(0.5);
  site_b.people = units(3);
  site_b.open_auctions = units(12);
  site_b.closed_auctions = units(1.5);

  SiteBudget site_c;  // remainder 5, namerica 28, categories 8, open 12,
                      // closed 12
  site_c.regions_namerica = units(28);
  site_c.regions_other = units(2);
  site_c.categories = units(8);
  site_c.people = units(3);
  site_c.open_auctions = units(12);
  site_c.closed_auctions = units(12);

  SiteBudget site_d = SiteBudget::Uniform(units(5));

  XMarkOptions options;
  options.seed = seed;
  options.symbols = std::make_shared<SymbolTable>();
  return GenerateSitesTree({site_a, site_b, site_c, site_d}, options);
}

std::shared_ptr<FragmentedDocument> FragmentFT2(const Tree& tree) {
  std::vector<NodeId> sites;
  for (NodeId s : tree.children(tree.root())) sites.push_back(s);
  PAXML_CHECK_EQ(sites.size(), 4u);
  const NodeId b = sites[1];
  const NodeId c = sites[2];
  const std::vector<NodeId> cuts = {
      b,
      ChildLabeled(tree, b, "regions"),
      ChildLabeled(tree, b, "open_auctions"),
      c,
      ChildLabeled(tree, ChildLabeled(tree, c, "regions"), "namerica"),
      ChildLabeled(tree, c, "categories"),
      ChildLabeled(tree, c, "open_auctions"),
      ChildLabeled(tree, c, "closed_auctions"),
      sites[3],
  };
  auto doc = FragmentByCuts(tree, cuts);
  PAXML_CHECK(doc.ok());
  return std::make_shared<FragmentedDocument>(std::move(doc).ValueOrDie());
}

void PlaceFT2Paper(Cluster& cluster) {
  PAXML_CHECK_EQ(cluster.fragment_count(), 10u);
  PAXML_CHECK_EQ(cluster.site_count(), 4u);
  constexpr SiteId kSiteOf[10] = {0, 1, 1, 1, 2, 2, 2, 2, 2, 3};
  for (size_t f = 0; f < 10; ++f) {
    PAXML_CHECK(cluster.Place(static_cast<FragmentId>(f), kSiteOf[f]).ok());
  }
}

void PlaceOneHot(Cluster& cluster) {
  PAXML_CHECK_EQ(cluster.site_count(), 3u);
  const FragmentedDocument& doc = cluster.doc();
  FragmentId hot = 1;
  size_t hot_nodes = 0;
  for (size_t f = 1; f < doc.size(); ++f) {
    const size_t n = doc.fragment(static_cast<FragmentId>(f)).tree.size();
    if (n > hot_nodes) {
      hot_nodes = n;
      hot = static_cast<FragmentId>(f);
    }
  }
  for (size_t f = 0; f < doc.size(); ++f) {
    const FragmentId id = static_cast<FragmentId>(f);
    const SiteId site = f == 0 ? 0 : (id == hot ? 1 : 2);
    PAXML_CHECK(cluster.Place(id, site).ok());
  }
}

Digraph BandedDigraph(int32_t vertices, uint64_t seed) {
  Rng rng(seed);
  Digraph g;
  g.vertex_count = vertices;
  g.out.resize(vertices);
  for (int32_t v = 0; v < vertices; ++v) {
    const int32_t row = v - v % kWindow;
    const int32_t below = row + kWindow;
    if (v + kWindow < vertices) g.out[v].push_back(v + kWindow);
    const int32_t head =
        below + static_cast<int32_t>(rng.NextBounded(kWindow));
    if (head < vertices) g.out[v].push_back(head);
    if (rng.NextBool(0.1)) {
      const int32_t back = row + static_cast<int32_t>(rng.NextBounded(kWindow));
      if (back != v && back < vertices) g.out[v].push_back(back);
    }
  }
  for (auto& heads : g.out) {
    std::sort(heads.begin(), heads.end());
    heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
  }
  return g;
}

std::shared_ptr<const GraphFragmentStore> ContiguousPartition(
    const Digraph& graph, size_t fragments) {
  const int32_t n = graph.vertex_count;
  const int32_t k = static_cast<int32_t>(fragments);
  const int32_t span = FragmentSpan(n, fragments);
  std::vector<FragmentId> owner(n);
  for (int32_t v = 0; v < n; ++v) {
    owner[v] = static_cast<FragmentId>(std::min(k - 1, v / span));
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (int32_t v = 0; v < n; ++v) {
    for (NodeId head : graph.out[v]) edges.push_back({v, head});
  }
  auto store = BuildGraphStore(n, std::move(owner), std::move(edges));
  PAXML_CHECK(store.ok());
  return std::move(store).ValueOrDie();
}

std::vector<std::string> Ft2Mix() {
  return {xmark::kQ1,
          xmark::kQ2,
          xmark::kQ3,
          xmark::kQ4,
          "//item/name",
          "/sites/site/regions//item",
          "/sites/site/closed_auctions//annotation",
          "/sites/site/people/person/address/country"};
}

std::vector<std::string> SplitMix() {
  return {"//item/name", "//item/description/text", "//description//text"};
}

std::vector<std::string> ServeQueries() {
  struct Template {
    const char* format;
    int lo, hi;  ///< the parameter's range in the generated data
  };
  const Template templates[4] = {
      {"/sites/site/people/person[profile/age > %d]/name", 18, 60},
      {"/sites/site/open_auctions/open_auction[initial > %d]/current", 1, 201},
      {"/sites//closed_auctions/closed_auction[price > %d]/itemref", 1, 1001},
      {"/sites/site/people/person[address/zipcode > %d]/emailaddress", 10000,
       100000},
  };
  // Value i of a template is the middle of the i-th of 16 equal strata of
  // its range. The values do not follow the seed: a hit costs a copy of the
  // answer, so seeded values would move the cost of the hit path with the
  // seed rather than with the program.
  constexpr int kValues = 16;
  std::vector<std::string> ranked;
  for (int i = 0; i < kValues; ++i) {
    for (const Template& t : templates) {
      const double width = static_cast<double>(t.hi - t.lo) / kValues;
      const int v = t.lo + static_cast<int>((i + 0.5) * width);
      ranked.push_back(StringFormat(t.format, v));
    }
  }
  return ranked;
}

std::vector<std::string> ReachQueries(int32_t vertices, size_t fragments,
                                      uint64_t seed) {
  // One query per (source fragment, target fragment) pair of the contiguous
  // partition, at seeded offsets inside each fragment.
  Rng rng(seed ^ 0x4eac4ULL);
  const int32_t k = static_cast<int32_t>(fragments);
  const int32_t span = FragmentSpan(vertices, fragments);
  auto vertex_in = [&](int32_t f) {
    const int32_t lo = f * span;
    const int32_t hi = std::min(vertices, lo + span);
    return static_cast<NodeId>(lo + static_cast<int32_t>(rng.NextBounded(hi - lo)));
  };
  std::vector<std::string> out;
  for (int32_t from = 0; from < k; ++from) {
    for (int32_t to = 0; to < k; ++to) {
      ReachQuery q;
      q.source = vertex_in(from);
      q.target = vertex_in(to);
      out.push_back(FormatReachQuery(q));
    }
  }
  return out;
}

}  // namespace paxml::perf
