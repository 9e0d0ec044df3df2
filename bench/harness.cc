#include "harness.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/workload.h"
#include "eval/centralized.h"

// Set by the build (CMakeLists.txt); absent when another project compiles
// this file.
#ifndef PAXML_BUILD_TYPE
#define PAXML_BUILD_TYPE "unknown"
#endif
#ifndef PAXML_GIT_COMMIT
#define PAXML_GIT_COMMIT "unknown"
#endif

namespace paxml::bench {

size_t UnitBytes() {
  double scale = 1.0;
  if (const char* env = std::getenv("PAXML_BENCH_SCALE")) {
    scale = std::max(0.01, std::atof(env));
  }
  return static_cast<size_t>(48.0 * 1024.0 * scale);
}

int Repetitions() {
  if (const char* env = std::getenv("PAXML_BENCH_REPS")) {
    return std::max(1, std::atoi(env));
  }
  return 3;
}

Workload MakeFT1(size_t fragments, size_t total_bytes, uint64_t seed) {
  PAXML_CHECK_GT(fragments, 0u);
  XMarkOptions options;
  options.seed = seed;
  options.symbols = std::make_shared<SymbolTable>();
  std::vector<SiteBudget> budgets(
      fragments, SiteBudget::Uniform(total_bytes / fragments));
  Tree tree = GenerateSitesTree(budgets, options);

  // Cut every site except the first (which stays with the root in F0).
  std::vector<NodeId> cuts;
  bool first = true;
  for (NodeId site : tree.children(tree.root())) {
    if (!first) cuts.push_back(site);
    first = false;
  }
  auto doc_r = FragmentByCuts(tree, cuts);
  PAXML_CHECK(doc_r.ok());

  Workload w;
  w.doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  w.cumulative_bytes = total_bytes;
  // One fragment per machine.
  // Sequential execution: each site's compute is timed in isolation, so the
  // parallel metric (per-round max over sites) and the total metric (sum)
  // are both free of host-scheduling noise. Thread-parallel rounds are
  // exercised by the test suite.
  ClusterOptions copts;
  copts.parallel_execution = false;
  w.cluster = std::make_unique<Cluster>(w.doc, w.doc->size(), copts);
  for (size_t f = 0; f < w.doc->size(); ++f) {
    PAXML_CHECK(w.cluster
                    ->Place(static_cast<FragmentId>(f),
                            static_cast<SiteId>(f))
                    .ok());
  }
  return w;
}

namespace {

/// Child of `parent` with the given label (first match).
NodeId ChildLabeled(const Tree& t, NodeId parent, std::string_view label) {
  for (NodeId c : t.children(parent)) {
    if (t.IsElement(c) && t.LabelName(c) == label) return c;
  }
  PAXML_CHECK(false);
  return kNullNode;
}

}  // namespace

Workload MakeFT2(double scale, uint64_t seed) {
  const double u = static_cast<double>(UnitBytes()) * scale;
  auto units = [&](double n) { return static_cast<size_t>(n * u); };

  // Per-site budgets reproducing the paper's fragment-size multiset; see the
  // header comment for the fragment layout.
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
  Tree tree = GenerateSitesTree({site_a, site_b, site_c, site_d}, options);

  std::vector<NodeId> sites;
  for (NodeId s : tree.children(tree.root())) sites.push_back(s);
  PAXML_CHECK_EQ(sites.size(), 4u);
  const NodeId site_b_node = sites[1];
  const NodeId site_c_node = sites[2];
  const NodeId site_d_node = sites[3];

  std::vector<NodeId> cuts = {
      site_b_node,
      ChildLabeled(tree, site_b_node, "regions"),
      ChildLabeled(tree, site_b_node, "open_auctions"),
      site_c_node,
      ChildLabeled(tree, ChildLabeled(tree, site_c_node, "regions"),
                   "namerica"),
      ChildLabeled(tree, site_c_node, "categories"),
      ChildLabeled(tree, site_c_node, "open_auctions"),
      ChildLabeled(tree, site_c_node, "closed_auctions"),
      site_d_node,
  };
  auto doc_r = FragmentByCuts(tree, cuts);
  PAXML_CHECK(doc_r.ok());

  Workload w;
  w.doc = std::make_shared<FragmentedDocument>(std::move(doc_r).ValueOrDie());
  w.cumulative_bytes = static_cast<size_t>(104 * u);
  // Sequential execution: each site's compute is timed in isolation, so the
  // parallel metric (per-round max over sites) and the total metric (sum)
  // are both free of host-scheduling noise. Thread-parallel rounds are
  // exercised by the test suite.
  ClusterOptions copts;
  copts.parallel_execution = false;
  w.cluster = std::make_unique<Cluster>(w.doc, w.doc->size(), copts);
  for (size_t f = 0; f < w.doc->size(); ++f) {
    PAXML_CHECK(w.cluster
                    ->Place(static_cast<FragmentId>(f),
                            static_cast<SiteId>(f))
                    .ok());
  }
  return w;
}

void PlaceFT2Paper(Cluster& cluster) {
  PAXML_CHECK_EQ(cluster.doc().size(), 10u);
  PAXML_CHECK_EQ(cluster.site_count(), 4u);
  constexpr SiteId kSiteOf[10] = {0, 1, 1, 1, 2, 2, 2, 2, 2, 3};
  for (size_t f = 0; f < 10; ++f) {
    PAXML_CHECK(cluster.Place(static_cast<FragmentId>(f), kSiteOf[f]).ok());
  }
}

Workload MakeFT2Paper(double scale, uint64_t seed) {
  Workload w = MakeFT2(scale, seed);
  // Re-cluster onto the paper's four machines (see harness.h for the
  // fragment layout; sequential execution for noise-free timing, as FT2).
  ClusterOptions copts;
  copts.parallel_execution = false;
  w.cluster = std::make_unique<Cluster>(w.doc, 4, copts);
  PlaceFT2Paper(*w.cluster);
  return w;
}

Measurement Measure(const Workload& w, const std::string& query,
                    DistributedAlgorithm algo, bool annotations) {
  EngineOptions options;
  options.algorithm = algo;
  options.pax.use_annotations = annotations;
  std::unique_ptr<Transport> transport = MakeTransportFor(*w.cluster);

  Measurement m;
  const int reps = Repetitions();
  for (int i = 0; i < reps; ++i) {
    auto r = EvaluateWorkload(*w.cluster, query, options, transport.get());
    PAXML_CHECK(r.ok());
    const RunStats& s = r->stats;
    m.parallel_seconds += s.parallel_seconds + s.coordinator_seconds;
    m.total_seconds += s.total_compute_seconds + s.coordinator_seconds;
    m.elapsed_seconds += s.ElapsedSeconds();
    m.total_bytes = s.total_bytes;
    m.answer_bytes = s.answer_bytes;
    m.data_bytes = s.data_bytes_shipped;
    m.total_messages = s.total_messages;
    m.total_envelopes = s.total_envelopes;
    m.rounds = s.rounds;
    m.max_visits = s.max_visits();
    m.answers = r->answers.size();
  }
  m.parallel_seconds /= reps;
  m.total_seconds /= reps;
  m.elapsed_seconds /= reps;
  return m;
}

TablePrinter::TablePrinter(std::vector<std::string> columns)
    : columns_(std::move(columns)) {
  std::string header;
  std::string rule;
  for (size_t i = 0; i < columns_.size(); ++i) {
    header += StringFormat("%-16s", columns_[i].c_str());
    rule += "----------------";
  }
  std::printf("%s\n%s\n", header.c_str(), rule.c_str());
}

void TablePrinter::AddRow(const std::vector<std::string>& cells) {
  std::string row;
  for (const std::string& c : cells) row += StringFormat("%-16s", c.c_str());
  std::printf("%s\n", row.c_str());
  std::fflush(stdout);
}

std::string Secs(double s) { return StringFormat("%.4f", s); }

double BenchScale() {
  if (const char* env = std::getenv("PAXML_BENCH_SCALE")) {
    return std::max(0.01, std::atof(env));
  }
  return 1.0;
}

// ---- BENCH_*.json emission --------------------------------------------------

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue& JsonValue::Set(std::string key, JsonValue value) {
  PAXML_CHECK(kind_ == Kind::kObject);
  fields_.emplace_back(std::move(key), std::move(value));
  return *this;
}

JsonValue& JsonValue::Add(JsonValue value) {
  PAXML_CHECK(kind_ == Kind::kArray);
  items_.push_back(std::move(value));
  return *this;
}

bool JsonValue::Flat() const {
  const auto is_container = [](const JsonValue& v) {
    return v.kind_ == Kind::kArray || v.kind_ == Kind::kObject;
  };
  for (const JsonValue& v : items_) {
    if (is_container(v)) return false;
  }
  for (const auto& [key, v] : fields_) {
    if (is_container(v)) return false;
  }
  return true;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StringFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest %g form that still round-trips typical bench values; integral
/// doubles keep a ".0" so the field stays a float across runs.
std::string JsonNumber(double v) {
  std::string s = StringFormat("%.9g", v);
  if (s.find_first_of(".eEnif") == std::string::npos) s += ".0";
  return s;
}

}  // namespace

std::string JsonValue::Encode(int indent) const {
  switch (kind_) {
    case Kind::kNull: return "null";
    case Kind::kBool: return bool_ ? "true" : "false";
    case Kind::kInt: return StringFormat("%lld", static_cast<long long>(int_));
    case Kind::kUint:
      return StringFormat("%llu", static_cast<unsigned long long>(uint_));
    case Kind::kDouble: return JsonNumber(double_);
    case Kind::kString: return "\"" + JsonEscape(string_) + "\"";
    case Kind::kArray:
    case Kind::kObject: break;
  }

  const bool array = kind_ == Kind::kArray;
  const size_t count = array ? items_.size() : fields_.size();
  if (count == 0) return array ? "[]" : "{}";

  const bool multiline = !Flat();
  const std::string open(array ? "[" : "{");
  const std::string close(array ? "]" : "}");
  const std::string outer(static_cast<size_t>(indent) * 2, ' ');
  const std::string inner(static_cast<size_t>(indent + 1) * 2, ' ');
  std::string out = open;
  for (size_t i = 0; i < count; ++i) {
    out += multiline ? "\n" + inner : (i == 0 ? "" : " ");
    if (!array) out += "\"" + JsonEscape(fields_[i].first) + "\": ";
    out += (array ? items_[i] : fields_[i].second).Encode(indent + 1);
    if (i + 1 < count) out += ",";
  }
  if (multiline) out += "\n" + outer;
  return out + close;
}

JsonValue BenchJsonHeader(const std::string& name) {
  JsonValue host = JsonValue::Object();
  host.Set("cores", static_cast<int>(std::thread::hardware_concurrency()))
      .Set("build_type", PAXML_BUILD_TYPE)
      .Set("commit", PAXML_GIT_COMMIT);
  JsonValue root = JsonValue::Object();
  root.Set("bench", name).Set("scale", BenchScale()).Set("reps", Repetitions());
  root.Set("host", std::move(host));
  return root;
}

void EmitBenchJson(const std::string& path, const JsonValue& root) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  const std::string text = root.Encode();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace paxml::bench
