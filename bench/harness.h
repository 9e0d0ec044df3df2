// Shared harness for the figure/table reproduction benchmarks.
//
// Builds the paper's two experimental fragment trees over XMark-like data:
//
//  FT1 (Experiment 1, Fig. 8 left): k fragments, each one whole XMark
//  "site"; F0 additionally holds the root. One fragment per machine; the
//  cumulative size stays constant as k grows.
//
//  FT2 (Experiments 2-3, Fig. 8 right): four sites A..D over ten fragments
//  with the paper's size multiset {5,5,5,5, 12,12,12,12, 28, 8} (relative
//  units):
//    F0 = root + whole site A (5)          F5 = C's regions/namerica (28)
//    F1 = site B remainder (5)             F6 = C's categories (8)
//    F2 = B's regions (12)                 F7 = C's open_auctions (12)
//    F3 = B's open_auctions (12)           F8 = C's closed_auctions (12)
//    F4 = site C remainder (5)             F9 = whole site D (5)
//  (Fragment ids are assigned in document order; the paper's figure labels
//  the same fragments differently. The 28-unit fragment holds region items,
//  so Q2's annotation pruning drops it — the paper's Fig. 10(b) narrative.)
//
// Sizes are scaled down from the paper's 100..280 MB so every figure
// regenerates in seconds (see DESIGN.md §4); set PAXML_BENCH_SCALE to grow
// them (1.0 equals the harness default noted below, not the paper's LAN
// sizes).

#ifndef PAXML_BENCH_HARNESS_H_
#define PAXML_BENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/engine.h"
#include "fragment/fragmenter.h"
#include "sim/cluster.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace paxml::bench {

/// One "unit" of the paper's relative fragment sizes (the paper's unit is
/// 1 MB at cumulative 104 units; ours defaults to 48 KB * PAXML_BENCH_SCALE,
/// i.e. cumulative ~5 MB per iteration).
size_t UnitBytes();

/// Number of repetitions averaged per measured point (the paper averages
/// over multiple runs). Override with PAXML_BENCH_REPS.
int Repetitions();

/// A fragmented document plus its cluster, ready to evaluate.
struct Workload {
  std::shared_ptr<FragmentedDocument> doc;
  std::unique_ptr<Cluster> cluster;
  size_t cumulative_bytes = 0;
};

/// FT1: `fragments` whole-site fragments of cumulative ~`total_bytes`,
/// one site (machine) per fragment.
Workload MakeFT1(size_t fragments, size_t total_bytes, uint64_t seed = 42);

/// FT2 at `scale` relative units (scale=1 -> the 104-unit layout above),
/// ten fragments on ten machines.
Workload MakeFT2(double scale, uint64_t seed = 42);

/// FT2's ten fragments on the *paper's* four machines (site A = {F0},
/// B = {F1,F2,F3}, C = {F4..F8}, D = {F9}): the deployment of Experiments
/// 2-3, where several fragments share a site. This is the layout on which
/// per-(run,edge) frame batching matters — a site's fragment replies
/// coalesce into one frame per round (bench_communication Table 4,
/// bench_multiquery's batching table).
Workload MakeFT2Paper(double scale, uint64_t seed = 42);

/// Places an FT2 document's ten fragments on `cluster`'s four sites in the
/// paper's layout above. The one definition of that placement — both
/// MakeFT2Paper and bench_multiquery's batching cluster go through it.
void PlaceFT2Paper(Cluster& cluster);

/// Measured outcome of one configuration, averaged over Repetitions().
struct Measurement {
  double parallel_seconds = 0;   ///< perceived (parallel) evaluation time
  double total_seconds = 0;      ///< total computation over all sites
  double elapsed_seconds = 0;    ///< parallel + coordinator + modeled network
  uint64_t total_bytes = 0;
  uint64_t answer_bytes = 0;
  uint64_t data_bytes = 0;
  uint64_t total_messages = 0;   ///< frames on the wire
  uint64_t total_envelopes = 0;  ///< protocol envelopes those frames carried
  int rounds = 0;
  int max_visits = 0;
  size_t answers = 0;
};

/// Runs `algo` (with `annotations`) over the workload.
Measurement Measure(const Workload& w, const std::string& query,
                    DistributedAlgorithm algo, bool annotations);

/// Prints a Markdown-ish table: header then AddRow calls.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> columns);
  void AddRow(const std::vector<std::string>& cells);

 private:
  std::vector<std::string> columns_;
};

/// Formats seconds with ms precision.
std::string Secs(double s);

/// PAXML_BENCH_SCALE as a number (1.0 when unset), for recording in the
/// emitted artifact; UnitBytes() already applies it to the data.
double BenchScale();

// ---- Machine-readable results (BENCH_*.json) --------------------------------
//
// Every perf-trajectory bench persists its measurements as a small JSON
// artifact in the working directory (ROADMAP item 3). JsonValue is the one
// writer they share: insertion-ordered objects, so the emitted field order
// is exactly the order the bench Set() them in, diff-friendly across runs.

class JsonValue {
 public:
  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool v) : kind_(Kind::kBool), bool_(v) {}
  JsonValue(int v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(int64_t v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(uint64_t v) : kind_(Kind::kUint), uint_(v) {}
  JsonValue(double v) : kind_(Kind::kDouble), double_(v) {}
  JsonValue(const char* v) : kind_(Kind::kString), string_(v) {}
  JsonValue(std::string v) : kind_(Kind::kString), string_(std::move(v)) {}

  static JsonValue Object();
  static JsonValue Array();

  /// Object field append (insertion order preserved); returns *this for
  /// chaining. The value must be an Object.
  JsonValue& Set(std::string key, JsonValue value);

  /// Array element append; the value must be an Array.
  JsonValue& Add(JsonValue value);

  /// Pretty-printed encoding: containers of scalars stay on one line (an
  /// axis row), containers of containers go multiline (the document).
  std::string Encode(int indent = 0) const;

 private:
  enum class Kind { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  bool Flat() const;  ///< no container children

  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  uint64_t uint_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> fields_;
};

/// An Object pre-filled with the envelope every bench artifact shares:
/// {"bench": name, "scale": BenchScale(), "reps": Repetitions(),
///  "host": {"cores", "build_type", "commit"}} — hardware_concurrency, the
/// CMake build type, and the commit checked out when the build was
/// configured ("unknown" outside a git checkout).
JsonValue BenchJsonHeader(const std::string& name);

/// Writes `root` to `path` and prints "wrote <path>"; a write failure is
/// reported on stderr, never fatal (the measurements already printed).
void EmitBenchJson(const std::string& path, const JsonValue& root);

}  // namespace paxml::bench

#endif  // PAXML_BENCH_HARNESS_H_
