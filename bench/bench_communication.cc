// Communication-cost validation (Section 3.4 claims; not a figure in the
// paper, but the headline analytical guarantee):
//
//   total traffic of PaX3/PaX2 = O(|Q| |FT| + |ans|) — independent of |T| —
//   versus NaiveCentralized, which ships the whole document.
//
// Table 1 sweeps the document size with the fragment tree and query fixed:
// PaX traffic net of answers must stay flat while Naive grows linearly.
// Table 2 compares answer-shipping modes. Table 3 scales |FT|.
//
// Table 4 measures the framed message plane (DESIGN.md §8) on the paper's
// actual deployment — FT2's ten fragments on four machines — comparing
// batched (default) against unbatched transport: byte totals must be
// identical, messages per round must drop >= 30%, and the modeled latency
// under a NetworkCostModel with per-message overhead must fall. The checks
// are hard PAXML_CHECKs so the CI smoke run catches message-count
// regressions.
//
// Table 5 measures delta answer streams on the same deployment (DESIGN.md
// §13): delta+varint answer-id streams against the absolute varints they
// replaced. Gated: the answer streams shrink >= 30% under delta coding.
// Emits BENCH_wire.json for the perf trajectory.

#include <cstdio>

#include "common/logging.h"
#include "core/workload.h"
#include "harness.h"

using namespace paxml;
using namespace paxml::bench;

namespace {

/// One evaluation on a fresh transport of the cluster's default kind.
DistributedResult Evaluate(const Workload& w, const std::string& query,
                           const EngineOptions& options,
                           TransportOptions transport_options = {}) {
  std::unique_ptr<Transport> transport = MakeTransportFor(
      *w.cluster, std::nullopt, std::move(transport_options));
  auto r = EvaluateWorkload(*w.cluster, query, options, transport.get());
  PAXML_CHECK(r.ok());
  return std::move(r).ValueOrDie();
}

Measurement MeasureWithMode(const Workload& w, const std::string& query,
                            DistributedAlgorithm algo, AnswerShipMode mode) {
  EngineOptions options;
  options.algorithm = algo;
  options.pax.ship_mode = mode;
  const DistributedResult r = Evaluate(w, query, options);
  Measurement m;
  m.total_bytes = r.stats.total_bytes;
  m.answer_bytes = r.stats.answer_bytes;
  m.data_bytes = r.stats.data_bytes_shipped;
  m.answers = r.answers.size();
  return m;
}

RunStats EvalStats(const Workload& w, const std::string& query,
                   DistributedAlgorithm algo, bool batching) {
  EngineOptions options;
  options.algorithm = algo;
  TransportOptions transport;
  transport.batching = batching;
  return Evaluate(w, query, options, transport).stats;
}

void FrameBatchingTable() {
  std::printf(
      "\nTable 4 — frame batching (FT2 x1 on the paper's 4 machines, PaX2; "
      "modeled: 0.1 ms/message + 66 B/message overhead)\n");
  NetworkCostModel net;
  net.per_message_overhead_bytes = 66;

  Workload w = MakeFT2Paper(1.0);
  // wire(B) is RunStats::wire_bytes: what the socket backend actually
  // writes — frame headers plus materialized payloads, no phantom bytes.
  TablePrinter table({"query", "envelopes", "msgs", "msgs(batch)", "msg/round",
                      "drop%", "wire(B)", "lat(ms)", "lat(batch,ms)"});
  uint64_t messages = 0;
  uint64_t batched_messages = 0;
  for (const auto& q : xmark::ExperimentQueries()) {
    RunStats plain = EvalStats(w, q.text, DistributedAlgorithm::kPaX2,
                               /*batching=*/false);
    RunStats batched = EvalStats(w, q.text, DistributedAlgorithm::kPaX2,
                                 /*batching=*/true);
    // Frames re-package the protocol's traffic; they never change it.
    PAXML_CHECK_EQ(batched.total_bytes, plain.total_bytes);
    PAXML_CHECK_EQ(batched.answer_bytes, plain.answer_bytes);
    PAXML_CHECK_EQ(batched.total_envelopes, plain.total_envelopes);
    PAXML_CHECK_EQ(batched.rounds, plain.rounds);
    PAXML_CHECK_EQ(batched.max_visits(), plain.max_visits());
    // Frames exist exactly when batching is on.
    PAXML_CHECK_EQ(plain.wire_bytes, 0u);
    PAXML_CHECK(batched.wire_bytes > 0);
    messages += plain.total_messages;
    batched_messages += batched.total_messages;
    const double drop =
        100.0 * (1.0 - static_cast<double>(batched.total_messages) /
                           static_cast<double>(plain.total_messages));
    table.AddRow(
        {q.name, std::to_string(plain.total_envelopes),
         std::to_string(plain.total_messages),
         std::to_string(batched.total_messages),
         StringFormat("%.1f", static_cast<double>(batched.total_messages) /
                                  batched.rounds),
         StringFormat("%.0f%%", drop),
         std::to_string(batched.wire_bytes),
         StringFormat("%.3f", 1000 * net.TransferSeconds(plain.total_messages,
                                                         plain.total_bytes)),
         StringFormat("%.3f",
                      1000 * net.TransferSeconds(batched.total_messages,
                                                 batched.total_bytes))});
  }
  // The acceptance floor: >= 30% fewer messages per round across the
  // experiment queries (and so strictly lower modeled latency).
  PAXML_CHECK_LE(batched_messages * 10, messages * 7);
}

void WireEfficiencyTable() {
  std::printf(
      "\nTable 5 — delta answer streams (FT2 x1 on the paper's 4 machines, "
      "PaX2)\n");
  // abs(B) is what the answer-id streams would cost as absolute varints
  // (RunStats::delta_logical_bytes, the paper-model price); delta(B) is
  // what they cost delta-coded. wire(B) is the full frame stream.
  TablePrinter table({"query", "abs(B)", "delta(B)", "drop%", "wire(B)"});

  Workload w = MakeFT2Paper(1.0);
  uint64_t abs_total = 0, delta_total = 0, wire_total = 0;
  JsonValue rows = JsonValue::Array();
  for (const auto& q : xmark::ExperimentQueries()) {
    const RunStats s = Evaluate(w, q.text, {}).stats;
    abs_total += s.delta_logical_bytes;
    delta_total += s.delta_wire_bytes;
    wire_total += s.wire_bytes;

    const double drop =
        s.delta_logical_bytes == 0
            ? 0.0
            : 100.0 * (1.0 - static_cast<double>(s.delta_wire_bytes) /
                                 static_cast<double>(s.delta_logical_bytes));
    table.AddRow({q.name, std::to_string(s.delta_logical_bytes),
                  std::to_string(s.delta_wire_bytes),
                  StringFormat("%.0f%%", drop), std::to_string(s.wire_bytes)});
    rows.Add(JsonValue::Object()
                 .Set("query", q.name)
                 .Set("answer_abs_bytes", s.delta_logical_bytes)
                 .Set("answer_delta_bytes", s.delta_wire_bytes)
                 .Set("wire_bytes", s.wire_bytes));
  }

  // The acceptance floor: delta coding takes >= 30% off the answer-id
  // streams across the experiment queries.
  PAXML_CHECK_LE(delta_total * 10, abs_total * 7);
  std::printf("(gated: answer streams %.0f%% smaller delta-coded; wire %llu "
              "B.)\n",
              100.0 * (1.0 - static_cast<double>(delta_total) /
                                 static_cast<double>(abs_total)),
              static_cast<unsigned long long>(wire_total));

  EmitBenchJson("BENCH_wire.json",
                BenchJsonHeader("wire")
                    .Set("answer_abs_bytes", abs_total)
                    .Set("answer_delta_bytes", delta_total)
                    .Set("wire_bytes", wire_total)
                    .Set("queries", std::move(rows)));
}

}  // namespace

int main() {
  std::printf("Communication cost (Section 3.4): O(|Q||FT| + |ans|)\n\n");

  std::printf(
      "Table 1 — traffic vs document size (FT2 x scale, query Q3, "
      "reference-shipped answers)\n");
  {
    TablePrinter table({"size(MB)", "PaX2(B)", "PaX2-ans(B)", "PaX2-net(B)",
                        "Naive(B)", "answers"});
    for (double scale = 1.0; scale <= 2.8001; scale += 0.6) {
      Workload w = MakeFT2(scale);
      Measurement pax = MeasureWithMode(w, xmark::kQ3,
                                        DistributedAlgorithm::kPaX2,
                                        AnswerShipMode::kReferences);
      Measurement naive = MeasureWithMode(w, xmark::kQ3,
                                          DistributedAlgorithm::kNaiveCentralized,
                                          AnswerShipMode::kReferences);
      table.AddRow({StringFormat("%.1f", static_cast<double>(w.cumulative_bytes) /
                                             (1024 * 1024)),
                    std::to_string(pax.total_bytes),
                    std::to_string(pax.answer_bytes),
                    std::to_string(pax.total_bytes - pax.answer_bytes),
                    std::to_string(naive.total_bytes),
                    std::to_string(pax.answers)});
    }
  }

  std::printf(
      "\nTable 2 — answer shipping modes (FT2 x1, per query, PaX2)\n");
  {
    TablePrinter table({"query", "answers", "refs(B)", "subtrees(B)"});
    Workload w = MakeFT2(1.0);
    for (const auto& q : xmark::ExperimentQueries()) {
      Measurement refs = MeasureWithMode(w, q.text, DistributedAlgorithm::kPaX2,
                                         AnswerShipMode::kReferences);
      Measurement subs = MeasureWithMode(w, q.text, DistributedAlgorithm::kPaX2,
                                         AnswerShipMode::kSubtrees);
      table.AddRow({q.name, std::to_string(refs.answers),
                    std::to_string(refs.answer_bytes),
                    std::to_string(subs.answer_bytes)});
    }
  }

  std::printf(
      "\nTable 3 — traffic vs fragment count (FT1, constant data, Boolean "
      "query: |ans| = O(1))\n");
  {
    TablePrinter table({"fragments", "PaX2(B)", "per-fragment(B)"});
    const std::string boolean_query = ".[//people/person/profile/age > 20]";
    for (size_t k = 2; k <= 10; k += 2) {
      Workload w = MakeFT1(k, 50 * UnitBytes());
      Measurement m = MeasureWithMode(w, boolean_query,
                                      DistributedAlgorithm::kPaX2,
                                      AnswerShipMode::kReferences);
      table.AddRow({std::to_string(k), std::to_string(m.total_bytes),
                    std::to_string(m.total_bytes / (k + 1))});
    }
  }

  FrameBatchingTable();
  WireEfficiencyTable();
  return 0;
}
