#include "sim/stats.h"

#include <algorithm>

#include "common/string_util.h"

namespace paxml {

int RunStats::max_visits() const {
  int m = 0;
  for (const SiteStats& s : per_site) m = std::max(m, s.visits);
  return m;
}

uint64_t RunStats::total_visits() const {
  uint64_t n = 0;
  for (const SiteStats& s : per_site) n += static_cast<uint64_t>(s.visits);
  return n;
}

std::string RunStats::ToString() const {
  std::string out;
  out += StringFormat(
      "rounds=%d messages=%llu envelopes=%llu bytes=%llu (answers=%llu, "
      "data=%llu) wire=%llu\n",
      rounds, static_cast<unsigned long long>(total_messages),
      static_cast<unsigned long long>(total_envelopes),
      static_cast<unsigned long long>(total_bytes),
      static_cast<unsigned long long>(answer_bytes),
      static_cast<unsigned long long>(data_bytes_shipped),
      static_cast<unsigned long long>(wire_bytes));
  if (delta_logical_bytes > 0) {
    out += StringFormat(
        "delta-coded: logical=%llu wire=%llu\n",
        static_cast<unsigned long long>(delta_logical_bytes),
        static_cast<unsigned long long>(delta_wire_bytes));
  }
  out += StringFormat(
      "parallel=%.6fs total-compute=%.6fs coordinator=%.6fs max-visits=%d\n",
      parallel_seconds, total_compute_seconds, coordinator_seconds,
      max_visits());
  if (memo_fragment_hits > 0) {
    out += StringFormat(
        "memo: fragment-hits=%llu saved-bytes=%llu saved-compute=%.6fs\n",
        static_cast<unsigned long long>(memo_fragment_hits),
        static_cast<unsigned long long>(memo_saved_bytes),
        memo_saved_seconds);
  }
  for (size_t i = 0; i < per_site.size(); ++i) {
    const SiteStats& s = per_site[i];
    out += StringFormat(
        "  site %zu: visits=%d sent=%s recv=%s compute=%.6fs\n", i, s.visits,
        HumanBytes(s.bytes_sent).c_str(), HumanBytes(s.bytes_received).c_str(),
        s.compute_seconds);
  }
  for (const auto& [edge, e] : edges) {
    out += StringFormat("  edge %d->%d: messages=%llu envelopes=%llu bytes=%s\n",
                        edge.first, edge.second,
                        static_cast<unsigned long long>(e.messages),
                        static_cast<unsigned long long>(e.envelopes),
                        HumanBytes(e.bytes).c_str());
  }
  return out;
}

}  // namespace paxml
