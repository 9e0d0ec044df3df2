#include "core/reach.h"

#include <algorithm>
#include <charconv>
#include <deque>
#include <string_view>
#include <system_error>
#include <unordered_map>
#include <utility>
#include <vector>

#include "boolexpr/codec.h"
#include "common/string_util.h"
#include "core/messages.h"
#include "runtime/coordinator.h"

namespace paxml {

std::vector<int32_t> ReachEntryVertices(const GraphFragmentStore& store,
                                        const ReachQuery& query, FragmentId f) {
  const GraphFragment& frag = store.fragment(f);
  std::vector<int32_t> entries = frag.in_boundary;
  if (query.source >= 0 && query.source < store.vertex_count() &&
      store.fragment_of(query.source) == f) {
    entries.push_back(frag.LocalIndex(query.source));
    std::sort(entries.begin(), entries.end());
    entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  }
  return entries;
}

int32_t ReachLocalTarget(const GraphFragmentStore& store,
                         const ReachQuery& query, FragmentId f) {
  return (query.target >= 0 && query.target < store.vertex_count() &&
          store.fragment_of(query.target) == f)
             ? store.fragment(f).LocalIndex(query.target)
             : -1;
}

namespace {

/// One partially evaluated entry vertex, as decoded at the coordinator.
struct ReachRow : ReachEntryRow {
  NodeId vertex = kNullNode;  ///< global id; the row's boolean variable
};

/// Reachability as runtime handlers. Site side (kReachRequest) keeps no
/// per-run state — it reads the query and the const store, whose derived
/// tables are built once under std::call_once — so per-fragment lanes
/// (site_threads > 1) and concurrent runs need no per-fragment slots.
/// Coordinator side (kReachUp) accumulates rows single-threaded on the
/// driver thread.
class ReachProgram : public MessageHandlers {
 public:
  ReachProgram(const GraphFragmentStore* store, const ReachQuery& query)
      : store_(store),
        query_(query),
        reported_(store->fragment_count(), false) {}

  Status OnPart(SiteContext& ctx, const Envelope& env,
                const WirePart& part) override {
    switch (part.kind) {
      case MessageKind::kQueryShip:
        return Status::OK();  // cost-model event; the query is constructed in
      case MessageKind::kReachRequest:
        return OnReachRequest(ctx, part.fragment);
      case MessageKind::kReachUp:
        return OnReachUp(env.from, part);
      default:
        return Status::InvalidArgument(
            StringFormat("%s message delivered to a graph-workload run",
                         MessageKindName(part.kind)));
    }
  }

  bool AllReported() const {
    return std::all_of(reported_.begin(), reported_.end(),
                       [](bool b) { return b; });
  }

  /// Least fixpoint of the collected boolean system; runs at the
  /// coordinator after the delivery round.
  Result<bool> Solve() const;

 private:
  Status OnReachRequest(SiteContext& ctx, FragmentId f);
  Status OnReachUp(SiteId from, const WirePart& part);

  const GraphFragmentStore* store_;
  const ReachQuery query_;

  // Coordinator-side accumulation (driver thread only).
  std::vector<bool> reported_;  ///< fragment -> row payload arrived
  std::vector<ReachRow> rows_;
};

/// The fragment's one kReachUp: the row count, then one row per entry (in
/// entry order, ascending global id; deps sorted) — canonical bytes, so
/// remote peers reproduce the in-process wire exactly. Ids are
/// delta+varint coded (vertices across rows, deps within a row); the
/// part's logical size is what the absolute id coding would cost, which is
/// what the paper-model counters keep pricing.
Status ReachProgram::OnReachRequest(SiteContext& ctx, FragmentId f) {
  const GraphFragment& frag = store_->fragment(f);
  const std::vector<int32_t> entries = ReachEntryVertices(*store_, query_, f);
  const std::vector<ReachEntryRow>& cached = store_->InBoundaryRows(f);
  const int32_t local_target = ReachLocalTarget(*store_, query_, f);
  const std::vector<bool> reaches_target =
      store_->InBoundaryReaching(f, local_target);
  // A source that is not in-boundary is the one extra entry; its row takes
  // a traversal of its own.
  ReachEntryRow source_row;
  if (entries.size() > cached.size()) {
    const int32_t local_source = frag.LocalIndex(query_.source);
    source_row = EvaluateEntry(frag, local_source, local_target);
  }

  ByteWriter writer;
  writer.PutVarint(entries.size());
  uint64_t logical = VarintSize(entries.size());
  uint64_t prev_vertex = 0;
  size_t b = 0;  // the next in-boundary row
  for (int32_t entry : entries) {
    const bool in_boundary =
        b < frag.in_boundary.size() && frag.in_boundary[b] == entry;
    const bool direct = in_boundary ? reaches_target[b] : source_row.direct;
    const std::vector<NodeId>& deps =
        in_boundary ? cached[b].deps : source_row.deps;
    b += in_boundary;
    const uint64_t vertex =
        static_cast<uint64_t>(frag.vertices[static_cast<size_t>(entry)]);
    writer.PutVarint(vertex - prev_vertex);  // wraps, as DeltaIdEncoder does
    prev_vertex = vertex;
    writer.PutU8(direct ? 1 : 0);
    writer.PutVarint(deps.size());
    logical += VarintSize(vertex) + 1 + VarintSize(deps.size());
    DeltaIdEncoder dep_delta;  // deps restart per row (each list is sorted)
    for (NodeId d : deps) {
      dep_delta.Append(static_cast<uint64_t>(d), &writer);
      logical += VarintSize(static_cast<uint64_t>(d));
    }
  }
  Envelope env;
  env.to = ctx.query_site();
  env.parts.push_back(
      {MessageKind::kReachUp, f, std::move(writer).Take(), true, logical});
  ctx.Send(std::move(env));
  return Status::OK();
}

Status ReachProgram::OnReachUp(SiteId, const WirePart& part) {
  const FragmentId f = part.fragment;
  if (f < 0 || static_cast<size_t>(f) >= store_->fragment_count()) {
    return Status::ParseError("reach-up: fragment out of range");
  }
  if (reported_[static_cast<size_t>(f)]) {
    return Status::ParseError("reach-up: duplicate fragment report");
  }
  reported_[static_cast<size_t>(f)] = true;

  ByteReader reader(part.bytes);
  PAXML_ASSIGN_OR_RETURN(uint64_t row_count, reader.GetVarint());
  // Wire counts are bounded by what the remaining bytes could hold (>= 3
  // bytes per row) before any reserve, as frame.cc does.
  if (row_count > reader.remaining() / 3) {
    return Status::ParseError("reach-up: row count past buffer end");
  }
  DeltaIdDecoder vertex_delta;
  for (uint64_t i = 0; i < row_count; ++i) {
    ReachRow row;
    PAXML_ASSIGN_OR_RETURN(uint64_t vertex, vertex_delta.Next(&reader));
    if (vertex >= static_cast<uint64_t>(store_->vertex_count())) {
      return Status::ParseError("reach-up: vertex out of range");
    }
    row.vertex = static_cast<NodeId>(vertex);
    if (store_->fragment_of(row.vertex) != f) {
      return Status::ParseError("reach-up: row vertex owned elsewhere");
    }
    PAXML_ASSIGN_OR_RETURN(uint8_t direct, reader.GetU8());
    if (direct > 1) return Status::ParseError("reach-up: bad direct flag");
    row.direct = direct != 0;
    PAXML_ASSIGN_OR_RETURN(uint64_t dep_count, reader.GetVarint());
    if (dep_count > reader.remaining()) {
      return Status::ParseError("reach-up: dep count past buffer end");
    }
    row.deps.reserve(dep_count);
    DeltaIdDecoder dep_delta;
    for (uint64_t d = 0; d < dep_count; ++d) {
      PAXML_ASSIGN_OR_RETURN(uint64_t dep, dep_delta.Next(&reader));
      if (dep >= static_cast<uint64_t>(store_->vertex_count())) {
        return Status::ParseError("reach-up: dep out of range");
      }
      row.deps.push_back(static_cast<NodeId>(dep));
    }
    rows_.push_back(std::move(row));
  }
  if (!reader.AtEnd()) {
    return Status::ParseError("reach-up: trailing bytes");
  }
  return Status::OK();
}

Result<bool> ReachProgram::Solve() const {
  if (query_.source == query_.target) return true;

  std::unordered_map<NodeId, size_t> var_of;
  var_of.reserve(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (!var_of.emplace(rows_[i].vertex, i).second) {
      return Status::Internal("reach: duplicate entry variable");
    }
  }
  // Reverse dependencies: solving the least fixpoint means propagating
  // true from the direct rows backwards along X_v = ... ∨ X_w edges.
  std::vector<std::vector<size_t>> rev(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    for (NodeId dep : rows_[i].deps) {
      auto it = var_of.find(dep);
      if (it == var_of.end()) {
        // Every dep is the head of a cut edge, hence in-boundary of its
        // owner, hence a row of that fragment's report.
        return Status::Internal("reach: dependency on an unreported entry");
      }
      rev[it->second].push_back(i);
    }
  }
  std::vector<bool> value(rows_.size(), false);
  std::deque<size_t> worklist;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].direct) {
      value[i] = true;
      worklist.push_back(i);
    }
  }
  while (!worklist.empty()) {
    const size_t i = worklist.front();
    worklist.pop_front();
    for (size_t j : rev[i]) {
      if (value[j]) continue;
      value[j] = true;
      worklist.push_back(j);
    }
  }
  auto source_var = var_of.find(query_.source);
  if (source_var == var_of.end()) {
    return Status::Internal("reach: source row missing");
  }
  return static_cast<bool>(value[source_var->second]);
}

}  // namespace

std::string FormatReachQuery(const ReachQuery& query) {
  return StringFormat("reach %d %d", query.source, query.target);
}

Result<ReachQuery> ParseReachQuery(const std::string& text) {
  // Whitespace-separated tokens; a peer parses this text off the wire, so
  // an id must be a whole token that fits a NodeId.
  constexpr std::string_view kSpace = " \t\n\r";
  std::vector<std::string_view> tokens;
  std::string_view rest = text;
  for (size_t begin; (begin = rest.find_first_not_of(kSpace)) !=
                     std::string_view::npos;) {
    rest.remove_prefix(begin);
    const size_t end = std::min(rest.find_first_of(kSpace), rest.size());
    tokens.push_back(rest.substr(0, end));
    rest.remove_prefix(end);
  }
  auto parse_id = [](std::string_view token, NodeId* id) {
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, *id);
    return ec == std::errc() && ptr == end;
  };
  ReachQuery query;
  if (tokens.size() != 3 || tokens[0] != "reach" ||
      !parse_id(tokens[1], &query.source) ||
      !parse_id(tokens[2], &query.target)) {
    return Status::ParseError(
        "reach query: expected \"reach <source> <target>\" with 32-bit ids, "
        "got \"" + text + "\"");
  }
  return query;
}

Result<const GraphFragmentStore*> GraphOf(const Cluster& cluster) {
  if (cluster.data().family() != kGraphFamily) {
    return Status::InvalidArgument(
        "reach: cluster holds \"" + std::string(cluster.data().family()) +
        "\" data, not a graph");
  }
  return static_cast<const GraphFragmentStore*>(&cluster.data());
}

RunSpec MakeReachRunSpec(const ReachQuery& query) {
  RunSpec spec;
  spec.algorithm = "Reach";
  spec.query = FormatReachQuery(query);
  spec.family = std::string(kGraphFamily);
  return spec;
}

std::unique_ptr<MessageHandlers> MakeReachSiteHandlers(
    const GraphFragmentStore* store, const ReachQuery& query) {
  return std::make_unique<ReachProgram>(store, query);
}

namespace {

/// Owns the handlers a peer serves for one graph run (the store is the
/// cluster's, borrowed).
class ReachSiteProgram : public SiteProgram {
 public:
  explicit ReachSiteProgram(std::unique_ptr<MessageHandlers> handlers)
      : handlers_(std::move(handlers)) {}
  MessageHandlers* handlers() override { return handlers_.get(); }

 private:
  std::unique_ptr<MessageHandlers> handlers_;
};

Status ValidateQuery(const GraphFragmentStore& store, const ReachQuery& query) {
  if (query.source < 0 || query.source >= store.vertex_count() ||
      query.target < 0 || query.target >= store.vertex_count()) {
    return Status::InvalidArgument(
        StringFormat("reach query: vertex out of range (graph has %d vertices)",
                     store.vertex_count()));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<SiteProgram>> MakeReachSiteProgram(
    const Cluster& cluster, const RunSpec& spec) {
  PAXML_ASSIGN_OR_RETURN(const GraphFragmentStore* store, GraphOf(cluster));
  if (spec.algorithm != "Reach") {
    return Status::InvalidArgument("run spec: unknown algorithm \"" +
                                   spec.algorithm + "\"");
  }
  PAXML_ASSIGN_OR_RETURN(ReachQuery query, ParseReachQuery(spec.query));
  PAXML_RETURN_NOT_OK(ValidateQuery(*store, query));
  return std::unique_ptr<SiteProgram>(
      std::make_unique<ReachSiteProgram>(MakeReachSiteHandlers(store, query)));
}

Result<DistributedResult> EvaluateReachability(const Cluster& cluster,
                                               const ReachQuery& query,
                                               Transport* transport,
                                               RunControl* control) {
  if (transport == nullptr) {
    return Status::InvalidArgument("EvaluateReachability: null transport");
  }
  PAXML_ASSIGN_OR_RETURN(const GraphFragmentStore* store, GraphOf(cluster));
  PAXML_RETURN_NOT_OK(ValidateQuery(*store, query));
  ReachProgram program(store, query);
  const RunSpec spec = MakeReachRunSpec(query);
  Coordinator coord(&cluster, transport, &program, control, &spec);

  std::vector<SiteId> sites = coord.AllSites();
  for (SiteId s : sites) {
    coord.Post(MakeQueryShipEnvelope(s, FormatReachQuery(query).size()));
  }
  for (size_t f = 0; f < store->fragment_count(); ++f) {
    const FragmentId fragment = static_cast<FragmentId>(f);
    coord.Post(MakeRequestEnvelope(MessageKind::kReachRequest,
                                   cluster.site_of(fragment), fragment));
  }

  // One visit per site: every fragment partially evaluates and reports its
  // boolean rows. Rounds stay 1 however many fragments there are.
  PAXML_RETURN_NOT_OK(coord.RunRound("reach-partial-eval", sites));
  if (!program.AllReported()) {
    return Status::Internal("reach: not every fragment reported");
  }

  Result<bool> reachable = false;
  coord.RunLocal([&] { reachable = program.Solve(); });
  PAXML_RETURN_NOT_OK(reachable.status());

  DistributedResult result;
  if (*reachable) {
    result.answers.push_back(
        GlobalNodeId{store->fragment_of(query.target), query.target});
  }
  result.stats = coord.TakeStats();
  return result;
}

}  // namespace paxml
