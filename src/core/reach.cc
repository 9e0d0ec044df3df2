#include "core/reach.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "boolexpr/codec.h"
#include "common/string_util.h"
#include "core/messages.h"
#include "runtime/coordinator.h"

namespace paxml {
namespace {

/// Scratch of the kernel, sized to one fragment and reused across its
/// batches: every word is zero again when a batch ends.
struct ReachScratch {
  explicit ReachScratch(size_t vertices)
      : reached(vertices), queued(vertices), queue(vertices) {}

  std::vector<uint64_t> reached;  ///< bit b: entry b reaches the vertex
  std::vector<uint8_t> queued;    ///< the vertex waits in `queue`
  std::vector<int32_t> queue;     ///< FIFO ring; a vertex is queued at most once
  std::vector<int32_t> touched;   ///< vertices whose word is non-zero
};

/// The one traversal routine: the rows of up to 64 entries, written into
/// the empty rows[0, entries.size()).
void TraverseBatch(const GraphFragment& frag, std::span<const int32_t> entries,
                   int32_t local_target, ReachScratch* scratch,
                   ReachEntryRow* rows) {
  PAXML_CHECK_LE(entries.size(), kReachBatchEntries);
  std::vector<uint64_t>& reached = scratch->reached;
  std::vector<int32_t>& queue = scratch->queue;
  size_t head = 0;
  size_t queued = 0;
  // ORs `add` into v's word and queues v when the word grew. A successor
  // already holds every bit its predecessor pushed before, so pushing a
  // whole word again brings it exactly the bits it lacks.
  auto reach = [&](int32_t v, uint64_t add) {
    uint64_t& word = reached[static_cast<size_t>(v)];
    if ((add & ~word) == 0) return;
    if (word == 0) scratch->touched.push_back(v);
    word |= add;
    uint8_t& waiting = scratch->queued[static_cast<size_t>(v)];
    if (waiting) return;
    waiting = 1;
    size_t tail = head + queued++;
    if (tail >= queue.size()) tail -= queue.size();
    queue[tail] = v;
  };

  for (size_t b = 0; b < entries.size(); ++b) {
    reach(entries[b], uint64_t{1} << b);
  }
  while (queued > 0) {
    const int32_t u = queue[head];
    if (++head == queue.size()) head = 0;
    --queued;
    scratch->queued[static_cast<size_t>(u)] = 0;
    const uint64_t push = reached[static_cast<size_t>(u)];
    for (int32_t v : frag.local_out[static_cast<size_t>(u)]) reach(v, push);
  }

  const uint64_t at_target =
      local_target >= 0 ? reached[static_cast<size_t>(local_target)] : 0;
  for (size_t b = 0; b < entries.size(); ++b) {
    rows[b].direct = (at_target >> b) & 1;
  }
  // Each touched vertex's cut edges belong to every entry that reaches it;
  // the sweep also zeroes the words for the next batch.
  for (int32_t u : scratch->touched) {
    uint64_t& word = reached[static_cast<size_t>(u)];
    const std::vector<NodeId>& heads = frag.cut_out[static_cast<size_t>(u)];
    if (!heads.empty()) {
      for (uint64_t w = word; w != 0; w &= w - 1) {
        std::vector<NodeId>& deps = rows[std::countr_zero(w)].deps;
        deps.insert(deps.end(), heads.begin(), heads.end());
      }
    }
    word = 0;
  }
  scratch->touched.clear();
  for (size_t b = 0; b < entries.size(); ++b) {
    std::vector<NodeId>& deps = rows[b].deps;
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  }
}

/// Runs the kernel over `entries` one 64-entry batch at a time with one
/// scratch, handing each batch to `emit(offset, rows)`: rows[i] belongs to
/// entries[offset + i]. The rows are reused by the next batch, so at most
/// 64 of them are live at once.
template <typename Emit>
void ForEachBatch(const GraphFragment& frag, std::span<const int32_t> entries,
                  int32_t local_target, Emit emit) {
  ReachScratch scratch(frag.vertices.size());
  std::vector<ReachEntryRow> rows(
      std::min(kReachBatchEntries, entries.size()));
  for (size_t begin = 0; begin < entries.size(); begin += kReachBatchEntries) {
    const size_t count = std::min(kReachBatchEntries, entries.size() - begin);
    for (size_t b = 0; b < count; ++b) rows[b].deps.clear();
    TraverseBatch(frag, entries.subspan(begin, count), local_target, &scratch,
                  rows.data());
    emit(begin, std::span<ReachEntryRow>(rows.data(), count));
  }
}

}  // namespace

std::vector<ReachEntryRow> PartiallyEvaluateEntries(
    const GraphFragment& frag, std::span<const int32_t> entries,
    int32_t local_target) {
  std::vector<ReachEntryRow> out(entries.size());
  ForEachBatch(frag, entries, local_target,
               [&](size_t offset, std::span<ReachEntryRow> rows) {
                 std::move(rows.begin(), rows.end(), out.begin() + offset);
               });
  return out;
}

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

/// A run of consecutive rows of one kReachUp payload, detached from the
/// report stream.
struct EncodedReachRows {
  std::string bytes;
  uint64_t logical = 0;  ///< what the absolute id coding would cost
};

/// The rows of entries[begin, end), evaluated by the kernel one batch at a
/// time and encoded as they appear in the payload: in entry order
/// (ascending global id), deps sorted — canonical bytes, so remote peers
/// reproduce the in-process wire exactly. Ids are delta+varint coded (vertices across rows, deps within a
/// row); `logical` tracks what the absolute coding would cost, which is
/// what the paper-model counters keep pricing. The first row's vertex
/// delta is against entries[begin - 1], known up front, so consecutive
/// ranges concatenate into the whole payload byte for byte.
EncodedReachRows EncodeReachRows(const GraphFragment& frag,
                                 std::span<const int32_t> entries,
                                 size_t begin, size_t end,
                                 int32_t local_target) {
  auto global = [&](size_t i) {
    return static_cast<uint64_t>(
        frag.vertices[static_cast<size_t>(entries[i])]);
  };
  ByteWriter writer;
  EncodedReachRows out;
  uint64_t prev_vertex = begin == 0 ? 0 : global(begin - 1);
  ForEachBatch(frag, entries.subspan(begin, end - begin), local_target,
               [&](size_t offset, std::span<ReachEntryRow> rows) {
    for (size_t r = 0; r < rows.size(); ++r) {
      const ReachEntryRow& row = rows[r];
      const uint64_t vertex = global(begin + offset + r);
      writer.PutVarint(vertex - prev_vertex);  // wraps, as DeltaIdEncoder does
      prev_vertex = vertex;
      writer.PutU8(row.direct ? 1 : 0);
      writer.PutVarint(row.deps.size());
      out.logical += VarintSize(vertex) + 1 + VarintSize(row.deps.size());
      DeltaIdEncoder dep_delta;  // deps restart per row (each list is sorted)
      for (NodeId d : row.deps) {
        dep_delta.Append(static_cast<uint64_t>(d), &writer);
        out.logical += VarintSize(static_cast<uint64_t>(d));
      }
    }
  });
  out.bytes = std::move(writer).Take();
  return out;
}

/// Ships fragment f's one kReachUp: the row count, then the row runs.
void SendReachUp(SiteContext& ctx, FragmentId f, size_t row_count,
                 std::span<const EncodedReachRows> runs) {
  ByteWriter writer;
  writer.PutVarint(row_count);
  uint64_t logical = VarintSize(row_count);
  for (const EncodedReachRows& run : runs) {
    writer.PutBytes(run.bytes.data(), run.bytes.size());
    logical += run.logical;
  }
  Envelope env;
  env.to = ctx.query_site();
  env.parts.push_back(
      {MessageKind::kReachUp, f, std::move(writer).Take(), true, logical});
  ctx.Send(std::move(env));
}

/// The split form of one fragment's kReachRequest: each item is one
/// 64-entry batch, traversed and encoded into a private slot; Finish
/// concatenates the slots into the one kReachUp the serial handler would
/// have shipped.
class ReachSplitTask : public SplitTask {
 public:
  ReachSplitTask(const GraphFragment* frag, FragmentId f,
                 std::vector<int32_t> entries, int32_t local_target)
      : frag_(frag),
        f_(f),
        entries_(std::move(entries)),
        local_target_(local_target),
        runs_(item_count()) {}

  size_t item_count() const override {
    return (entries_.size() + kReachBatchEntries - 1) / kReachBatchEntries;
  }

  void RunItem(size_t item) override {
    const size_t begin = item * kReachBatchEntries;
    const size_t end = std::min(begin + kReachBatchEntries, entries_.size());
    runs_[item] = EncodeReachRows(*frag_, entries_, begin, end, local_target_);
  }

  Status Finish(SiteContext& ctx) override {
    SendReachUp(ctx, f_, entries_.size(), runs_);
    return Status::OK();
  }

 private:
  const GraphFragment* frag_;
  const FragmentId f_;
  const std::vector<int32_t> entries_;
  const int32_t local_target_;
  std::vector<EncodedReachRows> runs_;  ///< one slot per item
};

/// Reachability as runtime handlers. Site side (kReachRequest) is
/// stateless — it reads the const store and query only, so per-fragment
/// lanes (site_threads > 1) need no per-fragment state slots at all.
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

  std::unique_ptr<SplitTask> MakeSplitTask(const Envelope&,
                                           const WirePart& part) override {
    if (part.kind != MessageKind::kReachRequest) return nullptr;
    const FragmentId f = part.fragment;
    if (f < 0 || static_cast<size_t>(f) >= store_->fragment_count()) {
      return nullptr;
    }
    std::vector<int32_t> entries = ReachEntryVertices(*store_, query_, f);
    // One batch is one traversal already: nothing to fan out.
    if (entries.size() <= kReachBatchEntries) return nullptr;
    return std::make_unique<ReachSplitTask>(
        &store_->fragment(f), f, std::move(entries),
        ReachLocalTarget(*store_, query_, f));
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

Status ReachProgram::OnReachRequest(SiteContext& ctx, FragmentId f) {
  const std::vector<int32_t> entries = ReachEntryVertices(*store_, query_, f);
  const EncodedReachRows rows =
      EncodeReachRows(store_->fragment(f), entries, 0, entries.size(),
                      ReachLocalTarget(*store_, query_, f));
  SendReachUp(ctx, f, entries.size(), {&rows, 1});
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
  ReachQuery query;
  char trailing;
  if (std::sscanf(text.c_str(), "reach %d %d %c", &query.source, &query.target,
                  &trailing) != 2) {
    return Status::ParseError("reach query: expected \"reach <source> <target>\", got \"" +
                              text + "\"");
  }
  return query;
}

Result<const GraphFragmentStore*> GraphOf(const Cluster& cluster) {
  if (cluster.data().family() != kGraphWorkloadFamily) {
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
  spec.family = std::string(kGraphWorkloadFamily);
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
  PAXML_ASSIGN_OR_RETURN(const GraphFragmentStore* store, GraphOf(cluster));
  PAXML_RETURN_NOT_OK(ValidateQuery(*store, query));
  std::unique_ptr<Transport> owned_transport;
  transport = EnsureTransport(transport, cluster, &owned_transport);
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
