#include "graph/store.h"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace paxml {
namespace {

namespace fs = std::filesystem;

constexpr const char* kStoreName = "graph.paxg";
constexpr const char* kMagic = "paxml-graph";
constexpr int kVersion = 1;

/// Scratch of the batch kernel, sized to one fragment: every word is zero
/// again when a batch ends.
struct ReachScratch {
  explicit ReachScratch(size_t vertices)
      : reached(vertices), queued(vertices), queue(vertices) {}

  std::vector<uint64_t> reached;  ///< bit b: entry b reaches the vertex
  std::vector<uint8_t> queued;    ///< the vertex waits in `queue`
  std::vector<int32_t> queue;     ///< FIFO ring; a vertex is queued at most once
  std::vector<int32_t> touched;   ///< vertices whose word is non-zero
};

/// The calling thread's breadth-first marks (all zero between traversals),
/// grown to the largest fragment it has traversed, and its visited list.
struct VisitScratch {
  std::vector<uint8_t> seen;
  std::vector<int32_t> visited;
};

VisitScratch& ThreadVisitScratch(size_t vertices) {
  thread_local VisitScratch scratch;
  if (scratch.seen.size() < vertices) scratch.seen.resize(vertices);
  scratch.visited.clear();
  return scratch;
}

/// Breadth-first from local vertex `start` over `successors(v)` (local
/// indices). Hands `use(seen, visited)` the marks and the visited vertices,
/// `start` first, then clears the marks through `visited`, so a traversal
/// costs what it reaches. `use` must not traverse again.
template <typename Successors, typename Use>
void VisitFrom(size_t vertices, int32_t start, Successors successors,
               Use use) {
  VisitScratch& scratch = ThreadVisitScratch(vertices);
  std::vector<uint8_t>& seen = scratch.seen;
  std::vector<int32_t>& visited = scratch.visited;
  auto mark = [&](int32_t v) {
    uint8_t& s = seen[static_cast<size_t>(v)];
    if (s) return;
    s = 1;
    visited.push_back(v);
  };
  mark(start);
  for (size_t head = 0; head < visited.size(); ++head) {
    for (int32_t v : successors(visited[head])) mark(v);
  }
  use(seen, visited);
  for (int32_t v : visited) seen[static_cast<size_t>(v)] = 0;
}

void SortUnique(std::vector<NodeId>* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

/// One batch of the kernel: the rows of up to 64 entries, written into the
/// empty rows[0, entries.size()).
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
  for (size_t b = 0; b < entries.size(); ++b) SortUnique(&rows[b].deps);
}

}  // namespace

std::vector<ReachEntryRow> PartiallyEvaluateEntries(
    const GraphFragment& frag, std::span<const int32_t> entries,
    int32_t local_target) {
  std::vector<ReachEntryRow> rows(entries.size());
  ReachScratch scratch(frag.vertices.size());
  for (size_t begin = 0; begin < entries.size(); begin += kReachBatchEntries) {
    const size_t count = std::min(kReachBatchEntries, entries.size() - begin);
    TraverseBatch(frag, entries.subspan(begin, count), local_target, &scratch,
                  rows.data() + begin);
  }
  return rows;
}

ReachEntryRow EvaluateEntry(const GraphFragment& frag, int32_t entry,
                            int32_t local_target) {
  ReachEntryRow row;
  VisitFrom(
      frag.vertices.size(), entry,
      [&](int32_t u) -> const std::vector<int32_t>& {
        return frag.local_out[static_cast<size_t>(u)];
      },
      [&](const std::vector<uint8_t>& seen,
          const std::vector<int32_t>& visited) {
        row.direct =
            local_target >= 0 && seen[static_cast<size_t>(local_target)];
        for (int32_t u : visited) {
          const std::vector<NodeId>& heads =
              frag.cut_out[static_cast<size_t>(u)];
          row.deps.insert(row.deps.end(), heads.begin(), heads.end());
        }
      });
  SortUnique(&row.deps);
  return row;
}

const std::vector<ReachEntryRow>& GraphFragmentStore::InBoundaryRows(
    FragmentId f) const {
  DerivedTables& derived = derived_[static_cast<size_t>(f)];
  std::call_once(derived.rows_once, [&] {
    const GraphFragment& frag = fragment(f);
    derived.in_boundary_rows =
        PartiallyEvaluateEntries(frag, frag.in_boundary, -1);
  });
  return derived.in_boundary_rows;
}

const GraphFragmentStore::LocalInEdges& GraphFragmentStore::InEdges(
    FragmentId f) const {
  DerivedTables& derived = derived_[static_cast<size_t>(f)];
  std::call_once(derived.in_edges_once, [&] {
    const GraphFragment& frag = fragment(f);
    const size_t n = frag.vertices.size();
    std::vector<int32_t>& offsets = derived.in_edges.offsets;
    offsets.assign(n + 1, 0);
    uint64_t edges = 0;
    for (const std::vector<int32_t>& heads : frag.local_out) {
      edges += heads.size();
      for (int32_t v : heads) ++offsets[static_cast<size_t>(v) + 1];
    }
    PAXML_CHECK_LE(edges, static_cast<uint64_t>(INT32_MAX));
    for (size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    std::vector<int32_t>& tails = derived.in_edges.tails;
    tails.resize(edges);
    std::vector<int32_t> next(offsets.begin(), offsets.end() - 1);
    for (size_t u = 0; u < n; ++u) {
      for (int32_t v : frag.local_out[u]) {
        tails[static_cast<size_t>(next[static_cast<size_t>(v)]++)] =
            static_cast<int32_t>(u);
      }
    }
  });
  return derived.in_edges;
}

std::vector<bool> GraphFragmentStore::InBoundaryReaching(
    FragmentId f, int32_t local_target) const {
  const GraphFragment& frag = fragment(f);
  std::vector<bool> reaches(frag.in_boundary.size(), false);
  if (local_target < 0) return reaches;
  const LocalInEdges& in = InEdges(f);
  VisitFrom(
      frag.vertices.size(), local_target,
      [&](int32_t v) {
        const size_t i = static_cast<size_t>(v);
        return std::span<const int32_t>(
            in.tails.data() + in.offsets[i],
            static_cast<size_t>(in.offsets[i + 1] - in.offsets[i]));
      },
      [&](const std::vector<uint8_t>& seen, const std::vector<int32_t>&) {
        for (size_t i = 0; i < reaches.size(); ++i) {
          reaches[i] = seen[static_cast<size_t>(frag.in_boundary[i])] != 0;
        }
      });
  return reaches;
}

int32_t GraphFragment::LocalIndex(NodeId v) const {
  auto it = std::lower_bound(vertices.begin(), vertices.end(), v);
  if (it == vertices.end() || *it != v) return -1;
  return static_cast<int32_t>(it - vertices.begin());
}

Result<std::shared_ptr<const GraphFragmentStore>> BuildGraphStore(
    int32_t vertex_count, std::vector<FragmentId> owner,
    std::vector<std::pair<NodeId, NodeId>> edges) {
  if (vertex_count < 0) {
    return Status::InvalidArgument("graph store: negative vertex count");
  }
  if (owner.size() != static_cast<size_t>(vertex_count)) {
    return Status::InvalidArgument(
        "graph store: ownership map size does not match vertex count");
  }
  FragmentId max_fragment = kNullFragment;
  for (FragmentId f : owner) {
    if (f < 0) return Status::InvalidArgument("graph store: negative owner");
    max_fragment = std::max(max_fragment, f);
  }
  const size_t fragment_count =
      max_fragment == kNullFragment ? 0 : static_cast<size_t>(max_fragment) + 1;
  for (const auto& [u, v] : edges) {
    if (u < 0 || u >= vertex_count || v < 0 || v >= vertex_count) {
      return Status::InvalidArgument("graph store: edge endpoint out of range");
    }
  }
  // Canonical edge order: the store's identity is (owner, sorted deduped
  // edges), no matter which construction path supplied them.
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  auto store = std::make_shared<GraphFragmentStore>();
  store->vertex_count_ = vertex_count;
  store->edge_count_ = edges.size();
  store->owner_ = std::move(owner);
  store->fragments_.resize(fragment_count);

  // Vertex lists first (global ids ascending), then adjacency in local
  // indices against them.
  for (NodeId v = 0; v < vertex_count; ++v) {
    store->fragments_[static_cast<size_t>(store->owner_[static_cast<size_t>(v)])]
        .vertices.push_back(v);
  }
  for (GraphFragment& frag : store->fragments_) {
    frag.local_out.resize(frag.vertices.size());
    frag.cut_out.resize(frag.vertices.size());
  }
  for (const auto& [u, v] : edges) {
    const FragmentId fu = store->owner_[static_cast<size_t>(u)];
    const FragmentId fv = store->owner_[static_cast<size_t>(v)];
    GraphFragment& tail = store->fragments_[static_cast<size_t>(fu)];
    const int32_t lu = tail.LocalIndex(u);
    if (fu == fv) {
      tail.local_out[static_cast<size_t>(lu)].push_back(
          store->fragments_[static_cast<size_t>(fv)].LocalIndex(v));
    } else {
      tail.cut_out[static_cast<size_t>(lu)].push_back(v);
      GraphFragment& head = store->fragments_[static_cast<size_t>(fv)];
      head.in_boundary.push_back(head.LocalIndex(v));
    }
  }
  // Sorted edge input gives sorted adjacency rows for free; the in-boundary
  // collects duplicates (one per incoming cut edge) that must go.
  for (GraphFragment& frag : store->fragments_) {
    std::sort(frag.in_boundary.begin(), frag.in_boundary.end());
    frag.in_boundary.erase(
        std::unique(frag.in_boundary.begin(), frag.in_boundary.end()),
        frag.in_boundary.end());
  }
  store->derived_ =
      std::make_unique<GraphFragmentStore::DerivedTables[]>(fragment_count);
  return std::shared_ptr<const GraphFragmentStore>(std::move(store));
}

std::vector<std::pair<NodeId, NodeId>> GraphFragmentStore::edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(edge_count_);
  // Fragments list their vertices in ascending global id, so walking the
  // vertices in order walks each fragment's local indices in order.
  std::vector<size_t> next_local(fragments_.size(), 0);
  for (NodeId u = 0; u < vertex_count_; ++u) {
    const size_t f = static_cast<size_t>(owner_[static_cast<size_t>(u)]);
    const GraphFragment& frag = fragments_[f];
    const size_t lu = next_local[f]++;
    const size_t begin = out.size();
    for (int32_t v : frag.local_out[lu]) {
      out.emplace_back(u, frag.vertices[static_cast<size_t>(v)]);
    }
    for (NodeId v : frag.cut_out[lu]) out.emplace_back(u, v);
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(begin), out.end());
  }
  return out;
}

Result<std::shared_ptr<const GraphFragmentStore>> PartitionDigraph(
    const Digraph& graph, size_t fragment_count, uint64_t seed) {
  if (fragment_count == 0) {
    return Status::InvalidArgument("partition: zero fragments");
  }
  Rng rng(seed);
  std::vector<FragmentId> owner(static_cast<size_t>(graph.vertex_count));
  for (auto& f : owner) {
    f = static_cast<FragmentId>(rng.NextBounded(fragment_count));
  }
  // Fragment ids must be dense (placement maps them to sites), and a
  // random draw can leave a fragment empty; pinning the first
  // fragment_count vertices one-per-fragment guarantees every id exists
  // whenever there are enough vertices.
  if (static_cast<size_t>(graph.vertex_count) >= fragment_count) {
    for (size_t f = 0; f < fragment_count; ++f) {
      owner[f] = static_cast<FragmentId>(f);
    }
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(graph.edge_count());
  for (NodeId u = 0; u < graph.vertex_count; ++u) {
    for (NodeId v : graph.out[static_cast<size_t>(u)]) {
      edges.emplace_back(u, v);
    }
  }
  return BuildGraphStore(graph.vertex_count, std::move(owner),
                         std::move(edges));
}

Status SaveGraph(const GraphFragmentStore& store,
                 const std::string& directory) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return Status::InvalidArgument("cannot create directory: " + directory +
                                   ": " + ec.message());
  }
  std::string text;
  text += StringFormat("%s %d\n", kMagic, kVersion);
  text += StringFormat("vertices %d\n", store.vertex_count());
  text += StringFormat("fragments %zu\n", store.fragment_count());
  text += "owners";
  for (FragmentId f : store.owners()) text += StringFormat(" %d", f);
  text += "\n";
  const std::vector<std::pair<NodeId, NodeId>> edges = store.edges();
  text += StringFormat("edges %zu\n", edges.size());
  for (const auto& [u, v] : edges) {
    text += StringFormat("%d %d\n", u, v);
  }
  const fs::path path = fs::path(directory) / kStoreName;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open for writing: " + path.string());
  }
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) return Status::Internal("short write: " + path.string());
  return Status::OK();
}

Result<std::shared_ptr<const GraphFragmentStore>> LoadGraph(
    const std::string& directory) {
  const fs::path path = fs::path(directory) / kStoreName;
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path.string());

  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kMagic || version != kVersion) {
    return Status::ParseError("graph store: bad header: " + path.string());
  }
  std::string keyword;
  int32_t vertex_count = 0;
  size_t fragment_count = 0;
  if (!(in >> keyword >> vertex_count) || keyword != "vertices" ||
      vertex_count < 0) {
    return Status::ParseError("graph store: bad vertex count");
  }
  if (!(in >> keyword >> fragment_count) || keyword != "fragments") {
    return Status::ParseError("graph store: bad fragment count");
  }
  if (!(in >> keyword) || keyword != "owners") {
    return Status::ParseError("graph store: missing owners");
  }
  std::vector<FragmentId> owner(static_cast<size_t>(vertex_count));
  for (auto& f : owner) {
    if (!(in >> f) || f < 0 || static_cast<size_t>(f) >= fragment_count) {
      return Status::ParseError("graph store: bad owner entry");
    }
  }
  size_t edge_count = 0;
  if (!(in >> keyword >> edge_count) || keyword != "edges") {
    return Status::ParseError("graph store: bad edge count");
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(edge_count);
  for (size_t e = 0; e < edge_count; ++e) {
    NodeId u, v;
    if (!(in >> u >> v)) {
      return Status::ParseError("graph store: truncated edge list");
    }
    edges.emplace_back(u, v);
  }
  PAXML_ASSIGN_OR_RETURN(
      std::shared_ptr<const GraphFragmentStore> store,
      BuildGraphStore(vertex_count, std::move(owner), std::move(edges)));
  // The owner map defines the fragment count; a declared count it cannot
  // reproduce (trailing ownerless fragments) is a corrupt file, not a
  // store the canonical builder can express.
  if (store->fragment_count() != fragment_count) {
    return Status::ParseError("graph store: fragment count does not match owners");
  }
  return store;
}

bool IsGraphStoreDir(const std::string& directory) {
  std::error_code ec;
  return fs::exists(fs::path(directory) / kStoreName, ec);
}

}  // namespace paxml
