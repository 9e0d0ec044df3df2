// Inputs of the repository benchmark, generated from its --seed.
//
// The benchmark owns these fixtures instead of linking bench/harness.cc, so
// an edit under bench/ can never change what the benchmark measures. The
// builders follow the paper's experimental layouts:
//
//  FT2 (Experiments 2-3): four XMark sites over ten fragments with the
//  relative size multiset {5,5,5,5, 12,12,12,12, 28, 8}; one unit is
//  48 KB * scale, so scale 1.0 is ~5 MB cumulative.
//
//  The banded digraph: vertices in rows of a fixed width, two edges from
//  each vertex into the next row (one straight down, one seeded) and an
//  occasional seeded back edge within the row. A contiguous partition at
//  row boundaries has a cut of exactly 2 * width * (fragments - 1) edges —
//  the shape Fan, Wang & Wu's one-round reachability is built for — and
//  its boundary sizes, and with them the work of a query, do not change
//  with the seed.

#ifndef PAXML_BENCHMARK_FIXTURES_H_
#define PAXML_BENCHMARK_FIXTURES_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fragment/fragment.h"
#include "graph/digraph.h"
#include "graph/store.h"
#include "sim/cluster.h"
#include "xml/tree.h"

namespace paxml::perf {

/// The unfragmented FT2 tree (kept for the centralized answer oracle).
Tree GenerateFT2(double scale, uint64_t seed);

/// FT2's ten fragments of `tree`, sharing its symbol table.
std::shared_ptr<FragmentedDocument> FragmentFT2(const Tree& tree);

/// The paper's four machines: A = {F0}, B = {F1,F2,F3}, C = {F4..F8},
/// D = {F9}. `cluster` must have four sites over an FT2 document.
void PlaceFT2Paper(Cluster& cluster);

/// Three sites: the root fragment on site 0, the largest other fragment
/// alone on site 1 and everything else on site 2. Site 1's rounds are one
/// per-fragment lane, so only intra-fragment splitting can spread them.
void PlaceOneHot(Cluster& cluster);

Digraph BandedDigraph(int32_t vertices, uint64_t seed);

/// Contiguous vertex-id ranges, one per fragment.
std::shared_ptr<const GraphFragmentStore> ContiguousPartition(
    const Digraph& graph, size_t fragments);

/// The eight-query PaX2 mix of ft2-inproc and ft2-socket: Q1-Q4 plus four
/// qualifier-free paths over every FT2 region.
std::vector<std::string> Ft2Mix();

/// Qualifier-free selections whose work concentrates in the item-heavy
/// fragment: the shape PaX2 splits within a fragment.
std::vector<std::string> SplitMix();

/// serve-zipf's 64 queries, in Zipf rank order: four parametric templates
/// with 16 values each, interleaved so every rank keeps the same template.
std::vector<std::string> ServeQueries();

/// fragments^2 seeded "reach s t" queries over ContiguousPartition's
/// fragments: one per (source fragment, target fragment) pair.
std::vector<std::string> ReachQueries(int32_t vertices, size_t fragments,
                                      uint64_t seed);

}  // namespace paxml::perf

#endif  // PAXML_BENCHMARK_FIXTURES_H_
