// The data-model seam: what a Cluster holds without naming a workload.
//
// A Cluster places *fragments* on *sites*; the runtime ships messages
// between them. Nothing in either layer depends on what the fragments
// contain — that is the workload's business (an XML FragmentedDocument, a
// partitioned digraph GraphFragmentStore). WorkloadData is the only thing
// the placement and runtime layers see: a family tag (matching
// RunSpec::family and the two-family dispatch in core/workload.h) and the
// fragment count that sizes placements. Algorithm families downcast to
// their concrete store after checking family() (Cluster::doc(),
// GraphOf()).

#ifndef PAXML_COMMON_WORKLOAD_DATA_H_
#define PAXML_COMMON_WORKLOAD_DATA_H_

#include <cstddef>
#include <string_view>

namespace paxml {

/// Family tags of the shipped workloads. A RunSpec carries one of these so
/// a remote peer rebuilds the right program (core/workload.h branches on
/// them).
inline constexpr std::string_view kXmlFamily = "xml";
inline constexpr std::string_view kGraphFamily = "graph";

/// Abstract base of every placeable data set.
class WorkloadData {
 public:
  virtual ~WorkloadData() = default;

  /// The workload family this data belongs to ("xml", "graph"). Stable: it
  /// is part of the wire fingerprint a peer validates at run open.
  virtual std::string_view family() const = 0;

  /// Number of placeable fragments (placements are fragment -> site maps
  /// of exactly this length).
  virtual size_t fragment_count() const = 0;
};

}  // namespace paxml

#endif  // PAXML_COMMON_WORKLOAD_DATA_H_
