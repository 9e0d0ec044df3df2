// XML serialization of paxml Trees.
//
// SerializedSize prices a subtree in bytes without writing it: the paper's
// |ans| term of the communication bound, and naive shipping's whole
// fragments. It reads the per-tree table Tree::SerializedSizes, which
// ComputeSerializedSizes fills in one reverse pass over the arena the first
// time a tree is priced.

#ifndef PAXML_XML_SERIALIZER_H_
#define PAXML_XML_SERIALIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "xml/tree.h"

namespace paxml {

struct XmlWriteOptions {
  /// Pretty-print with 2-space indentation; otherwise a single line.
  bool indent = false;

  /// Emit the <?xml version="1.0"?> declaration.
  bool declaration = false;
};

/// Serializes the subtree rooted at `node` (default: whole tree) as XML text.
/// Virtual nodes are emitted as <paxml-virtual ref="N"/> so that
/// ParseXml(SerializeXml(t)) round-trips fragments exactly.
std::string SerializeXml(const Tree& tree, NodeId node = kNullNode,
                         const XmlWriteOptions& options = {});

/// Number of bytes SerializeXml would produce with default options, without
/// materializing the string; for a text node, its escaped text. O(1): a
/// lookup in Tree::SerializedSizes. Used for byte-accurate accounting of
/// answer and fragment shipping.
size_t SerializedSize(const Tree& tree, NodeId node = kNullNode);

/// SerializedSize of every node of `tree`, indexed by NodeId, in one pass
/// that visits each node and each attribute once. Tree::SerializedSizes
/// caches it; call that instead.
std::vector<uint64_t> ComputeSerializedSizes(const Tree& tree);

}  // namespace paxml

#endif  // PAXML_XML_SERIALIZER_H_
