#include "xml/serializer.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "xml/parser.h"

namespace paxml {
namespace {

void WriteNode(const Tree& tree, NodeId id, const XmlWriteOptions& options,
               int depth, std::string* out) {
  auto indent = [&]() {
    if (options.indent) {
      if (!out->empty()) out->push_back('\n');
      out->append(static_cast<size_t>(depth) * 2, ' ');
    }
  };

  switch (tree.kind(id)) {
    case NodeKind::kText:
      out->append(XmlEscape(tree.text(id)));
      return;
    case NodeKind::kVirtual:
      indent();
      out->push_back('<');
      out->append(kVirtualElementName);
      out->append(" ");
      out->append(kVirtualRefAttribute);
      out->append("=\"");
      out->append(std::to_string(tree.fragment_ref(id)));
      out->append("\"/>");
      return;
    case NodeKind::kElement:
      break;
  }

  indent();
  const std::string& label = tree.LabelName(id);
  out->push_back('<');
  out->append(label);
  for (const Attribute& a : tree.attributes(id)) {
    out->push_back(' ');
    out->append(tree.symbols()->Name(a.name));
    out->append("=\"");
    out->append(XmlEscape(a.value));
    out->push_back('"');
  }
  if (tree.first_child(id) == kNullNode) {
    out->append("/>");
    return;
  }
  out->push_back('>');
  // Text-only elements stay on one line: <name>Anna</name>.
  bool has_element_child = false;
  for (NodeId c : tree.children(id)) {
    if (!tree.IsText(c)) has_element_child = true;
  }
  for (NodeId c : tree.children(id)) {
    if (tree.IsText(c) && options.indent && has_element_child) {
      out->push_back('\n');
      out->append((static_cast<size_t>(depth) + 1) * 2, ' ');
    }
    WriteNode(tree, c, options, depth + 1, out);
  }
  if (options.indent && has_element_child) {
    out->push_back('\n');
    out->append(static_cast<size_t>(depth) * 2, ' ');
  }
  out->append("</");
  out->append(label);
  out->push_back('>');
}

}  // namespace

std::string SerializeXml(const Tree& tree, NodeId node,
                         const XmlWriteOptions& options) {
  std::string out;
  if (options.declaration) out.append("<?xml version=\"1.0\"?>");
  if (tree.empty()) return out;
  if (node == kNullNode) node = tree.root();
  // Serializing a text node standalone is not meaningful XML.
  PAXML_CHECK(!tree.IsText(node));
  if (options.declaration && options.indent) out.push_back('\n');
  WriteNode(tree, node, options, 0, &out);
  return out;
}

std::vector<uint64_t> ComputeSerializedSizes(const Tree& tree) {
  const size_t n = tree.size();
  std::vector<uint64_t> bytes(n);
  // Each distinct label's length is read once: SymbolTable::Name locks.
  constexpr uint32_t kUnread = UINT32_MAX;
  std::vector<uint32_t> label_size(tree.symbols()->size(), kUnread);
  auto name_size = [&](Symbol sym) -> uint64_t {
    if (sym >= label_size.size()) label_size.resize(sym + 1, kUnread);
    if (label_size[sym] == kUnread) {
      label_size[sym] =
          static_cast<uint32_t>(tree.symbols()->Name(sym).size());
    }
    return label_size[sym];
  };

  // Each node's own markup: tags, the virtual element, escaped text.
  for (size_t i = 0; i < n; ++i) {
    const Node& node = tree.nodes_[i];
    switch (node.kind) {
      case NodeKind::kText:
        bytes[i] = XmlEscapedSize(tree.texts_[static_cast<size_t>(
            node.text_index)]);
        break;
      case NodeKind::kVirtual:
        // <paxml-virtual ref="N"/>
        bytes[i] = 1 + kVirtualElementName.size() + 1 +
                   kVirtualRefAttribute.size() + 2 +
                   std::to_string(node.fragment_ref).size() + 3;
        break;
      case NodeKind::kElement: {
        const uint64_t label = name_size(node.label);
        bytes[i] = node.first_child == kNullNode
                       ? 1 + label + 2                        // <label/>
                       : (1 + label + 1) + (2 + label + 1);  // <label></label>
        break;
      }
    }
  }
  for (const auto& [id, attributes] : tree.attributes_) {
    for (const Attribute& a : attributes) {
      bytes[static_cast<size_t>(id)] +=
          1 + name_size(a.name) + 2 + XmlEscapedSize(a.value) + 1;
    }
  }
  // Children have larger ids than their parent: fold them in back to front.
  for (size_t i = n; i-- > 1;) {
    bytes[static_cast<size_t>(tree.nodes_[i].parent)] += bytes[i];
  }
  return bytes;
}

size_t SerializedSize(const Tree& tree, NodeId node) {
  if (tree.empty()) return 0;
  if (node == kNullNode) node = tree.root();
  return tree.SerializedSizes()[static_cast<size_t>(node)];
}

}  // namespace paxml
