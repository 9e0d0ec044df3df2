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

size_t SerializedSize(const Tree& tree, NodeId node) {
  if (tree.empty()) return 0;
  if (node == kNullNode) node = tree.root();
  size_t total = 0;
  // Iterative traversal; accounts for tags, attributes and escaped text.
  std::vector<NodeId> stack = {node};
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    switch (tree.kind(v)) {
      case NodeKind::kText:
        total += XmlEscapedSize(tree.text(v));
        break;
      case NodeKind::kVirtual:
        // <paxml-virtual ref="N"/>
        total += 1 + kVirtualElementName.size() + 1 +
                 kVirtualRefAttribute.size() + 2 +
                 std::to_string(tree.fragment_ref(v)).size() + 3;
        break;
      case NodeKind::kElement: {
        const std::string& label = tree.LabelName(v);
        size_t attr_bytes = 0;
        for (const Attribute& a : tree.attributes(v)) {
          attr_bytes += 1 + tree.symbols()->Name(a.name).size() + 2 +
                        XmlEscapedSize(a.value) + 1;
        }
        if (tree.first_child(v) == kNullNode) {
          total += 1 + label.size() + attr_bytes + 2;  // <label/>
        } else {
          total += (1 + label.size() + attr_bytes + 1) + (2 + label.size() + 1);
          for (NodeId c : tree.children(v)) stack.push_back(c);
        }
        break;
      }
    }
  }
  return total;
}

}  // namespace paxml
