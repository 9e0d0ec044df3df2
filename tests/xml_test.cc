#include <gtest/gtest.h>

#include "test_util.h"
#include "xml/builder.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/tree.h"

namespace paxml {
namespace {

TEST(SymbolTableTest, InternIsStableAndDense) {
  SymbolTable table;
  Symbol a = table.Intern("alpha");
  Symbol b = table.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, table.Intern("alpha"));
  EXPECT_EQ(table.Name(a), "alpha");
  EXPECT_EQ(table.Name(b), "beta");
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Lookup("gamma"), kInvalidSymbol);
  EXPECT_EQ(table.Lookup("beta"), b);
}

TEST(TreeTest, BuildAndNavigate) {
  Tree t(std::make_shared<SymbolTable>());
  NodeId root = t.AddElement(kNullNode, "a");
  NodeId b = t.AddElement(root, "b");
  NodeId c = t.AddElement(root, "c");
  NodeId txt = t.AddText(b, "hello");

  EXPECT_EQ(t.root(), root);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.parent(b), root);
  EXPECT_EQ(t.first_child(root), b);
  EXPECT_EQ(t.next_sibling(b), c);
  EXPECT_EQ(t.next_sibling(c), kNullNode);
  EXPECT_TRUE(t.IsText(txt));
  EXPECT_EQ(t.text(txt), "hello");
  EXPECT_EQ(t.LabelName(root), "a");
  EXPECT_EQ(t.ChildCount(root), 2u);
  EXPECT_EQ(t.Depth(txt), 2);
  EXPECT_TRUE(t.Validate().ok());
}

TEST(TreeTest, DirectTextAndNumericValue) {
  TreeBuilder b;
  b.Open("root");
  b.Open("age").Text("42").Close();
  b.Open("name").Text("An").Text("na").Close();
  b.Open("empty").Close();
  b.Close();  // root
  Tree t = std::move(b).Finish();

  NodeId age = t.first_child(t.root());
  NodeId name = t.next_sibling(age);
  NodeId empty = t.next_sibling(name);
  EXPECT_EQ(t.DirectText(age), "42");
  EXPECT_EQ(t.DirectText(name), "Anna");
  EXPECT_EQ(t.DirectText(empty), "");
  ASSERT_TRUE(t.NumericValue(age).has_value());
  EXPECT_DOUBLE_EQ(*t.NumericValue(age), 42.0);
  EXPECT_FALSE(t.NumericValue(name).has_value());
  EXPECT_TRUE(t.HasTextChild(age, "42"));
  EXPECT_FALSE(t.HasTextChild(age, "41"));
}

TEST(TreeTest, VirtualNodes) {
  TreeBuilder b;
  b.Open("root").Virtual(7).Open("x").Close();
  b.Close();
  Tree t = std::move(b).Finish();
  std::vector<NodeId> virtuals = t.VirtualNodes();
  ASSERT_EQ(virtuals.size(), 1u);
  EXPECT_TRUE(t.IsVirtual(virtuals[0]));
  EXPECT_EQ(t.fragment_ref(virtuals[0]), 7);
  EXPECT_TRUE(t.Validate().ok());
}

TEST(TreeTest, SubtreeAndLabelPath) {
  Tree t = testing::BuildClienteleTree();
  EXPECT_TRUE(t.Validate().ok());
  NodeId anna_client = t.first_child(t.root());
  EXPECT_EQ(t.LabelPath(anna_client), "clientele/client");
  EXPECT_EQ(t.SubtreeSize(t.root()), t.size());
  EXPECT_EQ(t.SubtreeIds(t.root()).size(), t.size());
}

TEST(TreeTest, CloneIsDeep) {
  Tree t = testing::BuildClienteleTree();
  Tree copy = t.Clone();
  EXPECT_EQ(copy.size(), t.size());
  copy.AddElement(copy.root(), "extra");
  EXPECT_EQ(copy.size(), t.size() + 1);
}

// ---- Parser -----------------------------------------------------------------

TEST(XmlParserTest, ParsesSimpleDocument) {
  auto r = ParseXml("<a><b>hi</b><c/></a>");
  ASSERT_TRUE(r.ok()) << r.status();
  const Tree& t = *r;
  EXPECT_EQ(t.LabelName(t.root()), "a");
  EXPECT_EQ(t.ChildCount(t.root()), 2u);
  NodeId b = t.first_child(t.root());
  EXPECT_EQ(t.DirectText(b), "hi");
}

TEST(XmlParserTest, SkipsWhitespaceTextByDefault) {
  auto r = ParseXml("<a>\n  <b> x </b>\n</a>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ChildCount(r->root()), 1u);  // only <b>
  XmlParseOptions opts;
  opts.skip_whitespace_text = false;
  auto keep = ParseXml("<a>\n  <b> x </b>\n</a>", opts);
  ASSERT_TRUE(keep.ok());
  EXPECT_EQ(keep->ChildCount(keep->root()), 3u);
}

TEST(XmlParserTest, DecodesEntitiesAndCdata) {
  auto r = ParseXml("<a>&lt;x&gt; &amp; <![CDATA[<raw>]]> &#65;&#x42;</a>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->DirectText(r->root()), "<x> & <raw> AB");
}

TEST(XmlParserTest, ParsesAttributes) {
  auto r = ParseXml("<a id=\"1\" name='x &amp; y'><b k=\"v\"/></a>");
  ASSERT_TRUE(r.ok()) << r.status();
  const auto& attrs = r->attributes(r->root());
  ASSERT_EQ(attrs.size(), 2u);
  EXPECT_EQ(r->symbols()->Name(attrs[0].name), "id");
  EXPECT_EQ(attrs[0].value, "1");
  EXPECT_EQ(attrs[1].value, "x & y");
}

TEST(XmlParserTest, SkipsPrologCommentsDoctype) {
  auto r = ParseXml(
      "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a ANY>]>"
      "<!-- hi --><a><!-- inner --><b/></a><!-- post -->");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->ChildCount(r->root()), 1u);
}

TEST(XmlParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());
  EXPECT_FALSE(ParseXml("<a></a><b></b>").ok());
  EXPECT_FALSE(ParseXml("plain text").ok());
  EXPECT_FALSE(ParseXml("<a attr></a>").ok());
  EXPECT_FALSE(ParseXml("<a>&unknown;</a>").ok());
}

TEST(XmlParserTest, VirtualNodeRoundTrip) {
  TreeBuilder b;
  b.Open("root").LeafText("x", "1").Virtual(3).Close();
  Tree t = std::move(b).Finish();
  std::string xml = SerializeXml(t);
  EXPECT_NE(xml.find("paxml-virtual"), std::string::npos);
  auto r = ParseXml(xml);
  ASSERT_TRUE(r.ok()) << r.status();
  std::vector<NodeId> virtuals = r->VirtualNodes();
  ASSERT_EQ(virtuals.size(), 1u);
  EXPECT_EQ(r->fragment_ref(virtuals[0]), 3);
}

// ---- Serializer ---------------------------------------------------------------

TEST(XmlSerializerTest, RoundTripsClientele) {
  Tree t = testing::BuildClienteleTree();
  std::string xml = SerializeXml(t);
  auto r = ParseXml(xml);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), t.size());
  EXPECT_EQ(SerializeXml(*r), xml);
}

TEST(XmlSerializerTest, EscapesSpecialCharacters) {
  TreeBuilder b;
  b.Open("a").Text("x < y & z").Close();
  Tree t = std::move(b).Finish();
  std::string xml = SerializeXml(t);
  EXPECT_EQ(xml, "<a>x &lt; y &amp; z</a>");
  auto r = ParseXml(xml);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->DirectText(r->root()), "x < y & z");
}

TEST(XmlSerializerTest, SerializedSizeMatchesDefaultOutput) {
  Tree t = testing::BuildClienteleTree();
  EXPECT_EQ(SerializedSize(t), SerializeXml(t).size());

  TreeBuilder b;
  b.Open("r").Attr("k", "v<w").Virtual(12).LeafText("t", "a&b").Leaf("e");
  b.Close();
  Tree t2 = std::move(b).Finish();
  EXPECT_EQ(SerializedSize(t2), SerializeXml(t2).size());
}

TEST(XmlSerializerTest, SerializedSizeCountsEveryEscape) {
  // All five escapable characters, in text and in attribute values, alone,
  // repeated and mixed with plain characters; every subtree is measured.
  TreeBuilder b;
  b.Open("r").Attr("all", "&<>\"'").Attr("plain", "v");
  b.Open("s").Attr("q", "\"\"x''").Text("a & b < c > d \"e\" 'f'");
  b.Close();
  b.LeafText("t", "&&&").LeafText("u", "<<>>").LeafText("w", "no escapes");
  b.Open("x").Attr("amp", "&amp;").Leaf("y").Close();
  b.Close();
  Tree t = std::move(b).Finish();
  EXPECT_EQ(SerializedSize(t), SerializeXml(t).size());
  for (NodeId v = 0; v < static_cast<NodeId>(t.size()); ++v) {
    if (t.IsText(v)) continue;  // not serializable standalone
    EXPECT_EQ(SerializedSize(t, v), SerializeXml(t, v).size())
        << t.LabelPath(v);
  }
}

TEST(XmlSerializerTest, IndentedOutputReparses) {
  Tree t = testing::BuildClienteleTree();
  std::string pretty = SerializeXml(t, kNullNode, {.indent = true});
  auto r = ParseXml(pretty);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), t.size());
}

TEST(XmlSerializerTest, SubtreeSerialization) {
  Tree t = testing::BuildClienteleTree();
  NodeId anna = t.first_child(t.root());
  std::string xml = SerializeXml(t, anna);
  EXPECT_EQ(xml.rfind("<client>", 0), 0u);
  auto r = ParseXml(xml);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->LabelName(r->root()), "client");
}

// ---- Builder -----------------------------------------------------------------

TEST(TreeBuilderTest, LeafHelpers) {
  TreeBuilder b;
  b.Open("r").LeafNumber("i", 42).LeafNumber("f", 2.5).Leaf("e").Close();
  Tree t = std::move(b).Finish();
  NodeId i = t.first_child(t.root());
  NodeId f = t.next_sibling(i);
  EXPECT_EQ(t.DirectText(i), "42");  // integral: no trailing .0
  EXPECT_EQ(t.DirectText(f), "2.5");
}

}  // namespace
}  // namespace paxml
