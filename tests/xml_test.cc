#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "fragment/fragmenter.h"
#include "fragment/storage.h"
#include "harness.h"
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

// ---- Virtual-below bit ------------------------------------------------------

/// Checks HasVirtualBelow against a brute-force recomputation: every
/// ancestor-or-self of every virtual node, walked up to the root, and no
/// other node.
void ExpectVirtualBelowExact(const Tree& t, const std::string& what) {
  std::vector<bool> expected(t.size(), false);
  for (NodeId v : t.VirtualNodes()) {
    for (NodeId a = v; a != kNullNode; a = t.parent(a)) {
      expected[static_cast<size_t>(a)] = true;
    }
  }
  for (NodeId v = 0; v < static_cast<NodeId>(t.size()); ++v) {
    ASSERT_EQ(t.HasVirtualBelow(v), expected[static_cast<size_t>(v)])
        << what << ", node " << v;
  }
}

TEST(TreeTest, VirtualBelowMarksVirtualNodesAndTheirAncestors) {
  TreeBuilder b;
  b.Open("root").Open("a").Open("b").Virtual(1).Close();
  b.Open("c").Virtual(2).Virtual(3).Close().Close();
  b.Open("d").LeafText("x", "1").Close().Close();
  Tree t = std::move(b).Finish();
  ExpectVirtualBelowExact(t, "built");
  EXPECT_TRUE(t.HasVirtualBelow(t.root()));
  const NodeId d = t.node(t.root()).last_child;
  EXPECT_FALSE(t.HasVirtualBelow(d));
  ExpectVirtualBelowExact(t.Clone(), "clone");

  auto parsed = ParseXml(SerializeXml(t));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->VirtualNodes().size(), 3u);
  ExpectVirtualBelowExact(*parsed, "parsed");

  auto plain = ParseXml("<a><b><c/></b>text</a>");
  ASSERT_TRUE(plain.ok());
  ExpectVirtualBelowExact(*plain, "virtual-free");
  EXPECT_FALSE(plain->HasVirtualBelow(plain->root()));
}

TEST(TreeTest, VirtualBelowOnFt2FragmentsAndAfterStorage) {
  bench::Workload w = bench::MakeFT2Paper(0.05);
  const FragmentedDocument& doc = *w.doc;
  size_t marked = 0;
  for (size_t f = 0; f < doc.size(); ++f) {
    const Tree& t = doc.fragment(static_cast<FragmentId>(f)).tree;
    ExpectVirtualBelowExact(t, "FT2 fragment " + std::to_string(f));
    ExpectVirtualBelowExact(t.Clone(), "clone of FT2 fragment " +
                                           std::to_string(f));
    for (NodeId v = 0; v < static_cast<NodeId>(t.size()); ++v) {
      marked += t.HasVirtualBelow(v);
    }
  }
  // One virtual node per non-root fragment, plus at least one ancestor.
  EXPECT_GT(marked, doc.size() - 1);

  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("paxml_xml_test_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);
  ASSERT_TRUE(SaveDocument(doc, dir.string()).ok());
  auto loaded = LoadDocument(dir.string(), doc.symbols());
  fs::remove_all(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), doc.size());
  for (size_t f = 0; f < loaded->size(); ++f) {
    const Tree& t = loaded->fragment(static_cast<FragmentId>(f)).tree;
    EXPECT_EQ(t.VirtualNodes().size(),
              doc.fragment(static_cast<FragmentId>(f)).tree.VirtualNodes()
                  .size());
    ExpectVirtualBelowExact(t, "loaded FT2 fragment " + std::to_string(f));
  }
}

// ---- Document order ---------------------------------------------------------

/// Checks that `t` claims document order and that its ids are document
/// order: a pre-order walk meets them as 0, 1, 2, ..., and every node's
/// subtree is the id range [v, SubtreeEnd(v)).
void ExpectDocumentOrder(const Tree& t, const std::string& what) {
  ASSERT_TRUE(t.InDocumentOrder()) << what;
  const std::vector<NodeId> walk = t.SubtreeIds(t.root());
  ASSERT_EQ(walk.size(), t.size()) << what;
  for (size_t i = 0; i < walk.size(); ++i) {
    ASSERT_EQ(walk[i], static_cast<NodeId>(i)) << what;
  }
  for (NodeId v = 0; v < static_cast<NodeId>(t.size()); ++v) {
    ASSERT_EQ(t.SubtreeEnd(v), v + static_cast<NodeId>(t.SubtreeSize(v)))
        << what << ", node " << v;
  }
}

TEST(TreeTest, OutOfOrderAppendClearsDocumentOrder) {
  EXPECT_TRUE(Tree().InDocumentOrder());

  Tree t;
  const NodeId root = t.AddElement(kNullNode, "root");
  const NodeId x = t.AddElement(root, "x");
  t.AddText(t.AddElement(x, "a"), "1");
  const NodeId y = t.AddElement(root, "y");  // after x's whole subtree
  t.AddVirtual(y, 1);
  ExpectDocumentOrder(t, "in order");
  const Tree in_order = t.Clone();

  t.AddElement(x, "b");  // x's subtree no longer ends before y
  EXPECT_FALSE(t.InDocumentOrder());
  EXPECT_TRUE(t.Validate().ok());
  t.AddElement(t.AddElement(root, "z"), "c");  // stays cleared
  EXPECT_FALSE(t.InDocumentOrder());
  EXPECT_FALSE(t.Clone().InDocumentOrder());
  ExpectDocumentOrder(in_order, "clone taken before the append");

  // Text and virtual appends are checked the same way.
  Tree text = in_order.Clone();
  text.AddText(x, "late");
  EXPECT_FALSE(text.InDocumentOrder());
  Tree virt = in_order.Clone();
  virt.AddVirtual(x, 2);
  EXPECT_FALSE(virt.InDocumentOrder());
}

TEST(TreeTest, BuilderParserFragmenterAndStorageOutputIsInDocumentOrder) {
  ExpectDocumentOrder(testing::BuildClienteleTree(), "built");
  auto parsed = ParseXml(
      "<r><a><b>t<c/>u</b><paxml-virtual ref=\"2\"/></a>v<d><e/></d></r>");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectDocumentOrder(*parsed, "parsed");

  // A source tree built out of order (y before x's children) fragments
  // into fragments in document order: the fragmenter copies top-down.
  Tree source;
  const NodeId root = source.AddElement(kNullNode, "root");
  const NodeId x = source.AddElement(root, "x");
  source.AddElement(root, "y");
  const NodeId c = source.AddElement(x, "c");
  source.AddElement(c, "d");
  source.AddElement(x, "a");
  ASSERT_FALSE(source.InDocumentOrder());
  auto cut = FragmentByCuts(source, {x, c});
  ASSERT_TRUE(cut.ok()) << cut.status();
  for (size_t f = 0; f < cut->size(); ++f) {
    ExpectDocumentOrder(cut->fragment(static_cast<FragmentId>(f)).tree,
                        "fragment " + std::to_string(f) + " of the cut");
  }

  bench::Workload w = bench::MakeFT2Paper(0.05);
  const FragmentedDocument& doc = *w.doc;
  for (size_t f = 0; f < doc.size(); ++f) {
    ExpectDocumentOrder(doc.fragment(static_cast<FragmentId>(f)).tree,
                        "FT2 fragment " + std::to_string(f));
  }
  ExpectDocumentOrder(doc.Assemble(), "assembled FT2");

  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("paxml_xml_order_test_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);
  ASSERT_TRUE(SaveDocument(doc, dir.string()).ok());
  auto loaded = LoadDocument(dir.string(), doc.symbols());
  fs::remove_all(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  for (size_t f = 0; f < loaded->size(); ++f) {
    ExpectDocumentOrder(loaded->fragment(static_cast<FragmentId>(f)).tree,
                        "loaded FT2 fragment " + std::to_string(f));
  }
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

/// Checks the size table against the serializer at every node of `t`: the
/// output length for elements and virtual nodes, the escaped text for text
/// nodes (which do not serialize standalone).
void ExpectSizesMatchSerializer(const Tree& t, const std::string& what) {
  ASSERT_EQ(t.SerializedSizes().size(), t.size()) << what;
  for (NodeId v = 0; v < static_cast<NodeId>(t.size()); ++v) {
    const size_t expected = t.IsText(v) ? XmlEscapedSize(t.text(v))
                                        : SerializeXml(t, v).size();
    ASSERT_EQ(SerializedSize(t, v), expected) << what << ", node " << v;
  }
}

TEST(XmlSerializerTest, SizeTableOnFt2FragmentsAndAfterStorage) {
  bench::Workload w = bench::MakeFT2Paper(0.05);
  const FragmentedDocument& doc = *w.doc;
  for (size_t f = 0; f < doc.size(); ++f) {
    const Tree& t = doc.fragment(static_cast<FragmentId>(f)).tree;
    ExpectSizesMatchSerializer(t, "FT2 fragment " + std::to_string(f));
    ExpectSizesMatchSerializer(t.Clone(),
                               "clone of FT2 fragment " + std::to_string(f));
  }

  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("paxml_xml_sizes_test_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);
  ASSERT_TRUE(SaveDocument(doc, dir.string()).ok());
  auto loaded = LoadDocument(dir.string(), doc.symbols());
  fs::remove_all(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), doc.size());
  for (size_t f = 0; f < loaded->size(); ++f) {
    const Tree& t = loaded->fragment(static_cast<FragmentId>(f)).tree;
    ExpectSizesMatchSerializer(t, "loaded FT2 fragment " + std::to_string(f));
    EXPECT_EQ(SerializedSize(t),
              SerializedSize(doc.fragment(static_cast<FragmentId>(f)).tree));
  }
}

TEST(XmlSerializerTest, SizeTableFollowsEveryAdd) {
  TreeBuilder b;
  b.Open("r").LeafText("t", "a&b").Leaf("e").Close();
  Tree t = std::move(b).Finish();
  ExpectSizesMatchSerializer(t, "built");
  const NodeId e = t.next_sibling(t.first_child(t.root()));

  const Tree before = t.Clone();
  t.AddAttribute(e, "k", "v<w");
  ExpectSizesMatchSerializer(t, "after AddAttribute");
  const NodeId c = t.AddElement(e, "child");  // e is no longer a leaf
  ExpectSizesMatchSerializer(t, "after AddElement");
  t.AddText(c, "x > y");
  ExpectSizesMatchSerializer(t, "after AddText");
  t.AddVirtual(t.root(), 12345);
  ExpectSizesMatchSerializer(t, "after AddVirtual");
  EXPECT_GT(SerializedSize(t), SerializedSize(before));

  // The clone, priced before the adds, did not see them.
  ExpectSizesMatchSerializer(before, "clone");
  EXPECT_EQ(SerializedSize(before), SerializeXml(before).size());
}

TEST(XmlSerializerTest, ConcurrentFirstLookupsAgree) {
  bench::Workload w = bench::MakeFT2Paper(0.05);
  const Tree& source = w.doc->fragment(0).tree;
  for (int round = 0; round < 4; ++round) {
    const Tree fresh = source.Clone();  // no table yet
    std::atomic<int> ready{0};
    std::vector<std::vector<uint64_t>> seen(4);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < seen.size(); ++i) {
      threads.emplace_back([&, i] {
        ready.fetch_add(1);
        while (ready.load() < static_cast<int>(seen.size())) {
        }
        seen[i] = fresh.SerializedSizes();
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const auto& sizes : seen) EXPECT_EQ(sizes, seen[0]);
    EXPECT_EQ(seen[0], source.SerializedSizes());
    EXPECT_EQ(seen[0][0], SerializeXml(fresh).size());
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
