#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/engine.h"
#include "eval/centralized.h"
#include "fragment/fragmenter.h"
#include "fragment/storage.h"
#include "test_util.h"
#include "xml/serializer.h"

namespace paxml {
namespace {

namespace fs = std::filesystem;

class StorageTest : public ::testing::Test {
 protected:
  StorageTest() {
    dir_ = fs::temp_directory_path() /
           ("paxml_storage_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  ~StorageTest() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(StorageTest, SaveLoadRoundTrip) {
  Tree tree = testing::BuildClienteleTree();
  auto doc = FragmentByCuts(tree, testing::ClienteleCuts(tree));
  ASSERT_TRUE(doc.ok());

  ASSERT_TRUE(SaveDocument(*doc, dir_.string()).ok());
  EXPECT_TRUE(fs::exists(dir_ / "manifest.paxml"));
  EXPECT_TRUE(fs::exists(dir_ / "fragment_0.xml"));
  EXPECT_TRUE(fs::exists(dir_ / "fragment_4.xml"));

  auto loaded = LoadDocument(dir_.string(), std::make_shared<SymbolTable>());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), doc->size());
  EXPECT_TRUE(loaded->Validate().ok()) << loaded->Validate();

  // Structure, annotations and source ids survive.
  for (size_t f = 0; f < doc->size(); ++f) {
    EXPECT_EQ(loaded->fragment(f).parent, doc->fragment(f).parent);
    EXPECT_EQ(loaded->fragment(f).source_ids, doc->fragment(f).source_ids);
    EXPECT_EQ(loaded->fragment(f).AnnotationString(*loaded->symbols()),
              doc->fragment(f).AnnotationString(*doc->symbols()));
  }
  EXPECT_EQ(SerializeXml(loaded->Assemble()), SerializeXml(tree));
}

TEST_F(StorageTest, LoadedDocumentEvaluatesIdentically) {
  Tree tree = testing::BuildClienteleTree();
  auto doc = FragmentByCuts(tree, testing::ClienteleCuts(tree));
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(SaveDocument(*doc, dir_.string()).ok());

  auto symbols = std::make_shared<SymbolTable>();
  auto loaded_r = LoadDocument(dir_.string(), symbols);
  ASSERT_TRUE(loaded_r.ok());
  auto loaded =
      std::make_shared<FragmentedDocument>(std::move(loaded_r).ValueOrDie());

  Cluster cluster(loaded, 3);
  const char* query =
      "//broker[//stock/code/text() = \"GOOG\"]/name";
  auto r = testing::EvaluateOn(cluster, query);
  ASSERT_TRUE(r.ok()) << r.status();

  auto expected = EvaluateCentralized(tree, query);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(r->ToSourceIds(*loaded), expected->answers);
}

TEST_F(StorageTest, RandomDocumentsRoundTrip) {
  Rng rng(31);
  for (int iter = 0; iter < 5; ++iter) {
    fs::path sub = dir_ / std::to_string(iter);
    Tree tree = testing::RandomTree(&rng, 80 + rng.NextBounded(100));
    auto doc = FragmentRandomly(tree, 1 + rng.NextBounded(6), &rng);
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE(SaveDocument(*doc, sub.string()).ok());
    auto loaded = LoadDocument(sub.string(), std::make_shared<SymbolTable>());
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(SerializeXml(loaded->Assemble()), SerializeXml(tree));
  }
}

TEST_F(StorageTest, LoadMissingDirectoryFails) {
  auto r = LoadDocument((dir_ / "nope").string());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(StorageTest, LoadRejectsCorruptManifest) {
  Tree tree = testing::BuildClienteleTree();
  auto doc = FragmentByCuts(tree, testing::ClienteleCuts(tree));
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(SaveDocument(*doc, dir_.string()).ok());

  {
    std::ofstream out(dir_ / "manifest.paxml", std::ios::trunc);
    out << "not-a-manifest 1\n";
  }
  auto r = LoadDocument(dir_.string());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST_F(StorageTest, LoadRejectsMissingFragmentFile) {
  Tree tree = testing::BuildClienteleTree();
  auto doc = FragmentByCuts(tree, testing::ClienteleCuts(tree));
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(SaveDocument(*doc, dir_.string()).ok());
  fs::remove(dir_ / "fragment_2.xml");
  auto r = LoadDocument(dir_.string());
  EXPECT_FALSE(r.ok());
}

TEST_F(StorageTest, LoadRejectsTamperedFragmentXml) {
  Tree tree = testing::BuildClienteleTree();
  auto doc = FragmentByCuts(tree, testing::ClienteleCuts(tree));
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(SaveDocument(*doc, dir_.string()).ok());
  {
    std::ofstream out(dir_ / "fragment_1.xml", std::ios::trunc);
    out << "<broken>";
  }
  auto r = LoadDocument(dir_.string());
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace paxml
