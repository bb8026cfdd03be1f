// POS-Tree tests: construction, lookups, splices, iterators, diff and
// merge — plus the property suites that pin down the paper's central
// claims: history independence (same content => same tree, regardless of
// the edit sequence that produced it), bounded chunk sizes, and chunk
// sharing across similar versions.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "chunk/chunk_store.h"
#include "pos_tree/diff.h"
#include "pos_tree/merge.h"
#include "pos_tree/tree.h"
#include "util/random.h"

namespace fb {
namespace {

TreeConfig SmallChunks() {
  // Small expected chunks so modest inputs produce multi-level trees.
  TreeConfig cfg;
  cfg.leaf_pattern_bits = 7;   // ~128 B leaves
  cfg.index_pattern_bits = 3;  // ~8 entries per index node
  return cfg;
}

Element MakeElem(const std::string& key, const std::string& value) {
  Element e;
  e.key = ToBytes(key);
  e.value = ToBytes(value);
  return e;
}

std::vector<Element> MapElements(const std::map<std::string, std::string>& m) {
  std::vector<Element> out;
  for (const auto& [k, v] : m) out.push_back(MakeElem(k, v));
  return out;
}

// ---------------------------------------------------------------------------
// Construction basics
// ---------------------------------------------------------------------------

TEST(PosTreeBuildTest, EmptyTreeIsCanonical) {
  MemChunkStore store;
  auto r1 = PosTree::EmptyRoot(&store, ChunkType::kMap);
  auto r2 = PosTree::BuildFromElements(&store, SmallChunks(), ChunkType::kMap,
                                       {});
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);

  PosTree t(&store, SmallChunks(), ChunkType::kMap, *r1);
  auto count = t.Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST(PosTreeBuildTest, SameContentSameRoot) {
  MemChunkStore store;
  Rng rng(1);
  const Bytes data = rng.BytesOf(20000);
  auto r1 = PosTree::BuildFromBytes(&store, SmallChunks(), Slice(data));
  auto r2 = PosTree::BuildFromBytes(&store, SmallChunks(), Slice(data));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);
}

TEST(PosTreeBuildTest, DifferentContentDifferentRoot) {
  MemChunkStore store;
  Rng rng(2);
  Bytes a = rng.BytesOf(5000);
  Bytes b = a;
  b[2500] ^= 0xff;
  auto ra = PosTree::BuildFromBytes(&store, SmallChunks(), Slice(a));
  auto rb = PosTree::BuildFromBytes(&store, SmallChunks(), Slice(b));
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_NE(*ra, *rb);
}

TEST(PosTreeBuildTest, CountMatchesInput) {
  MemChunkStore store;
  Rng rng(3);
  const Bytes data = rng.BytesOf(12345);
  auto root = PosTree::BuildFromBytes(&store, SmallChunks(), Slice(data));
  ASSERT_TRUE(root.ok());
  PosTree t(&store, SmallChunks(), ChunkType::kBlob, *root);
  auto count = t.Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 12345u);
}

TEST(PosTreeBuildTest, LargeInputGrowsMultipleLevels) {
  MemChunkStore store;
  Rng rng(4);
  const Bytes data = rng.BytesOf(100000);
  auto root = PosTree::BuildFromBytes(&store, SmallChunks(), Slice(data));
  ASSERT_TRUE(root.ok());
  PosTree t(&store, SmallChunks(), ChunkType::kBlob, *root);
  auto h = t.Height();
  ASSERT_TRUE(h.ok());
  EXPECT_GE(*h, 3u);
}

TEST(PosTreeBuildTest, LeafSizesRespectHardCap) {
  MemChunkStore store;
  TreeConfig cfg;
  cfg.leaf_pattern_bits = 10;  // expected 1 KB
  cfg.size_alpha = 2;          // cap 2 KB: ~13% of chunks are force-cut
  Rng rng(99);
  const Bytes data = rng.BytesOf(1 << 20);
  auto root = PosTree::BuildFromBytes(&store, cfg, Slice(data));
  ASSERT_TRUE(root.ok());
  PosTree t(&store, cfg, ChunkType::kBlob, *root);
  std::vector<Entry> leaves;
  ASSERT_TRUE(t.LoadLeafEntries(&leaves).ok());
  size_t capped = 0;
  for (const Entry& e : leaves) {
    ASSERT_LE(e.count, cfg.max_leaf_bytes());
    if (e.count == cfg.max_leaf_bytes()) ++capped;
  }
  // With P(no pattern in 2 KB) = (1 - 2^-10)^2048 ~ e^-2, a meaningful
  // fraction of chunks must have been force-cut at the cap.
  EXPECT_GT(capped, leaves.size() / 20);
}

TEST(PosTreeBuildTest, RepeatedContentStillDeduplicates) {
  // Degenerate input called out in Section 4.3.3: constant bytes. The
  // chunker may cut periodic or cap-sized chunks, but they are identical
  // and deduplicate to a handful of stored chunks.
  MemChunkStore store;
  const TreeConfig cfg = SmallChunks();
  const Bytes data(50000, 0x41);
  auto root = PosTree::BuildFromBytes(&store, cfg, Slice(data));
  ASSERT_TRUE(root.ok());
  PosTree t(&store, cfg, ChunkType::kBlob, *root);
  std::vector<Entry> leaves;
  ASSERT_TRUE(t.LoadLeafEntries(&leaves).ok());
  ASSERT_GT(leaves.size(), 10u);
  std::set<std::string> unique;
  for (const Entry& e : leaves) {
    ASSERT_LE(e.count, cfg.max_leaf_bytes());
    unique.insert(e.cid.ToHex());
  }
  EXPECT_LE(unique.size(), 3u);
}

TEST(PosTreeBuildTest, ExpectedLeafSizeTracksQ) {
  MemChunkStore store;
  TreeConfig cfg;
  cfg.leaf_pattern_bits = 8;  // expected 256 B
  Rng rng(5);
  const Bytes data = rng.BytesOf(1 << 18);
  auto root = PosTree::BuildFromBytes(&store, cfg, Slice(data));
  ASSERT_TRUE(root.ok());
  PosTree t(&store, cfg, ChunkType::kBlob, *root);
  std::vector<Entry> leaves;
  ASSERT_TRUE(t.LoadLeafEntries(&leaves).ok());
  const double avg =
      static_cast<double>(data.size()) / static_cast<double>(leaves.size());
  EXPECT_GT(avg, 256 * 0.5);
  EXPECT_LT(avg, 256 * 2.0);
}

// ---------------------------------------------------------------------------
// Blob reads and splices
// ---------------------------------------------------------------------------

class BlobModelTest : public ::testing::Test {
 protected:
  void Rebuild(const Bytes& content) {
    auto root = PosTree::BuildFromBytes(&store_, cfg_, Slice(content));
    ASSERT_TRUE(root.ok());
    tree_ = std::make_unique<PosTree>(&store_, cfg_, ChunkType::kBlob, *root);
    model_ = content;
  }

  void CheckEqualsModel() {
    auto count = tree_->Count();
    ASSERT_TRUE(count.ok());
    ASSERT_EQ(*count, model_.size());
    auto all = tree_->ReadBytes(0, model_.size());
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(*all, model_);
    // Canonical-form check: the root must equal a from-scratch build.
    auto canonical = PosTree::BuildFromBytes(&store_, cfg_, Slice(model_));
    ASSERT_TRUE(canonical.ok());
    EXPECT_EQ(tree_->root(), *canonical)
        << "splice result deviates from canonical tree (history "
           "independence violated)";
  }

  void Splice(uint64_t pos, uint64_t del, const Bytes& ins) {
    ASSERT_TRUE(tree_->SpliceBytes(pos, del, Slice(ins)).ok());
    Bytes next(model_.begin(), model_.begin() + static_cast<long>(pos));
    next.insert(next.end(), ins.begin(), ins.end());
    const size_t resume = std::min(model_.size(), pos + del);
    next.insert(next.end(), model_.begin() + static_cast<long>(resume),
                model_.end());
    model_ = std::move(next);
  }

  MemChunkStore store_;
  TreeConfig cfg_ = SmallChunks();
  std::unique_ptr<PosTree> tree_;
  Bytes model_;
};

TEST_F(BlobModelTest, ReadRanges) {
  Rng rng(6);
  Rebuild(rng.BytesOf(10000));
  for (const auto& [pos, len] : std::vector<std::pair<size_t, size_t>>{
           {0, 100}, {5000, 1}, {9999, 1}, {9000, 5000}, {0, 10000}}) {
    auto got = tree_->ReadBytes(pos, len);
    ASSERT_TRUE(got.ok());
    const size_t expect_len = std::min(len, model_.size() - pos);
    ASSERT_EQ(got->size(), expect_len);
    EXPECT_TRUE(std::equal(got->begin(), got->end(), model_.begin() + pos));
  }
}

TEST_F(BlobModelTest, AppendToEmpty) {
  Rebuild({});
  Rng rng(7);
  Splice(0, 0, rng.BytesOf(3000));
  CheckEqualsModel();
}

TEST_F(BlobModelTest, InsertAtFront) {
  Rng rng(8);
  Rebuild(rng.BytesOf(8000));
  Splice(0, 0, rng.BytesOf(500));
  CheckEqualsModel();
}

TEST_F(BlobModelTest, InsertInMiddle) {
  Rng rng(9);
  Rebuild(rng.BytesOf(8000));
  Splice(4000, 0, rng.BytesOf(500));
  CheckEqualsModel();
}

TEST_F(BlobModelTest, AppendAtEnd) {
  Rng rng(10);
  Rebuild(rng.BytesOf(8000));
  Splice(8000, 0, rng.BytesOf(500));
  CheckEqualsModel();
}

TEST_F(BlobModelTest, DeleteMiddleRange) {
  Rng rng(11);
  Rebuild(rng.BytesOf(8000));
  Splice(2000, 3000, {});
  CheckEqualsModel();
}

TEST_F(BlobModelTest, DeleteEverything) {
  Rng rng(12);
  Rebuild(rng.BytesOf(5000));
  Splice(0, 5000, {});
  CheckEqualsModel();
  auto empty = PosTree::EmptyRoot(&store_, ChunkType::kBlob);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(tree_->root(), *empty);
}

TEST_F(BlobModelTest, ReplaceRange) {
  Rng rng(13);
  Rebuild(rng.BytesOf(20000));
  Splice(7000, 200, rng.BytesOf(900));
  CheckEqualsModel();
}

TEST_F(BlobModelTest, SpliceOutOfRangeRejected) {
  Rebuild(Bytes(100, 1));
  EXPECT_TRUE(tree_->SpliceBytes(101, 0, Slice("x")).IsOutOfRange());
}

TEST_F(BlobModelTest, DeletionPastEndIsClamped) {
  Rng rng(14);
  Rebuild(rng.BytesOf(1000));
  Splice(900, 100000, {});  // model clamps the same way
  CheckEqualsModel();
}

// Property sweep: random edit scripts must converge to the canonical tree.
class BlobHistoryIndependenceTest : public ::testing::TestWithParam<int> {};

TEST_P(BlobHistoryIndependenceTest, RandomEditScript) {
  MemChunkStore store;
  const TreeConfig cfg = SmallChunks();
  Rng rng(100 + GetParam());

  Bytes model = rng.BytesOf(4000);
  auto root = PosTree::BuildFromBytes(&store, cfg, Slice(model));
  ASSERT_TRUE(root.ok());
  PosTree tree(&store, cfg, ChunkType::kBlob, *root);

  for (int step = 0; step < 20; ++step) {
    const uint64_t pos = model.empty() ? 0 : rng.Uniform(model.size() + 1);
    const uint64_t del =
        model.empty() ? 0 : rng.Uniform(std::min<uint64_t>(
                                 400, model.size() - pos + 1));
    const Bytes ins = rng.BytesOf(rng.Uniform(600));
    ASSERT_TRUE(tree.SpliceBytes(pos, del, Slice(ins)).ok());

    Bytes next(model.begin(), model.begin() + static_cast<long>(pos));
    next.insert(next.end(), ins.begin(), ins.end());
    const size_t resume = std::min<size_t>(model.size(), pos + del);
    next.insert(next.end(), model.begin() + static_cast<long>(resume),
                model.end());
    model = std::move(next);
  }

  auto canonical = PosTree::BuildFromBytes(&store, cfg, Slice(model));
  ASSERT_TRUE(canonical.ok());
  EXPECT_EQ(tree.root(), *canonical);
  auto all = tree.ReadBytes(0, model.size() + 10);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlobHistoryIndependenceTest,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Map operations against a reference std::map
// ---------------------------------------------------------------------------

class MapModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto root = PosTree::EmptyRoot(&store_, ChunkType::kMap);
    ASSERT_TRUE(root.ok());
    tree_ = std::make_unique<PosTree>(&store_, cfg_, ChunkType::kMap, *root);
  }

  void Insert(const std::string& k, const std::string& v) {
    ASSERT_TRUE(tree_->InsertOrAssign(Slice(k), Slice(v)).ok());
    model_[k] = v;
  }
  void Erase(const std::string& k) {
    const Status s = tree_->Erase(Slice(k));
    if (model_.count(k) > 0) {
      ASSERT_TRUE(s.ok()) << s.ToString();
    } else {
      ASSERT_TRUE(s.IsNotFound());
    }
    model_.erase(k);
  }

  void CheckEqualsModel() {
    auto count = tree_->Count();
    ASSERT_TRUE(count.ok());
    ASSERT_EQ(*count, model_.size());
    // Full ordered scan must match.
    auto it = tree_->Begin();
    ASSERT_TRUE(it.ok());
    auto mit = model_.begin();
    while (it->Valid()) {
      ASSERT_NE(mit, model_.end());
      EXPECT_EQ(it->key().ToString(), mit->first);
      EXPECT_EQ(it->value().ToString(), mit->second);
      ASSERT_TRUE(it->Next().ok());
      ++mit;
    }
    EXPECT_EQ(mit, model_.end());
    // Canonical-form check.
    auto canonical = PosTree::BuildFromElements(&store_, cfg_, ChunkType::kMap,
                                                MapElements(model_));
    ASSERT_TRUE(canonical.ok());
    EXPECT_EQ(tree_->root(), *canonical);
  }

  MemChunkStore store_;
  TreeConfig cfg_ = SmallChunks();
  std::unique_ptr<PosTree> tree_;
  std::map<std::string, std::string> model_;
};

TEST_F(MapModelTest, InsertAndFind) {
  Insert("apple", "1");
  Insert("banana", "2");
  Insert("cherry", "3");
  auto v = tree_->Find(Slice("banana"));
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->has_value());
  EXPECT_EQ(BytesToString(**v), "2");
  auto missing = tree_->Find(Slice("durian"));
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->has_value());
  CheckEqualsModel();
}

TEST_F(MapModelTest, OverwriteValue) {
  Insert("k", "v1");
  Insert("k", "v2");
  auto v = tree_->Find(Slice("k"));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(BytesToString(**v), "v2");
  CheckEqualsModel();
}

TEST_F(MapModelTest, IdenticalOverwriteKeepsRoot) {
  Insert("k", "v");
  const Hash before = tree_->root();
  ASSERT_TRUE(tree_->InsertOrAssign(Slice("k"), Slice("v")).ok());
  EXPECT_EQ(tree_->root(), before);
}

TEST_F(MapModelTest, EraseToEmptyMatchesCanonicalEmpty) {
  Insert("a", "1");
  Insert("b", "2");
  Erase("a");
  Erase("b");
  CheckEqualsModel();
  auto empty = PosTree::EmptyRoot(&store_, ChunkType::kMap);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(tree_->root(), *empty);
}

TEST_F(MapModelTest, EraseMissingIsNotFound) {
  Insert("a", "1");
  Erase("zzz");
  CheckEqualsModel();
}

TEST_F(MapModelTest, ManyKeysMultiLevel) {
  Rng rng(20);
  for (int i = 0; i < 800; ++i) {
    Insert(MakeKey(rng.Uniform(500)), rng.String(30));
  }
  auto h = tree_->Height();
  ASSERT_TRUE(h.ok());
  EXPECT_GE(*h, 2u);
  CheckEqualsModel();
}

TEST_F(MapModelTest, FindOnlyTouchesPathNodes) {
  for (int i = 0; i < 2000; ++i) Insert(MakeKey(i), MakeKey(i * 7));
  const uint64_t gets_before = store_.stats().gets;
  auto v = tree_->Find(Slice(MakeKey(1234)));
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->has_value());
  const uint64_t path_reads = store_.stats().gets - gets_before;
  auto h = tree_->Height();
  ASSERT_TRUE(h.ok());
  EXPECT_LE(path_reads, *h) << "point lookup must fetch only the root-to-leaf"
                               " path, not the whole tree";
}

// Batch upserts must be byte-identical to one-by-one InsertOrAssign.
class UpsertBatchTest : public ::testing::TestWithParam<int> {};

TEST_P(UpsertBatchTest, EquivalentToSequentialInserts) {
  MemChunkStore store;
  const TreeConfig cfg = SmallChunks();
  Rng rng(900 + GetParam());

  // Base content.
  std::map<std::string, std::string> model;
  for (int i = 0; i < 200; ++i) model[MakeKey(rng.Uniform(300))] = rng.String(20);
  auto base = PosTree::BuildFromElements(&store, cfg, ChunkType::kMap,
                                         MapElements(model));
  ASSERT_TRUE(base.ok());

  // A batch mixing overwrites, fresh keys, head/tail keys and duplicates.
  std::vector<Element> batch;
  for (int i = 0; i < 60; ++i) {
    batch.push_back(MakeElem(MakeKey(rng.Uniform(400)), rng.String(15)));
  }
  batch.push_back(MakeElem(MakeKey(0), "head"));
  batch.push_back(MakeElem(MakeKey(9999), "tail"));
  batch.push_back(MakeElem(batch[0].key.empty() ? "x" : BytesToString(batch[0].key),
                           "dup-last-wins"));

  PosTree batched(&store, cfg, ChunkType::kMap, *base);
  ASSERT_TRUE(batched.UpsertBatch(batch).ok());

  PosTree sequential(&store, cfg, ChunkType::kMap, *base);
  for (const Element& e : batch) {
    ASSERT_TRUE(
        sequential.InsertOrAssign(Slice(e.key), Slice(e.value)).ok());
  }
  EXPECT_EQ(batched.root(), sequential.root());
}

TEST(UpsertBatchTest, IntoEmptyTreeEqualsBuild) {
  MemChunkStore store;
  const TreeConfig cfg = SmallChunks();
  auto empty = PosTree::EmptyRoot(&store, ChunkType::kMap);
  ASSERT_TRUE(empty.ok());
  PosTree tree(&store, cfg, ChunkType::kMap, *empty);

  std::map<std::string, std::string> model;
  Rng rng(77);
  std::vector<Element> batch;
  for (int i = 0; i < 150; ++i) {
    const std::string k = MakeKey(rng.Uniform(200));
    const std::string v = rng.String(10);
    batch.push_back(MakeElem(k, v));
    model[k] = v;
  }
  ASSERT_TRUE(tree.UpsertBatch(batch).ok());
  auto canonical = PosTree::BuildFromElements(&store, cfg, ChunkType::kMap,
                                              MapElements(model));
  ASSERT_TRUE(canonical.ok());
  EXPECT_EQ(tree.root(), *canonical);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpsertBatchTest, ::testing::Range(0, 8));

// Property sweep over random op scripts with different seeds.
class MapHistoryIndependenceTest : public ::testing::TestWithParam<int> {};

TEST_P(MapHistoryIndependenceTest, RandomOpScript) {
  MemChunkStore store;
  const TreeConfig cfg = SmallChunks();
  Rng rng(500 + GetParam());

  auto root = PosTree::EmptyRoot(&store, ChunkType::kMap);
  ASSERT_TRUE(root.ok());
  PosTree tree(&store, cfg, ChunkType::kMap, *root);
  std::map<std::string, std::string> model;

  for (int step = 0; step < 300; ++step) {
    const std::string key = MakeKey(rng.Uniform(120));
    if (rng.Bernoulli(0.7)) {
      const std::string value = rng.String(20);
      ASSERT_TRUE(tree.InsertOrAssign(Slice(key), Slice(value)).ok());
      model[key] = value;
    } else {
      const Status s = tree.Erase(Slice(key));
      if (model.count(key) > 0) {
        ASSERT_TRUE(s.ok());
      } else {
        ASSERT_TRUE(s.IsNotFound());
      }
      model.erase(key);
    }
  }

  auto canonical =
      PosTree::BuildFromElements(&store, cfg, ChunkType::kMap,
                                 MapElements(model));
  ASSERT_TRUE(canonical.ok());
  EXPECT_EQ(tree.root(), *canonical);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapHistoryIndependenceTest,
                         ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Set
// ---------------------------------------------------------------------------

TEST(PosTreeSetTest, MembershipAndCanonicalForm) {
  MemChunkStore store;
  const TreeConfig cfg = SmallChunks();
  auto root = PosTree::EmptyRoot(&store, ChunkType::kSet);
  ASSERT_TRUE(root.ok());
  PosTree tree(&store, cfg, ChunkType::kSet, *root);

  std::set<std::string> model;
  Rng rng(31);
  for (int i = 0; i < 300; ++i) {
    const std::string k = MakeKey(rng.Uniform(100));
    ASSERT_TRUE(tree.InsertOrAssign(Slice(k), Slice()).ok());
    model.insert(k);
  }
  auto count = tree.Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, model.size());

  for (const std::string& k : {MakeKey(0), MakeKey(55), MakeKey(99)}) {
    auto v = tree.Find(Slice(k));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->has_value(), model.count(k) > 0);
  }

  std::vector<Element> elems;
  for (const auto& k : model) elems.push_back(MakeElem(k, ""));
  auto canonical =
      PosTree::BuildFromElements(&store, cfg, ChunkType::kSet, elems);
  ASSERT_TRUE(canonical.ok());
  EXPECT_EQ(tree.root(), *canonical);
}

// ---------------------------------------------------------------------------
// List
// ---------------------------------------------------------------------------

TEST(PosTreeListTest, BuildGetAndSplice) {
  MemChunkStore store;
  const TreeConfig cfg = SmallChunks();
  std::vector<Element> elems;
  for (int i = 0; i < 500; ++i) elems.push_back(MakeElem("", MakeKey(i)));
  auto root =
      PosTree::BuildFromElements(&store, cfg, ChunkType::kList, elems);
  ASSERT_TRUE(root.ok());
  PosTree tree(&store, cfg, ChunkType::kList, *root);

  auto e42 = tree.GetElement(42);
  ASSERT_TRUE(e42.ok());
  EXPECT_EQ(BytesToString(*e42), MakeKey(42));
  EXPECT_TRUE(tree.GetElement(500).status().IsOutOfRange());

  // Replace elements [100, 103) with one new element.
  ASSERT_TRUE(
      tree.SpliceElements(100, 3, {MakeElem("", "NEW")}).ok());
  auto count = tree.Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 498u);
  auto e100 = tree.GetElement(100);
  ASSERT_TRUE(e100.ok());
  EXPECT_EQ(BytesToString(*e100), "NEW");
  auto e101 = tree.GetElement(101);
  ASSERT_TRUE(e101.ok());
  EXPECT_EQ(BytesToString(*e101), MakeKey(103));
}

// ---------------------------------------------------------------------------
// Deduplication across versions
// ---------------------------------------------------------------------------

TEST(PosTreeDedupTest, SmallEditSharesMostChunks) {
  MemChunkStore store;
  TreeConfig cfg;  // default 4 KB leaves
  Rng rng(41);
  const Bytes v1 = rng.BytesOf(1 << 20);  // 1 MB

  auto r1 = PosTree::BuildFromBytes(&store, cfg, Slice(v1));
  ASSERT_TRUE(r1.ok());
  PosTree t1(&store, cfg, ChunkType::kBlob, *r1);

  // Edit 100 bytes in the middle.
  PosTree t2 = t1;
  ASSERT_TRUE(t2.SpliceBytes(512 * 1024, 100, Slice(rng.BytesOf(150))).ok());

  auto overlap = ComputeChunkOverlap(t1, t2);
  ASSERT_TRUE(overlap.ok());
  const double share =
      static_cast<double>(overlap->shared) /
      static_cast<double>(overlap->shared + overlap->only_b);
  EXPECT_GT(share, 0.9) << "a 100-byte edit in 1 MB should share >90% of "
                           "chunks with the previous version";
}

TEST(PosTreeDedupTest, CrossObjectDedup) {
  // Two distinct objects containing the same embedded content share
  // chunks in the store — the cross-dataset dedup the paper credits over
  // delta-based systems.
  MemChunkStore store;
  TreeConfig cfg;
  cfg.leaf_pattern_bits = 8;
  Rng rng(43);
  const Bytes shared = rng.BytesOf(64 * 1024);
  Bytes a = rng.BytesOf(1000);
  AppendSlice(&a, Slice(shared));
  Bytes b = rng.BytesOf(3000);
  AppendSlice(&b, Slice(shared));

  auto ra = PosTree::BuildFromBytes(&store, cfg, Slice(a));
  auto rb = PosTree::BuildFromBytes(&store, cfg, Slice(b));
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  PosTree ta(&store, cfg, ChunkType::kBlob, *ra);
  PosTree tb(&store, cfg, ChunkType::kBlob, *rb);
  auto overlap = ComputeChunkOverlap(ta, tb);
  ASSERT_TRUE(overlap.ok());
  EXPECT_GT(overlap->shared, 100u);
}

// ---------------------------------------------------------------------------
// Diff
// ---------------------------------------------------------------------------

TEST(PosTreeDiffTest, SortedDiffMatchesReference) {
  MemChunkStore store;
  const TreeConfig cfg = SmallChunks();
  std::map<std::string, std::string> ma, mb;
  Rng rng(51);
  for (int i = 0; i < 400; ++i) ma[MakeKey(i)] = rng.String(20);
  mb = ma;
  mb.erase(MakeKey(10));                  // removed in b
  mb[MakeKey(600)] = "added";             // added in b
  mb[MakeKey(200)] = "changed";           // changed in b

  auto ra = PosTree::BuildFromElements(&store, cfg, ChunkType::kMap,
                                       MapElements(ma));
  auto rb = PosTree::BuildFromElements(&store, cfg, ChunkType::kMap,
                                       MapElements(mb));
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  PosTree ta(&store, cfg, ChunkType::kMap, *ra);
  PosTree tb(&store, cfg, ChunkType::kMap, *rb);

  auto diff = DiffSorted(ta, tb);
  ASSERT_TRUE(diff.ok());
  ASSERT_EQ(diff->size(), 3u);
  std::map<std::string, KeyDiff> by_key;
  for (const auto& d : *diff) by_key[BytesToString(d.key)] = d;

  EXPECT_TRUE(by_key.at(MakeKey(10)).left.has_value());
  EXPECT_FALSE(by_key.at(MakeKey(10)).right.has_value());
  EXPECT_FALSE(by_key.at(MakeKey(600)).left.has_value());
  EXPECT_EQ(BytesToString(*by_key.at(MakeKey(600)).right), "added");
  EXPECT_EQ(BytesToString(*by_key.at(MakeKey(200)).right), "changed");
}

TEST(PosTreeDiffTest, IdenticalTreesDiffEmptyAndCheap) {
  MemChunkStore store;
  const TreeConfig cfg = SmallChunks();
  std::map<std::string, std::string> m;
  for (int i = 0; i < 500; ++i) m[MakeKey(i)] = "v";
  auto r = PosTree::BuildFromElements(&store, cfg, ChunkType::kMap,
                                      MapElements(m));
  ASSERT_TRUE(r.ok());
  PosTree a(&store, cfg, ChunkType::kMap, *r);
  PosTree b(&store, cfg, ChunkType::kMap, *r);
  const uint64_t gets_before = store.stats().gets;
  auto diff = DiffSorted(a, b);
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff->empty());
  EXPECT_EQ(store.stats().gets, gets_before) << "equal roots short-circuit";
}

TEST(PosTreeDiffTest, DiffSkipsSharedLeaves) {
  MemChunkStore store;
  const TreeConfig cfg = SmallChunks();
  std::map<std::string, std::string> ma;
  Rng rng(53);
  for (int i = 0; i < 3000; ++i) ma[MakeKey(i)] = rng.String(16);
  auto mb = ma;
  mb[MakeKey(1500)] = "different";

  auto ra = PosTree::BuildFromElements(&store, cfg, ChunkType::kMap,
                                       MapElements(ma));
  auto rb = PosTree::BuildFromElements(&store, cfg, ChunkType::kMap,
                                       MapElements(mb));
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  PosTree ta(&store, cfg, ChunkType::kMap, *ra);
  PosTree tb(&store, cfg, ChunkType::kMap, *rb);

  std::vector<Entry> leaves;
  ASSERT_TRUE(ta.LoadLeafEntries(&leaves).ok());
  const uint64_t gets_before = store.stats().gets;
  auto diff = DiffSorted(ta, tb);
  ASSERT_TRUE(diff.ok());
  ASSERT_EQ(diff->size(), 1u);
  const uint64_t reads = store.stats().gets - gets_before;
  // Reads should be far fewer than decoding all ~leaves of both trees.
  EXPECT_LT(reads, leaves.size()) << "diff must skip identical leaves";
}

TEST(PosTreeDiffTest, ByteDiffFindsChangedRange) {
  MemChunkStore store;
  const TreeConfig cfg = SmallChunks();
  Rng rng(54);
  Bytes a = rng.BytesOf(50000);
  Bytes b = a;
  for (int i = 0; i < 100; ++i) b[20000 + i] ^= 0x5a;

  auto ra = PosTree::BuildFromBytes(&store, cfg, Slice(a));
  auto rb = PosTree::BuildFromBytes(&store, cfg, Slice(b));
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  PosTree ta(&store, cfg, ChunkType::kBlob, *ra);
  PosTree tb(&store, cfg, ChunkType::kBlob, *rb);
  auto d = DiffBytes(ta, tb);
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(d->identical);
  EXPECT_LE(d->prefix, 20000u);
  EXPECT_GE(d->prefix + d->a_mid, 20100u);
  EXPECT_EQ(d->a_mid, d->b_mid);
}

TEST(PosTreeDiffTest, ByteDiffIdentical) {
  MemChunkStore store;
  const TreeConfig cfg = SmallChunks();
  Rng rng(55);
  const Bytes a = rng.BytesOf(10000);
  auto ra = PosTree::BuildFromBytes(&store, cfg, Slice(a));
  ASSERT_TRUE(ra.ok());
  PosTree ta(&store, cfg, ChunkType::kBlob, *ra);
  auto d = DiffBytes(ta, ta);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->identical);
  EXPECT_EQ(d->prefix, 10000u);
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

class MergeSortedTest : public ::testing::Test {
 protected:
  PosTree Build(const std::map<std::string, std::string>& m) {
    auto r = PosTree::BuildFromElements(&store_, cfg_, ChunkType::kMap,
                                        MapElements(m));
    EXPECT_TRUE(r.ok());
    return PosTree(&store_, cfg_, ChunkType::kMap, *r);
  }

  MemChunkStore store_;
  TreeConfig cfg_ = SmallChunks();
};

TEST_F(MergeSortedTest, DisjointEditsMergeCleanly) {
  std::map<std::string, std::string> base;
  for (int i = 0; i < 100; ++i) base[MakeKey(i)] = "base";
  auto left_m = base;
  left_m[MakeKey(5)] = "left-edit";
  left_m[MakeKey(200)] = "left-add";
  auto right_m = base;
  right_m.erase(MakeKey(50));
  right_m[MakeKey(300)] = "right-add";

  auto result = MergeSorted(Build(base), Build(left_m), Build(right_m));
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->clean());

  auto expected = left_m;
  expected.erase(MakeKey(50));
  expected[MakeKey(300)] = "right-add";
  EXPECT_EQ(result->root, Build(expected).root())
      << "clean merge must equal the canonical merged content";
}

TEST_F(MergeSortedTest, SameChangeBothSidesIsClean) {
  std::map<std::string, std::string> base{{"a", "1"}, {"b", "2"}};
  auto left_m = base;
  left_m["a"] = "9";
  auto right_m = base;
  right_m["a"] = "9";
  auto result = MergeSorted(Build(base), Build(left_m), Build(right_m));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->clean());
  EXPECT_EQ(result->root, Build(left_m).root());
}

TEST_F(MergeSortedTest, ConflictingEditsReported) {
  std::map<std::string, std::string> base{{"a", "1"}, {"b", "2"}};
  auto left_m = base;
  left_m["a"] = "left";
  auto right_m = base;
  right_m["a"] = "right";
  auto result = MergeSorted(Build(base), Build(left_m), Build(right_m));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->conflicts.size(), 1u);
  const MergeConflict& c = result->conflicts[0];
  EXPECT_EQ(BytesToString(c.key), "a");
  EXPECT_EQ(BytesToString(*c.base), "1");
  EXPECT_EQ(BytesToString(*c.left), "left");
  EXPECT_EQ(BytesToString(*c.right), "right");
}

TEST_F(MergeSortedTest, EditVersusDeleteConflicts) {
  std::map<std::string, std::string> base{{"a", "1"}};
  auto left_m = base;
  left_m["a"] = "edited";
  std::map<std::string, std::string> right_m;  // deleted "a"
  auto result = MergeSorted(Build(base), Build(left_m), Build(right_m));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->conflicts.size(), 1u);
  EXPECT_FALSE(result->conflicts[0].right.has_value());
}

TEST_F(MergeSortedTest, UnchangedSideFastPath) {
  std::map<std::string, std::string> base{{"a", "1"}};
  auto right_m = base;
  right_m["b"] = "2";
  auto base_t = Build(base);
  auto result = MergeSorted(base_t, Build(base), Build(right_m));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->clean());
  EXPECT_EQ(result->root, Build(right_m).root());
}

TEST(MergeBytesTest, DisjointRangesMerge) {
  MemChunkStore store;
  const TreeConfig cfg = SmallChunks();
  Rng rng(61);
  Bytes base = rng.BytesOf(10000);
  ASSERT_EQ(base.size(), 10000u);

  Bytes left = base;
  std::fill_n(left.begin() + 1000, 50, 'L');
  Bytes right = base;
  std::fill_n(right.begin() + 8000, 50, 'R');

  auto rb = PosTree::BuildFromBytes(&store, cfg, Slice(base));
  auto rl = PosTree::BuildFromBytes(&store, cfg, Slice(left));
  auto rr = PosTree::BuildFromBytes(&store, cfg, Slice(right));
  ASSERT_TRUE(rb.ok());
  ASSERT_TRUE(rl.ok());
  ASSERT_TRUE(rr.ok());

  auto result = MergeBytes(PosTree(&store, cfg, ChunkType::kBlob, *rb),
                           PosTree(&store, cfg, ChunkType::kBlob, *rl),
                           PosTree(&store, cfg, ChunkType::kBlob, *rr));
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->clean());

  Bytes expected = base;
  for (int i = 0; i < 50; ++i) expected[1000 + i] = 'L';
  for (int i = 0; i < 50; ++i) expected[8000 + i] = 'R';
  auto re = PosTree::BuildFromBytes(&store, cfg, Slice(expected));
  ASSERT_TRUE(re.ok());
  EXPECT_EQ(result->root, *re);
}

TEST(MergeBytesTest, OverlappingRangesConflict) {
  MemChunkStore store;
  const TreeConfig cfg = SmallChunks();
  Rng rng(62);
  Bytes base = rng.BytesOf(5000);
  Bytes left = base;
  left[2500] = 'L';
  Bytes right = base;
  right[2500] = 'R';

  auto rb = PosTree::BuildFromBytes(&store, cfg, Slice(base));
  auto rl = PosTree::BuildFromBytes(&store, cfg, Slice(left));
  auto rr = PosTree::BuildFromBytes(&store, cfg, Slice(right));
  ASSERT_TRUE(rb.ok());
  ASSERT_TRUE(rl.ok());
  ASSERT_TRUE(rr.ok());
  auto result = MergeBytes(PosTree(&store, cfg, ChunkType::kBlob, *rb),
                           PosTree(&store, cfg, ChunkType::kBlob, *rl),
                           PosTree(&store, cfg, ChunkType::kBlob, *rr));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->clean());
}

// ---------------------------------------------------------------------------
// Incremental mutations against a build from scratch
// ---------------------------------------------------------------------------
//
// A mutation re-chunks only around its edits, yet history independence
// says its root must equal BuildFrom* over the new content. These sweeps
// run random scripts on all four types, grow every tree from empty past
// three levels and shrink it back to empty, and check the root after
// every step. Config 1 caps nodes at the expected size (size_alpha 1) and
// config 2 uses a short window, so cap cuts and late re-synchronization
// are common there.

TreeConfig OracleConfig(int which) {
  TreeConfig cfg = SmallChunks();
  if (which == 1) cfg.size_alpha = 1;
  if (which == 2) {
    cfg.size_alpha = 2;
    cfg.window = 8;
    cfg.leaf_pattern_bits = 6;
  }
  return cfg;
}

class MutationOracleTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  void SetUp() override {
    cfg_ = OracleConfig(std::get<0>(GetParam()));
    rng_ = Rng(9000 + 16 * std::get<0>(GetParam()) + std::get<1>(GetParam()));
  }

  size_t HeightOf(const PosTree& tree) {
    auto h = tree.Height();
    EXPECT_TRUE(h.ok());
    return h.ok() ? *h : 0;
  }
  // Mostly short values, some longer than a whole leaf.
  std::string Value() {
    return rng_.String(rng_.Bernoulli(0.08) ? 130 + rng_.Uniform(250)
                                            : rng_.Uniform(40));
  }
  void ExpectCanonical(const PosTree& tree, ChunkType type,
                       const std::vector<Element>& content, int step) {
    auto canonical = PosTree::BuildFromElements(&store_, cfg_, type, content);
    ASSERT_TRUE(canonical.ok());
    ASSERT_EQ(tree.root(), *canonical)
        << "step " << step << ", " << content.size() << " elements";
  }

  // Keyed script shared by Map and Set.
  void RunSortedScript(ChunkType type) {
    auto empty = PosTree::EmptyRoot(&store_, type);
    ASSERT_TRUE(empty.ok());
    PosTree tree(&store_, cfg_, type, *empty);
    std::map<std::string, std::string> model;
    const bool is_map = type == ChunkType::kMap;
    auto content = [&] {
      std::vector<Element> out;
      for (const auto& [k, v] : model) {
        out.push_back(MakeElem(k, is_map ? v : ""));
      }
      return out;
    };
    auto any_key = [&] { return MakeKey(rng_.Uniform(60000)); };
    auto erase = [&](const std::string& k) {
      const Status s = tree.Erase(Slice(k));
      ASSERT_EQ(s.ok(), model.erase(k) > 0) << s.ToString();
      if (!s.ok()) {
        ASSERT_TRUE(s.IsNotFound());
      }
    };

    int step = 0;
    while (HeightOf(tree) < 6) {
      const uint64_t op = rng_.Uniform(10);
      if (op < 6) {
        std::vector<Element> batch;
        const uint64_t n = 1 + rng_.Uniform(40);
        for (uint64_t i = 0; i < n; ++i) {
          std::string k = any_key();
          if (!model.empty() && rng_.Bernoulli(0.2)) {
            const long at = static_cast<long>(rng_.Uniform(model.size()));
            k = std::next(model.begin(), at)->first;
          }
          // Now and then an identical overwrite, which must not move the root.
          std::string v = model.count(k) > 0 && rng_.Bernoulli(0.2)
                              ? model[k]
                              : Value();
          batch.push_back(MakeElem(k, is_map ? v : ""));
        }
        for (const Element& e : batch) {
          model[BytesToString(e.key)] = BytesToString(e.value);
        }
        ASSERT_TRUE(tree.UpsertBatch(batch).ok());
      } else if (op < 8) {
        const std::string k = any_key();
        const std::string v = is_map ? Value() : "";
        ASSERT_TRUE(tree.InsertOrAssign(Slice(k), Slice(v)).ok());
        model[k] = v;
      } else {
        ASSERT_NO_FATAL_FAILURE(erase(any_key()));
      }
      ASSERT_NO_FATAL_FAILURE(ExpectCanonical(tree, type, content(), ++step));
    }
    while (!model.empty()) {
      const uint64_t n = 1 + rng_.Uniform(std::min<uint64_t>(30, model.size()));
      for (uint64_t i = 0; i < n && !model.empty(); ++i) {
        const std::string k =
            rng_.Bernoulli(0.05)
                ? any_key()
                : std::next(model.begin(),
                            static_cast<long>(rng_.Uniform(model.size())))
                      ->first;
        ASSERT_NO_FATAL_FAILURE(erase(k));
      }
      ASSERT_NO_FATAL_FAILURE(ExpectCanonical(tree, type, content(), ++step));
    }
    EXPECT_EQ(tree.root(), *empty);
  }

  MemChunkStore store_;
  TreeConfig cfg_;
  Rng rng_{0};
};

TEST_P(MutationOracleTest, MapGrowsPastThreeLevelsAndShrinksToEmpty) {
  RunSortedScript(ChunkType::kMap);
}

TEST_P(MutationOracleTest, SetGrowsPastThreeLevelsAndShrinksToEmpty) {
  RunSortedScript(ChunkType::kSet);
}

TEST_P(MutationOracleTest, ListGrowsPastThreeLevelsAndShrinksToEmpty) {
  auto empty = PosTree::EmptyRoot(&store_, ChunkType::kList);
  ASSERT_TRUE(empty.ok());
  PosTree tree(&store_, cfg_, ChunkType::kList, *empty);
  std::vector<std::string> model;
  auto content = [&] {
    std::vector<Element> out;
    for (const std::string& v : model) out.push_back(MakeElem("", v));
    return out;
  };
  int step = 0;
  bool growing = true;
  while (growing || !model.empty()) {
    if (growing && HeightOf(tree) >= 6) growing = false;
    const uint64_t pos = rng_.Uniform(model.size() + 1);
    uint64_t del = rng_.Uniform(std::min<uint64_t>(60, model.size() - pos) + 1);
    std::vector<Element> ins;
    const uint64_t n_ins = rng_.Uniform(growing ? 80 : 20);
    for (uint64_t i = 0; i < n_ins; ++i) ins.push_back(MakeElem("", Value()));
    if (!growing) del = std::min<uint64_t>(model.size() - pos, del + n_ins + 5);
    ASSERT_TRUE(tree.SpliceElements(pos, del, ins).ok());
    const auto at = model.begin() + static_cast<long>(pos);
    model.erase(at, at + static_cast<long>(del));
    std::vector<std::string> added;
    for (const Element& e : ins) added.push_back(BytesToString(e.value));
    model.insert(model.begin() + static_cast<long>(pos), added.begin(),
                 added.end());
    ASSERT_NO_FATAL_FAILURE(
        ExpectCanonical(tree, ChunkType::kList, content(), ++step));
  }
  EXPECT_EQ(tree.root(), *empty);
}

TEST_P(MutationOracleTest, BlobGrowsPastThreeLevelsAndShrinksToEmpty) {
  auto empty = PosTree::EmptyRoot(&store_, ChunkType::kBlob);
  ASSERT_TRUE(empty.ok());
  PosTree tree(&store_, cfg_, ChunkType::kBlob, *empty);
  Bytes model;
  int step = 0;
  bool growing = true;
  while (growing || !model.empty()) {
    if (growing && HeightOf(tree) >= 6) growing = false;
    const uint64_t pos = rng_.Uniform(model.size() + 1);
    const uint64_t del =
        growing ? rng_.Uniform(std::min<uint64_t>(400, model.size() - pos) + 1)
                : std::min<uint64_t>(model.size() - pos,
                                     1 + rng_.Uniform(4000));
    const Bytes ins = rng_.BytesOf(rng_.Uniform(growing ? 3000 : 200));
    ASSERT_TRUE(tree.SpliceBytes(pos, del, Slice(ins)).ok());
    Bytes next(model.begin(), model.begin() + static_cast<long>(pos));
    next.insert(next.end(), ins.begin(), ins.end());
    next.insert(next.end(), model.begin() + static_cast<long>(pos + del),
                model.end());
    model = std::move(next);
    auto canonical = PosTree::BuildFromBytes(&store_, cfg_, Slice(model));
    ASSERT_TRUE(canonical.ok());
    ASSERT_EQ(tree.root(), *canonical) << "step " << ++step;
    if (!growing && model.size() < 64) {
      ASSERT_TRUE(tree.SpliceBytes(0, model.size(), Slice()).ok());
      model.clear();
    }
  }
  EXPECT_EQ(tree.root(), *empty);
}

INSTANTIATE_TEST_SUITE_P(ConfigsAndSeeds, MutationOracleTest,
                         ::testing::Combine(::testing::Range(0, 3),
                                            ::testing::Range(0, 3)));

// A mutation reads and writes chunks along the paths it touches, not the
// whole index: at most 4 chunk gets+puts per level.
size_t StoreOps(const MemChunkStore& store) {
  const ChunkStoreStats s = store.stats();
  return static_cast<size_t>(s.gets + s.puts);
}

TEST(PosTreeMutationCostTest, MapSetTouchesOnlyItsPath) {
  MemChunkStore store;
  const TreeConfig cfg;
  Rng rng(61);
  std::vector<Element> elems;
  for (int i = 0; i < 100000; ++i) {
    elems.push_back(
        MakeElem(MakeKey(static_cast<uint64_t>(i) * 2), rng.String(24)));
  }
  auto root = PosTree::BuildFromElements(&store, cfg, ChunkType::kMap, elems);
  ASSERT_TRUE(root.ok());
  PosTree tree(&store, cfg, ChunkType::kMap, *root);
  auto height = tree.Height();
  ASSERT_TRUE(height.ok());
  ASSERT_GE(*height, 3u);
  for (int op = 0; op < 40; ++op) {
    // Overwrites and fresh keys between existing ones.
    const std::string key = MakeKey(rng.Uniform(200000));
    const size_t before = StoreOps(store);
    ASSERT_TRUE(tree.InsertOrAssign(Slice(key), Slice(rng.String(24))).ok());
    EXPECT_LE(StoreOps(store) - before, 4 * *height) << "Set " << key;
  }
}

TEST(PosTreeMutationCostTest, BlobSpliceTouchesOnlyItsPath) {
  MemChunkStore store;
  const TreeConfig cfg;
  Rng rng(62);
  const size_t size = size_t{16} << 20;
  auto root = PosTree::BuildFromBytes(&store, cfg, Slice(rng.BytesOf(size)));
  ASSERT_TRUE(root.ok());
  PosTree tree(&store, cfg, ChunkType::kBlob, *root);
  auto height = tree.Height();
  ASSERT_TRUE(height.ok());
  ASSERT_GE(*height, 3u);
  for (int op = 0; op < 20; ++op) {
    const size_t before = StoreOps(store);
    ASSERT_TRUE(tree.SpliceBytes(rng.Uniform(size - 16), 16,
                                 Slice(rng.BytesOf(16)))
                    .ok());
    EXPECT_LE(StoreOps(store) - before, 4 * *height) << "splice " << op;
  }
}

// ---------------------------------------------------------------------------
// Integrity / tamper evidence
// ---------------------------------------------------------------------------

TEST(PosTreeIntegrityTest, VerifyPassesOnHonestStore) {
  MemChunkStore store;
  Rng rng(71);
  auto r = PosTree::BuildFromBytes(&store, SmallChunks(),
                                   Slice(rng.BytesOf(30000)));
  ASSERT_TRUE(r.ok());
  PosTree t(&store, SmallChunks(), ChunkType::kBlob, *r);
  EXPECT_TRUE(t.VerifyIntegrity().ok());
}

TEST(PosTreeIntegrityTest, TamperedChunkDetected) {
  MemChunkStore store;
  Rng rng(72);
  auto r = PosTree::BuildFromBytes(&store, SmallChunks(),
                                   Slice(rng.BytesOf(30000)));
  ASSERT_TRUE(r.ok());
  PosTree t(&store, SmallChunks(), ChunkType::kBlob, *r);

  // A malicious storage provider substitutes different bytes under an
  // existing cid. We need a fresh store to simulate this because the
  // honest one dedups by true cid.
  std::vector<Hash> cids;
  ASSERT_TRUE(t.CollectChunkIds(&cids).ok());
  MemChunkStore evil;
  for (const Hash& cid : cids) {
    Chunk c;
    ASSERT_TRUE(store.Get(cid, &c).ok());
    ASSERT_TRUE(evil.Put(cid, c).ok());
  }
  // Replace the last leaf's content under its old cid.
  const Hash victim = cids.back();
  ASSERT_TRUE(
      evil.Put(victim, Chunk(ChunkType::kBlob, ToBytes("evil bytes"))).ok());

  // Rebuild the mapping in a new store, since MemChunkStore::Put dedups:
  // construct a store that returns tampered content for the victim cid.
  MemChunkStore tampered;
  for (const Hash& cid : cids) {
    if (cid == victim) {
      ASSERT_TRUE(
          tampered.Put(cid, Chunk(ChunkType::kBlob, ToBytes("evil"))).ok());
    } else {
      Chunk c;
      ASSERT_TRUE(store.Get(cid, &c).ok());
      ASSERT_TRUE(tampered.Put(cid, c).ok());
    }
  }
  PosTree t2(&tampered, SmallChunks(), ChunkType::kBlob, *r);
  EXPECT_TRUE(t2.VerifyIntegrity().IsCorruption());
}

}  // namespace
}  // namespace fb
