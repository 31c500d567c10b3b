// MultiSetIndex: the tree index must answer WhichSets bit-identically to a
// brute-force Contains loop over the catalog (same false positives, no
// false negatives) for mixed mergeable/non-mergeable backends, stay correct
// under incremental AddKey/RemoveSet maintenance, and degrade (not fail)
// when geometries refuse to merge. split_block_shbf_m catalogs (one shared
// key probe per probe family) get the same checks over dense per-set-sized,
// sparse tree-forming and mixed-family catalogs.

#include "multiset/multi_set_index.h"

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/filter_registry.h"
#include "api/set_catalog.h"
#include "engine/dynamic_filter.h"

namespace shbf {
namespace {

/// Indexable sets are built SPARSE (64 bits/key, k = 4): a summary node is
/// the bitwise union of its children, so leaves need headroom for their
/// union to stay discriminative (docs/multiset.md, "tree vs scan").
std::unique_ptr<MembershipFilter> MakeFilter(const std::string& name,
                                             size_t keys = 300,
                                             double bits_per_key = 64.0) {
  FilterSpec spec = FilterSpec::ForKeys(keys, bits_per_key, 4);
  spec.max_count = 8;
  std::unique_ptr<MembershipFilter> filter;
  CheckOk(FilterRegistry::Global().Create(name, spec, &filter));
  return filter;
}

/// `num_sets` sets named "set-<i>" with `keys_per_set` keys each; set i uses
/// backends[i % backends.size()].
SetCatalog MakeCatalog(const std::vector<std::string>& backends,
                       size_t num_sets, size_t keys_per_set) {
  SetCatalog catalog;
  for (size_t i = 0; i < num_sets; ++i) {
    auto filter = MakeFilter(backends[i % backends.size()], keys_per_set);
    for (size_t k = 0; k < keys_per_set; ++k) {
      filter->Add("set-" + std::to_string(i) + "-key-" + std::to_string(k));
    }
    CheckOk(catalog.AddSet("set-" + std::to_string(i), std::move(filter)));
  }
  return catalog;
}

std::vector<std::string> MakeQueries(size_t num_sets, size_t keys_per_set) {
  std::vector<std::string> queries;
  for (size_t i = 0; i < num_sets; i += 3) {
    queries.push_back("set-" + std::to_string(i) + "-key-0");
    queries.push_back("set-" + std::to_string(i) + "-key-" +
                      std::to_string(keys_per_set - 1));
  }
  for (int i = 0; i < 500; ++i) {
    queries.push_back("absent-" + std::to_string(i));
  }
  return queries;
}

/// The ground-truth which-sets loop: every live catalog filter, per key.
SetIdBitmap BruteForce(const SetCatalog& catalog, std::string_view key) {
  SetIdBitmap bitmap(catalog.id_bound());
  for (const SetCatalog::SetEntry* entry : catalog.Entries()) {
    if (entry->filter->Contains(key)) bitmap.Set(entry->id);
  }
  return bitmap;
}

TEST(MultiSetIndexTest, BitIdenticalToBruteForceOverMixedBackends) {
  // Mergeable (shbf_m, bloom — two tree groups) interleaved with
  // non-mergeable (cuckoo, shbf_x — scan fallback).
  SetCatalog catalog =
      MakeCatalog({"shbf_m", "shbf_m", "bloom", "cuckoo", "shbf_x"}, 20, 80);
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());

  const MultiSetIndex::Stats stats = index->stats();
  EXPECT_EQ(stats.sets, 20u);
  EXPECT_GT(stats.summary_nodes, 0u);
  EXPECT_EQ(stats.trees, 2u) << "one tree per mergeable backend";
  EXPECT_EQ(stats.scan_leaves, 8u) << "cuckoo + shbf_x sets scan";
  EXPECT_EQ(stats.tree_leaves, 12u);

  const std::vector<std::string> queries = MakeQueries(20, 80);
  std::vector<SetIdBitmap> batched;
  index->WhichSetsBatch(queries, &batched);
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    const SetIdBitmap want = BruteForce(catalog, queries[q]);
    EXPECT_EQ(batched[q], want) << "batch diverges at query " << q;
    SetIdBitmap single;
    index->WhichSets(queries[q], &single);
    EXPECT_EQ(single, want) << "single-key diverges at query " << q;
  }
}

TEST(MultiSetIndexTest, LargeBatchOverTreeAndScanLeavesMatchesBruteForce) {
  // A frame-sized batch (every member key plus absent ones, > 1024 keys)
  // over two trees and a scan list: the batch answers on the calling thread
  // must match brute force, through both overloads, and consult exactly as
  // many filters as the per-key descent does.
  SetCatalog catalog =
      MakeCatalog({"shbf_m", "shbf_m", "bloom", "cuckoo", "shbf_x"}, 20, 80);
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  ASSERT_EQ(index->stats().trees, 2u);
  ASSERT_EQ(index->stats().scan_leaves, 8u);

  std::vector<std::string> queries;
  for (size_t i = 0; i < 20; ++i) {
    for (size_t k = 0; k < 80; ++k) {
      queries.push_back("set-" + std::to_string(i) + "-key-" +
                        std::to_string(k));
    }
  }
  for (int i = 0; i < 600; ++i) queries.push_back("absent-" + std::to_string(i));
  ASSERT_GE(queries.size(), 1024u);
  const std::vector<std::string_view> views(queries.begin(), queries.end());

  const uint64_t before = index->stats().probes;
  std::vector<SetIdBitmap> batched;
  index->WhichSetsBatch(queries, &batched);
  const uint64_t batch_probes = index->stats().probes - before;
  std::vector<SetIdBitmap> from_views;
  index->WhichSetsBatch(views, &from_views);
  ASSERT_EQ(batched.size(), queries.size());
  EXPECT_EQ(from_views, batched);

  const uint64_t per_key_before = index->stats().probes;
  for (size_t q = 0; q < queries.size(); ++q) {
    const SetIdBitmap want = BruteForce(catalog, queries[q]);
    ASSERT_EQ(batched[q], want) << "batch diverges at query " << q;
    SetIdBitmap single;
    index->WhichSets(queries[q], &single);
    ASSERT_EQ(single, want) << "single-key diverges at query " << q;
  }
  EXPECT_EQ(index->stats().probes - per_key_before, batch_probes);
}

TEST(MultiSetIndexTest, ForceScanMatchesTreeAnswers) {
  SetCatalog catalog = MakeCatalog({"shbf_m"}, 32, 60);
  std::unique_ptr<MultiSetIndex> tree;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &tree).ok());
  MultiSetIndexOptions scan_options;
  scan_options.force_scan = true;
  std::unique_ptr<MultiSetIndex> scan;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, scan_options, &scan).ok());
  EXPECT_EQ(scan->stats().summary_nodes, 0u);

  const std::vector<std::string> queries = MakeQueries(32, 60);
  std::vector<SetIdBitmap> tree_answers;
  std::vector<SetIdBitmap> scan_answers;
  tree->WhichSetsBatch(queries, &tree_answers);
  scan->WhichSetsBatch(queries, &scan_answers);
  EXPECT_EQ(tree_answers, scan_answers);

  // The whole point: the tree consults far fewer filters on this
  // absent-heavy stream than the scan does.
  EXPECT_LT(tree->stats().probes, scan->stats().probes / 2);
}

TEST(MultiSetIndexTest, DeepTreeStaysCorrect) {
  // branching 2 over 33 sets: 6+ levels, lone-tail promotions included.
  SetCatalog catalog = MakeCatalog({"shbf_m"}, 33, 40);
  MultiSetIndexOptions options;
  options.branching = 2;
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, options, &index).ok());
  EXPECT_GE(index->stats().levels, 6u);
  for (const auto& key : MakeQueries(33, 40)) {
    SetIdBitmap got;
    index->WhichSets(key, &got);
    EXPECT_EQ(got, BruteForce(catalog, key));
  }
}

TEST(MultiSetIndexTest, IncrementalAddKeyMaintainsSummaries) {
  SetCatalog catalog = MakeCatalog({"shbf_m", "cuckoo"}, 16, 50);
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());

  // New keys added through the index must be reported immediately — for a
  // tree leaf that means every summary on the root path absorbed them.
  for (uint32_t id : {0u, 1u, 7u}) {  // shbf_m and cuckoo leaves
    const std::string key = "added-later-" + std::to_string(id);
    ASSERT_TRUE(index->AddKey(id, key).ok());
    index->PrepareForConstReads();
    SetIdBitmap got;
    index->WhichSets(key, &got);
    EXPECT_TRUE(got.Test(id)) << "set " << id << " lost an incremental add";
    EXPECT_EQ(got, BruteForce(catalog, key));
  }
  EXPECT_EQ(index->AddKey(999, "x").code(), Status::Code::kNotFound);

  // Batch maintenance entry point.
  ASSERT_TRUE(index->AddKeys(3, {"bulk-1", "bulk-2"}).ok());
  index->PrepareForConstReads();
  SetIdBitmap got;
  index->WhichSets("bulk-2", &got);
  EXPECT_TRUE(got.Test(3));
}

TEST(MultiSetIndexTest, RemoveSetStopsReportingWithoutDisturbingOthers) {
  SetCatalog catalog = MakeCatalog({"shbf_m", "cuckoo"}, 12, 50);
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());

  // Drop one tree leaf (id 2) and one scan leaf (id 5): index first, then
  // the catalog frees the filters.
  ASSERT_TRUE(index->RemoveSet(2).ok());
  ASSERT_TRUE(index->RemoveSet(5).ok());
  ASSERT_TRUE(catalog.DropSet("set-2").ok());
  ASSERT_TRUE(catalog.DropSet("set-5").ok());
  EXPECT_EQ(index->RemoveSet(2).code(), Status::Code::kNotFound);
  EXPECT_EQ(index->stats().sets, 10u);

  for (const auto& key : MakeQueries(12, 50)) {
    SetIdBitmap got;
    index->WhichSets(key, &got);
    EXPECT_FALSE(got.Test(2));
    EXPECT_FALSE(got.Test(5));
    EXPECT_EQ(got, BruteForce(catalog, key)) << key;
  }
}

TEST(MultiSetIndexTest, MismatchedGeometrySetsDemoteToScan) {
  // Same backend name, incompatible geometry: MergeFrom refuses, the index
  // demotes the odd ones out to the scan list and stays bit-identical.
  SetCatalog catalog;
  for (int i = 0; i < 6; ++i) {
    const bool big = i >= 4;
    auto filter = MakeFilter("shbf_m", big ? 5000 : 200);
    for (int k = 0; k < 100; ++k) {
      filter->Add("set-" + std::to_string(i) + "-key-" + std::to_string(k));
    }
    CheckOk(catalog.AddSet("set-" + std::to_string(i), std::move(filter)));
  }
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  EXPECT_GT(index->stats().scan_leaves, 0u);
  for (int i = 0; i < 6; ++i) {
    for (int k : {0, 99}) {
      const std::string key =
          "set-" + std::to_string(i) + "-key-" + std::to_string(k);
      SetIdBitmap got;
      index->WhichSets(key, &got);
      EXPECT_EQ(got, BruteForce(catalog, key)) << key;
    }
  }
}

TEST(MultiSetIndexTest, GeometryClustersThatCannotMergeBecomeSeparateRoots) {
  // One backend name, two geometry clusters big enough that EACH builds
  // its own summary; the summaries refuse to merge at the next level and
  // must be finalized as separate roots — build succeeds, answers stay
  // bit-identical (regression: this used to fail the whole Build with
  // kInternal).
  SetCatalog catalog;
  for (int i = 0; i < 6; ++i) {
    const bool big = i >= 4;
    auto filter = MakeFilter("shbf_m", big ? 5000 : 200);
    for (int k = 0; k < 100; ++k) {
      filter->Add("set-" + std::to_string(i) + "-key-" + std::to_string(k));
    }
    CheckOk(catalog.AddSet("set-" + std::to_string(i), std::move(filter)));
  }
  MultiSetIndexOptions options;
  options.branching = 2;  // both clusters aggregate before they collide
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, options, &index).ok());
  const MultiSetIndex::Stats stats = index->stats();
  EXPECT_GE(stats.trees, 2u) << "the clusters must index independently";
  EXPECT_EQ(stats.scan_leaves, 0u) << "no set should fall back to scan";
  for (int i = 0; i < 6; ++i) {
    for (int k : {0, 99}) {
      const std::string key =
          "set-" + std::to_string(i) + "-key-" + std::to_string(k);
      SetIdBitmap got;
      index->WhichSets(key, &got);
      EXPECT_EQ(got, BruteForce(catalog, key)) << key;
    }
  }
}

/// Checks WhichSets and both WhichSetsBatch overloads against BruteForce
/// for every query, and that a batch consults exactly as many filters as
/// the same keys asked one at a time.
void ExpectAnswersMatchBruteForce(const MultiSetIndex& index,
                                  const SetCatalog& catalog,
                                  const std::vector<std::string>& queries) {
  const std::vector<std::string_view> views(queries.begin(), queries.end());
  const uint64_t before = index.stats().probes;
  std::vector<SetIdBitmap> batched;
  index.WhichSetsBatch(queries, &batched);
  const uint64_t batch_probes = index.stats().probes - before;
  std::vector<SetIdBitmap> from_views;
  index.WhichSetsBatch(views, &from_views);
  ASSERT_EQ(batched.size(), queries.size());
  ASSERT_EQ(from_views, batched);

  const uint64_t single_before = index.stats().probes;
  for (size_t q = 0; q < queries.size(); ++q) {
    const SetIdBitmap want = BruteForce(catalog, queries[q]);
    ASSERT_EQ(batched[q], want) << "batch diverges at " << queries[q];
    SetIdBitmap single;
    index.WhichSets(queries[q], &single);
    ASSERT_EQ(single, want) << "single-key diverges at " << queries[q];
  }
  EXPECT_EQ(index.stats().probes - single_before, batch_probes);
}

/// Adds a fresh key to three live sets through the index, drops two sets
/// (index first, then the catalog), and re-checks every answer.
void ExpectMaintenanceKeepsAnswers(MultiSetIndex* index, SetCatalog* catalog,
                                   std::vector<std::string> queries) {
  const std::vector<const SetCatalog::SetEntry*> entries = catalog->Entries();
  ASSERT_GE(entries.size(), 4u);
  for (size_t e : {size_t{0}, size_t{1}, entries.size() - 1}) {
    const std::string key = "added-later-" + std::to_string(entries[e]->id);
    ASSERT_TRUE(index->AddKey(entries[e]->id, key).ok());
    queries.push_back(key);
  }
  index->PrepareForConstReads();
  ExpectAnswersMatchBruteForce(*index, *catalog, queries);

  for (size_t e : {size_t{1}, entries.size() - 2}) {
    const std::string name = entries[e]->name;
    ASSERT_TRUE(index->RemoveSet(entries[e]->id).ok());
    ASSERT_TRUE(catalog->DropSet(name).ok());
  }
  ExpectAnswersMatchBruteForce(*index, *catalog, queries);
}

/// Number of distinct filter sizes in `catalog`.
size_t DistinctSizes(const SetCatalog& catalog) {
  std::vector<size_t> sizes;
  for (const SetCatalog::SetEntry* entry : catalog.Entries()) {
    sizes.push_back(entry->filter->memory_bytes());
  }
  std::sort(sizes.begin(), sizes.end());
  return std::unique(sizes.begin(), sizes.end()) - sizes.begin();
}

TEST(MultiSetIndexTest, DenseSplitBlockCatalogOfManyGeometriesSharesOneProbe) {
  // The perfbench wire_mixed recipe, scaled down: every key joins one
  // random set, a quarter of them a second; each set is sized from its
  // own member count at 12 bits/key, k = 8. The sizes differ, so merges
  // refuse and most sets scan — but all share one probe family.
  constexpr size_t kSets = 64;
  constexpr size_t kKeys = kSets * 256;
  std::mt19937_64 rng(0xd15e);
  std::vector<std::vector<std::string>> members(kSets);
  for (size_t i = 0; i < kKeys; ++i) {
    const std::string key = "dense-key-" + std::to_string(i);
    const size_t primary = rng() % kSets;
    members[primary].push_back(key);
    if (rng() % 4 == 0) {
      members[(primary + 1 + rng() % (kSets - 1)) % kSets].push_back(key);
    }
  }
  SetCatalog catalog;
  for (size_t s = 0; s < kSets; ++s) {
    FilterSpec spec = FilterSpec::ForKeys(members[s].size(), 12.0, 8);
    std::unique_ptr<MembershipFilter> filter;
    CheckOk(FilterRegistry::Global().Create("split_block_shbf_m", spec,
                                            &filter));
    for (const std::string& key : members[s]) filter->Add(key);
    CheckOk(catalog.AddSet("set-" + std::to_string(s), std::move(filter)));
  }
  ASSERT_GT(DistinctSizes(catalog), 1u);
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  EXPECT_EQ(index->stats().probe_families, 1u);
  EXPECT_GT(index->stats().scan_leaves, 0u);

  std::vector<std::string> queries;
  for (size_t i = 0; i < kKeys; i += 37) {
    queries.push_back("dense-key-" + std::to_string(i));
  }
  for (int i = 0; i < 300; ++i) queries.push_back("absent-" + std::to_string(i));
  ExpectAnswersMatchBruteForce(*index, catalog, queries);
  ExpectMaintenanceKeepsAnswers(index.get(), &catalog, queries);
}

TEST(MultiSetIndexTest, SparseSplitBlockCatalogBuildsATreeOnSharedProbes) {
  SetCatalog catalog = MakeCatalog({"split_block_shbf_m"}, 40, 60);
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  const MultiSetIndex::Stats stats = index->stats();
  EXPECT_GT(stats.summary_nodes, 0u);
  EXPECT_EQ(stats.scan_leaves, 0u);
  EXPECT_EQ(stats.probe_families, 1u) << "summaries join their leaves' family";

  const std::vector<std::string> queries = MakeQueries(40, 60);
  ExpectAnswersMatchBruteForce(*index, catalog, queries);

  // The tree still prunes: far fewer filters consulted than a scan.
  MultiSetIndexOptions scan_options;
  scan_options.force_scan = true;
  std::unique_ptr<MultiSetIndex> scan;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, scan_options, &scan).ok());
  const uint64_t tree_before = index->stats().probes;
  std::vector<SetIdBitmap> tree_answers;
  std::vector<SetIdBitmap> scan_answers;
  index->WhichSetsBatch(queries, &tree_answers);
  scan->WhichSetsBatch(queries, &scan_answers);
  EXPECT_EQ(tree_answers, scan_answers);
  EXPECT_LT(index->stats().probes - tree_before, scan->stats().probes / 2);

  ExpectMaintenanceKeepsAnswers(index.get(), &catalog, queries);
}

TEST(MultiSetIndexTest, TwoSplitBlockFamiliesAndACuckooScanLeaf) {
  // Same backend name, two seeds (two probe families that refuse to
  // merge), plus non-mergeable cuckoo sets on the engine path. The last
  // set is a DynamicFilter over split_block_shbf_m: it offers the shared
  // probe at Build, and must leave it once AddKey puts keys in its delta.
  SetCatalog catalog;
  for (size_t i = 0; i < 19; ++i) {
    const bool cuckoo = i % 6 == 5;
    FilterSpec spec = FilterSpec::ForKeys(60, 64.0, 4);
    spec.max_count = 8;
    spec.seed = i % 2 == 0 ? 0x1111 : 0x2222;
    if (i == 18) spec.delta_capacity = 1000;
    std::unique_ptr<MembershipFilter> filter;
    CheckOk(FilterRegistry::Global().Create(
        cuckoo ? "cuckoo" : "split_block_shbf_m", spec, &filter));
    for (size_t k = 0; k < 60; ++k) {
      filter->Add("set-" + std::to_string(i) + "-key-" + std::to_string(k));
    }
    if (auto* dynamic = dynamic_cast<DynamicFilter*>(filter.get())) {
      dynamic->Flush();  // empty delta: the fast path is offered at Build
      ASSERT_EQ(filter->batch_fast_path().kind,
                BatchFastPath::Kind::kSplitBlockShbfM);
    }
    CheckOk(catalog.AddSet("set-" + std::to_string(i), std::move(filter)));
  }
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  EXPECT_EQ(index->stats().probe_families, 2u);
  EXPECT_GT(index->stats().scan_leaves, 0u);

  const std::vector<std::string> queries = MakeQueries(19, 60);
  ExpectAnswersMatchBruteForce(*index, catalog, queries);
  ExpectMaintenanceKeepsAnswers(index.get(), &catalog, queries);
}

TEST(MultiSetIndexTest, BuildRejectsBadInputs) {
  SetCatalog empty;
  std::unique_ptr<MultiSetIndex> index;
  EXPECT_EQ(MultiSetIndex::Build(&empty, {}, &index).code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(MultiSetIndex::Build(nullptr, {}, &index).code(),
            Status::Code::kFailedPrecondition);
  SetCatalog catalog = MakeCatalog({"shbf_m"}, 4, 20);
  MultiSetIndexOptions options;
  options.branching = 1;
  EXPECT_EQ(MultiSetIndex::Build(&catalog, options, &index).code(),
            Status::Code::kInvalidArgument);
}

TEST(MultiSetIndexTest, SetIdBitmapBasics) {
  SetIdBitmap bitmap(130);
  EXPECT_EQ(bitmap.Count(), 0u);
  bitmap.Set(0);
  bitmap.Set(64);
  bitmap.Set(129);
  EXPECT_TRUE(bitmap.Test(64));
  EXPECT_FALSE(bitmap.Test(63));
  EXPECT_FALSE(bitmap.Test(500));  // out of universe = absent, not UB
  EXPECT_EQ(bitmap.Count(), 3u);
  EXPECT_EQ(bitmap.ToIds(), (std::vector<uint32_t>{0, 64, 129}));
  SetIdBitmap other(130);
  EXPECT_NE(bitmap, other);
  other.Set(0);
  other.Set(64);
  other.Set(129);
  EXPECT_EQ(bitmap, other);
  bitmap.ClearAll();
  EXPECT_EQ(bitmap.Count(), 0u);
}

}  // namespace
}  // namespace shbf
