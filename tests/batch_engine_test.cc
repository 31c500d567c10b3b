// Engine-vs-per-key differential: BatchQueryEngine must be bit-identical to
// the scalar interface for every registered filter — the fast paths are an
// execution strategy, never a semantic change. Also pins down that the six
// probe-protocol structures actually expose their fast path (a silently
// dropped fast path would keep answers right and throughput wrong), and
// that the string_view batch overloads answer like the string ones.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/filter_registry.h"
#include "api/set_catalog.h"
#include "core/cpu_features.h"
#include "engine/batch_query_engine.h"
#include "multiset/multi_set_index.h"
#include "shbf/shbf_multiplicity.h"
#include "trace/trace_generator.h"

namespace shbf {
namespace {

constexpr size_t kNumKeys = 3000;

FilterSpec EngineSpec(uint64_t seed) {
  FilterSpec spec;
  spec.num_cells = 12 * kNumKeys;
  spec.num_hashes = 8;
  spec.expected_keys = kNumKeys;
  spec.max_count = 8;
  spec.seed = seed;
  return spec;
}

std::vector<std::string> Universe(uint64_t seed) {
  TraceGenerator gen(seed);
  return gen.DistinctFlowKeys(2 * kNumKeys);  // half members, half absent
}

// The bit-identity acceptance gate: for every registered filter, the
// engine's batched answers must equal the per-key loop at every group size
// and under both dispatch modes — native SIMD and SHBF_FORCE_SCALAR-
// equivalent scalar demotion.
TEST(BatchEngineTest, ContainsBatchMatchesPerKeyForEveryRegisteredFilter) {
  const auto universe = Universe(0xba7c4);
  const auto& registry = FilterRegistry::Global();
  for (const auto& name : registry.Names()) {
    SCOPED_TRACE(name);
    std::unique_ptr<MembershipFilter> filter;
    ASSERT_TRUE(registry.Create(name, EngineSpec(0xba7c4), &filter).ok());
    for (size_t i = 0; i < kNumKeys; ++i) filter->Add(universe[i]);
    std::vector<uint8_t> expected(universe.size());
    for (size_t i = 0; i < universe.size(); ++i) {
      expected[i] = filter->Contains(universe[i]) ? 1 : 0;
    }

    for (bool scalar : {false, true}) {
      SCOPED_TRACE(scalar ? "scalar" : "native");
      simd::ForceScalar(scalar);
      // Three group sizes: degenerate, odd, and larger than most groups.
      for (size_t batch_size : {size_t{1}, size_t{7}, size_t{64}}) {
        SCOPED_TRACE(batch_size);
        BatchQueryEngine engine({.batch_size = batch_size});
        std::vector<uint8_t> batched;
        engine.ContainsBatch(*filter, universe, &batched);
        ASSERT_EQ(batched, expected);
      }
    }
    simd::ForceScalar(false);
  }
}

// The view overloads exist to kill survivor-key copies; they must not be
// able to change a single answer. One sweep pins engine, sharded wrapper
// and multi-set index view paths against their string counterparts.
TEST(BatchEngineTest, StringViewBatchOverloadsMatchStringPaths) {
  const auto universe = Universe(0x71e11);
  std::vector<std::string_view> views(universe.begin(), universe.end());
  const auto& registry = FilterRegistry::Global();

  // Engine: every registered filter, both key containers.
  BatchQueryEngine engine({.batch_size = 32});
  for (const auto& name : registry.Names()) {
    SCOPED_TRACE(name);
    std::unique_ptr<MembershipFilter> filter;
    ASSERT_TRUE(registry.Create(name, EngineSpec(0x71e11), &filter).ok());
    for (size_t i = 0; i < kNumKeys; ++i) filter->Add(universe[i]);
    std::vector<uint8_t> by_string, by_view;
    engine.ContainsBatch(*filter, universe, &by_string);
    engine.ContainsBatch(*filter, views, &by_view);
    ASSERT_EQ(by_view, by_string);
  }

  // Sharded wrapper: the view overload partitions and scatters like the
  // string one.
  FilterSpec sharded_spec = EngineSpec(0x71e11);
  sharded_spec.shards = 4;
  std::unique_ptr<MembershipFilter> sharded;
  ASSERT_TRUE(
      registry.Create("split_block_shbf_m", sharded_spec, &sharded).ok());
  for (size_t i = 0; i < kNumKeys; ++i) sharded->Add(universe[i]);
  std::vector<uint8_t> by_string, by_view;
  sharded->ContainsBatch(universe, &by_string);
  sharded->ContainsBatch(views, &by_view);
  ASSERT_EQ(by_view, by_string);

  // Multi-set index: the view descent must produce the same bitmaps.
  SetCatalog catalog;
  for (int s = 0; s < 6; ++s) {
    std::unique_ptr<MembershipFilter> member;
    FilterSpec spec = FilterSpec::ForKeys(500, 64.0, 4);
    spec.max_count = 8;
    ASSERT_TRUE(registry.Create(s % 2 ? "bloom" : "shbf_m", spec, &member)
                    .ok());
    for (int k = 0; k < 500; ++k) {
      member->Add(universe[(s * 500 + k) % universe.size()]);
    }
    ASSERT_TRUE(
        catalog.AddSet("set-" + std::to_string(s), std::move(member)).ok());
  }
  std::unique_ptr<MultiSetIndex> index;
  ASSERT_TRUE(MultiSetIndex::Build(&catalog, {}, &index).ok());
  std::vector<SetIdBitmap> string_maps, view_maps;
  index->WhichSetsBatch(universe, &string_maps);
  index->WhichSetsBatch(views, &view_maps);
  ASSERT_EQ(view_maps.size(), string_maps.size());
  for (size_t i = 0; i < string_maps.size(); ++i) {
    ASSERT_EQ(view_maps[i], string_maps[i]) << "key " << i;
  }
}

TEST(BatchEngineTest, ProbeProtocolFiltersExposeTheirFastPath) {
  const auto& registry = FilterRegistry::Global();
  const struct {
    const char* name;
    BatchFastPath::Kind kind;
  } expected[] = {
      {"shbf_m", BatchFastPath::Kind::kShbfM},
      {"bloom", BatchFastPath::Kind::kBloom},
      {"shbf_x", BatchFastPath::Kind::kShbfX},
      {"shbf_a", BatchFastPath::Kind::kShbfA},
      {"split_block_bloom", BatchFastPath::Kind::kSplitBlockBloom},
      {"split_block_shbf_m", BatchFastPath::Kind::kSplitBlockShbfM},
  };
  for (const auto& [name, kind] : expected) {
    SCOPED_TRACE(name);
    std::unique_ptr<MembershipFilter> filter;
    ASSERT_TRUE(registry.Create(name, EngineSpec(1), &filter).ok());
    const BatchFastPath fp = filter->batch_fast_path();
    EXPECT_EQ(fp.kind, kind);
    EXPECT_NE(fp.impl, nullptr);
  }
}

TEST(BatchEngineTest, QueryCountBatchMatchesPerKeyForMultiplicityFilters) {
  const auto universe = Universe(0xc0117);
  const auto& registry = FilterRegistry::Global();
  for (const auto& name :
       registry.Names(FilterFamily::kMultiplicity)) {
    SCOPED_TRACE(name);
    std::unique_ptr<MultiplicityFilter> filter;
    ASSERT_TRUE(
        registry.CreateMultiplicity(name, EngineSpec(0xc0117), &filter).ok());
    for (size_t i = 0; i < kNumKeys; ++i) {
      const uint32_t count = 1 + i % 8;  // multiplicities 1..8
      for (uint32_t c = 0; c < count; ++c) filter->Add(universe[i]);
    }
    BatchQueryEngine engine({.batch_size = 16});
    std::vector<uint64_t> batched;
    engine.QueryCountBatch(*filter, universe, &batched);
    ASSERT_EQ(batched.size(), universe.size());
    for (size_t i = 0; i < universe.size(); ++i) {
      ASSERT_EQ(batched[i], filter->QueryCount(universe[i]))
          << "divergence at key " << i;
    }
    // The view-keyed overload (the server's QUERY path) answers the same.
    const std::vector<std::string_view> views(universe.begin(),
                                              universe.end());
    std::vector<uint64_t> from_views;
    engine.QueryCountBatch(*filter, views, &from_views);
    EXPECT_EQ(from_views, batched);
  }
}

TEST(BatchEngineTest, QueryBatchMatchesPerKeyForAssociationFilters) {
  const auto universe = Universe(0xa550c);
  const auto& registry = FilterRegistry::Global();
  for (const auto& name : registry.Names(FilterFamily::kAssociation)) {
    SCOPED_TRACE(name);
    std::unique_ptr<AssociationFilter> filter;
    ASSERT_TRUE(
        registry.CreateAssociation(name, EngineSpec(0xa550c), &filter).ok());
    // Overlapping thirds: S1-only, intersection, S2-only.
    for (size_t i = 0; i < kNumKeys; ++i) {
      if (i % 3 != 2) filter->AddToS1(universe[i]);
      if (i % 3 != 0) filter->AddToS2(universe[i]);
    }
    BatchQueryEngine engine({.batch_size = 16});
    std::vector<AssociationOutcome> batched;
    engine.QueryBatch(*filter, universe, &batched);
    ASSERT_EQ(batched.size(), universe.size());
    for (size_t i = 0; i < universe.size(); ++i) {
      ASSERT_EQ(batched[i], filter->Query(universe[i]))
          << "divergence at key " << i;
    }
  }
}

TEST(BatchEngineTest, ConcreteShbfXOverloadHonoursReportPolicy) {
  const auto universe = Universe(0x5bf01);
  ShbfX filter({.num_bits = 12 * kNumKeys, .num_hashes = 8, .max_count = 8});
  for (size_t i = 0; i < kNumKeys; ++i) {
    filter.InsertWithCount(universe[i], 1 + i % 8);
  }
  BatchQueryEngine engine({.batch_size = 32});
  for (auto policy : {MultiplicityReportPolicy::kLargest,
                      MultiplicityReportPolicy::kSmallest}) {
    std::vector<uint32_t> batched;
    engine.QueryCountBatch(filter, universe, policy, &batched);
    ASSERT_EQ(batched.size(), universe.size());
    for (size_t i = 0; i < universe.size(); ++i) {
      ASSERT_EQ(batched[i], filter.QueryCount(universe[i], policy));
    }
  }
}

TEST(BatchEngineTest, EmptyKeysAndStaleResultsAreHandled) {
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(
      FilterRegistry::Global().Create("shbf_m", EngineSpec(9), &filter).ok());
  filter->Add("present");
  BatchQueryEngine engine;
  std::vector<uint8_t> results(17, 255);  // stale, oversized
  engine.ContainsBatch(*filter, std::vector<std::string>{}, &results);
  EXPECT_TRUE(results.empty());
  std::vector<std::string> keys = {"present", "absent-xyzzy"};
  engine.ContainsBatch(*filter, keys, &results);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], 1);
}

}  // namespace
}  // namespace shbf
