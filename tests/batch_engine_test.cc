// Engine-vs-per-key differential: BatchQueryEngine must be bit-identical to
// the scalar interface for every registered filter — the probe loop is an
// execution strategy, never a semantic change. Also pins down that the six
// probe-protocol structures actually run their probe loop (a silently
// dropped loop would keep answers right and throughput wrong), that a k
// past the loop's bound answers per key through every wrapper, and that
// the string_view batch overloads answer like the string ones.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/filter_registry.h"
#include "api/set_catalog.h"
#include "core/cpu_features.h"
#include "engine/auto_scaling_filter.h"
#include "engine/batch_query_engine.h"
#include "engine/dynamic_filter.h"
#include "multiset/multi_set_index.h"
#include "obs/metrics.h"
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

// Per-key answers of `filter` over `keys`.
std::vector<uint8_t> PerKey(const MembershipFilter& filter,
                            const std::vector<std::string>& keys) {
  std::vector<uint8_t> expected(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    expected[i] = filter.Contains(keys[i]) ? 1 : 0;
  }
  return expected;
}

// Every batch entry point — the engine's string and view overloads at three
// group sizes and the filter's own two ContainsBatch overloads — must equal
// the per-key loop.
void ExpectBatchesMatchPerKey(const MembershipFilter& filter,
                              const std::vector<std::string>& keys) {
  const std::vector<uint8_t> expected = PerKey(filter, keys);
  const std::vector<std::string_view> views(keys.begin(), keys.end());
  std::vector<uint8_t> got;
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{64}}) {
    SCOPED_TRACE(batch_size);
    BatchQueryEngine engine({.batch_size = batch_size});
    engine.ContainsBatch(filter, keys, &got);
    ASSERT_EQ(got, expected);
    engine.ContainsBatch(filter, views, &got);
    ASSERT_EQ(got, expected);
  }
  filter.ContainsBatch(keys, &got);
  ASSERT_EQ(got, expected);
  filter.ContainsBatch(views, &got);
  ASSERT_EQ(got, expected);
}

// A spec can ask for more hashes than the probe loop's arrays hold. The
// filter's batch hook must then decline, so every path answers per key
// and none reaches the concrete ContainsBatch, whose k bound CHECK-aborts.
TEST(BatchEngineTest, OverBoundKAnswersPerKeyThroughEveryWrapper) {
  const auto universe = Universe(0x0b0d);
  const auto& registry = FilterRegistry::Global();
  const struct {
    const char* name;
    uint32_t k;
  } cases[] = {{"shbf_m", 66}, {"bloom", 65}};
  for (const auto& [name, k] : cases) {
    SCOPED_TRACE(name);
    FilterSpec spec = EngineSpec(0x0b0d);
    spec.num_hashes = k;
    std::unique_ptr<MembershipFilter> plain;
    ASSERT_TRUE(registry.Create(name, spec, &plain).ok());
    for (size_t i = 0; i < kNumKeys; ++i) plain->Add(universe[i]);
    {
      SCOPED_TRACE("plain");
      ExpectBatchesMatchPerKey(*plain, universe);
    }
    {
      SCOPED_TRACE("mapped");
      const std::string path =
          ::testing::TempDir() + "/over_bound_k_" + name + ".shbi";
      ASSERT_TRUE(registry.SaveMapped(*plain, path).ok());
      std::unique_ptr<MembershipFilter> mapped;
      ASSERT_TRUE(registry.OpenMapped(path, &mapped).ok());
      ExpectBatchesMatchPerKey(*mapped, universe);
      EXPECT_EQ(PerKey(*mapped, universe), PerKey(*plain, universe));
      std::remove(path.c_str());
    }
    {
      SCOPED_TRACE("sharded");
      FilterSpec sharded_spec = spec;
      sharded_spec.shards = 4;
      std::unique_ptr<MembershipFilter> sharded;
      ASSERT_TRUE(registry.Create(name, sharded_spec, &sharded).ok());
      for (size_t i = 0; i < kNumKeys; ++i) sharded->Add(universe[i]);
      ExpectBatchesMatchPerKey(*sharded, universe);
    }
    {
      SCOPED_TRACE("dynamic");
      FilterSpec dynamic_spec = spec;
      dynamic_spec.delta_capacity = 2 * kNumKeys;  // no fold while adding
      std::unique_ptr<MembershipFilter> filter;
      ASSERT_TRUE(registry.Create(name, dynamic_spec, &filter).ok());
      for (size_t i = 0; i < kNumKeys; ++i) filter->Add(universe[i]);
      ExpectBatchesMatchPerKey(*filter, universe);  // delta in use
      auto* dynamic = dynamic_cast<DynamicFilter*>(filter.get());
      ASSERT_NE(dynamic, nullptr);
      dynamic->Flush();
      ExpectBatchesMatchPerKey(*filter, universe);  // active side only
    }
  }
}

// The dynamic and auto-scaling wrappers answer batches through their
// components' ContainsBatch, which runs the same probe loop as the engine.
// Over the split-block layouts that loop caps its group and skips the
// second prefetch; neither may change an answer.
TEST(BatchEngineTest, DynamicAndScalingSplitBlockBatchesMatchPerKey) {
  const auto universe = Universe(0xd1a9);
  const auto& registry = FilterRegistry::Global();
  for (const char* name : {"split_block_bloom", "split_block_shbf_m"}) {
    SCOPED_TRACE(name);
    {
      SCOPED_TRACE("dynamic");
      FilterSpec spec = EngineSpec(0xd1a9);
      spec.delta_capacity = 2 * kNumKeys;
      std::unique_ptr<MembershipFilter> filter;
      ASSERT_TRUE(registry.Create(name, spec, &filter).ok());
      for (size_t i = 0; i < kNumKeys / 2; ++i) filter->Add(universe[i]);
      auto* dynamic = dynamic_cast<DynamicFilter*>(filter.get());
      ASSERT_NE(dynamic, nullptr);
      dynamic->Flush();
      for (size_t i = kNumKeys / 2; i < kNumKeys; ++i) filter->Add(universe[i]);
      ExpectBatchesMatchPerKey(*filter, universe);  // delta in use
      dynamic->Flush();
      ExpectBatchesMatchPerKey(*filter, universe);
    }
    {
      SCOPED_TRACE("scaling");
      FilterSpec spec = EngineSpec(0xd1a9);
      spec.auto_scale = true;
      spec.expected_keys = kNumKeys / 8;  // several generations
      std::unique_ptr<MembershipFilter> filter;
      ASSERT_TRUE(registry.Create(name, spec, &filter).ok());
      for (size_t i = 0; i < kNumKeys; ++i) filter->Add(universe[i]);
      auto* scaling = dynamic_cast<AutoScalingFilter*>(filter.get());
      ASSERT_NE(scaling, nullptr);
      EXPECT_GT(scaling->num_generations(), 1u);
      ExpectBatchesMatchPerKey(*filter, universe);
    }
  }
}

// Engine batches, split by whether the filter's hook ran its probe loop.
struct EngineBatches {
  uint64_t fastpath = 0;
  uint64_t fallback = 0;
};

EngineBatches CountEngineBatches(const MembershipFilter& filter,
                                 const std::vector<std::string>& keys) {
  auto& registry = obs::MetricsRegistry::Global();
  const obs::MetricsSnapshot before = registry.Snapshot();
  std::vector<uint8_t> results;
  BatchQueryEngine().ContainsBatch(filter, keys, &results);
  const obs::MetricsSnapshot after = registry.Snapshot();
  auto delta = [&](const char* counter) {
    return after.CounterValue(counter) - before.CounterValue(counter);
  };
  return {delta("engine.fastpath_batches_total"),
          delta("engine.virtual_batches_total")};
}

// A dropped probe loop keeps answers right and throughput wrong, so pin
// it: each of the six probe-protocol filters — and the mapped and dynamic
// (no delta in use) wrappers that forward their hook — must count its
// engine batch as a fast-path batch. A filter without a probe loop counts
// as a virtual one.
TEST(BatchEngineTest, ProbeProtocolFiltersCountAsFastPathBatches) {
  if (!obs::kCompiledIn || !obs::Enabled()) {
    GTEST_SKIP() << "metrics are compiled out or disabled";
  }
  const auto universe = Universe(0xfa57);
  const auto& registry = FilterRegistry::Global();
  for (const char* name : {"shbf_m", "bloom", "shbf_x", "shbf_a",
                           "split_block_bloom", "split_block_shbf_m"}) {
    SCOPED_TRACE(name);
    std::unique_ptr<MembershipFilter> filter;
    ASSERT_TRUE(registry.Create(name, EngineSpec(1), &filter).ok());
    for (size_t i = 0; i < kNumKeys; ++i) filter->Add(universe[i]);
    EngineBatches counted = CountEngineBatches(*filter, universe);
    EXPECT_EQ(counted.fastpath, 1u);
    EXPECT_EQ(counted.fallback, 0u);

    FilterSpec dynamic_spec = EngineSpec(1);
    dynamic_spec.delta_capacity = 64;
    std::unique_ptr<MembershipFilter> dynamic;
    ASSERT_TRUE(registry.Create(name, dynamic_spec, &dynamic).ok());
    counted = CountEngineBatches(*dynamic, universe);
    EXPECT_EQ(counted.fastpath, 1u) << "dynamic";
    EXPECT_EQ(counted.fallback, 0u) << "dynamic";

    if (!registry.SupportsMapped(name)) continue;
    const std::string path =
        ::testing::TempDir() + "/fastpath_count_" + name + ".shbi";
    ASSERT_TRUE(registry.SaveMapped(*filter, path).ok());
    std::unique_ptr<MembershipFilter> mapped;
    ASSERT_TRUE(registry.OpenMapped(path, &mapped).ok());
    counted = CountEngineBatches(*mapped, universe);
    EXPECT_EQ(counted.fastpath, 1u) << "mapped";
    EXPECT_EQ(counted.fallback, 0u) << "mapped";
    std::remove(path.c_str());
  }
  std::unique_ptr<MembershipFilter> cuckoo;
  ASSERT_TRUE(registry.Create("cuckoo", EngineSpec(1), &cuckoo).ok());
  const EngineBatches counted = CountEngineBatches(*cuckoo, universe);
  EXPECT_EQ(counted.fastpath, 0u);
  EXPECT_EQ(counted.fallback, 1u);
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
  for (auto policy : {MultiplicityReportPolicy::kLargest,
                      MultiplicityReportPolicy::kSmallest}) {
    std::vector<uint32_t> batched;
    filter.QueryCountBatch(universe, policy, &batched);
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
