// ShardedFilter / ShardedMembershipFilter: partitioning correctness, the
// registry's shards > 1 wiring, serde round trips, and — the point of the
// structure — no lost keys under concurrent mixed add/query traffic.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/filter_registry.h"
#include "core/simd.h"
#include "engine/sharded_filter.h"
#include "obs/metrics.h"
#include "shbf/shbf_membership.h"
#include "trace/trace_generator.h"

namespace shbf {
namespace {

FilterSpec ShardedSpec(uint32_t shards, uint64_t seed = 0x5a4d) {
  FilterSpec spec;
  spec.num_cells = 160000;
  spec.num_hashes = 8;
  spec.shards = shards;
  spec.batch_size = 16;
  spec.seed = seed;
  return spec;
}

std::vector<std::string> Keys(size_t n, uint64_t seed) {
  TraceGenerator gen(seed);
  return gen.DistinctFlowKeys(n);
}

/// Threads of this process, from /proc/self/task.
size_t ThreadCount() {
  return static_cast<size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/task"),
      std::filesystem::directory_iterator()));
}

/// A registry-built sharded filter over shbf_m holding the first half of
/// `universe`. One shard is below the registry's wrapping threshold, so
/// that case wraps a single registry-built shard directly.
std::unique_ptr<MembershipFilter> MakeRegistrySharded(
    uint32_t shards, const std::vector<std::string>& universe) {
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MembershipFilter> filter;
  if (shards == 1) {
    std::unique_ptr<MembershipFilter> shard;
    CheckOk(registry.Create("shbf_m", ShardedSpec(1), &shard));
    std::vector<std::unique_ptr<MembershipFilter>> one;
    one.push_back(std::move(shard));
    filter = std::make_unique<ShardedMembershipFilter>("shbf_m", 16,
                                                       std::move(one));
  } else {
    CheckOk(registry.Create("shbf_m", ShardedSpec(shards), &filter));
  }
  for (size_t i = 0; i < universe.size() / 2; ++i) filter->Add(universe[i]);
  return filter;
}

// Parallelism belongs to the callers: a large batch over many shards starts
// no threads and answers every sub-batch on the calling thread. First in the
// file, so the thread count is taken before any other batch has run here.
TEST(ShardedFilterTest, BatchesRunOnTheCallingThread) {
  const auto universe = Keys(4096, 0x7a5c);
  const auto filter = MakeRegistrySharded(8, universe);
  ShardedFilter<ShbfM> concrete(8, [](size_t) {
    return std::make_unique<ShbfM>(
        ShbfM::Params{.num_bits = 40000, .num_hashes = 8});
  });
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<size_t> sub_batches{0};
  std::atomic<size_t> elsewhere{0};
  concrete.SetBatchFn([&](const ShbfM& shard,
                          const std::vector<std::string_view>& keys,
                          std::vector<uint8_t>* results) {
    ++sub_batches;
    if (std::this_thread::get_id() != caller) ++elsewhere;
    results->resize(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      (*results)[i] = shard.Contains(keys[i]) ? 1 : 0;
    }
  });

  const size_t threads_before = ThreadCount();
  std::vector<uint8_t> results;
  filter->ContainsBatch(universe, &results);
  concrete.ContainsBatch(universe, &results);
  EXPECT_EQ(ThreadCount(), threads_before);
  EXPECT_EQ(sub_batches.load(), 8u);
  EXPECT_EQ(elsewhere.load(), 0u);
}

// Batches of every size, on either side of where the batch path once forked
// into a task pool (512 keys), answer bit for bit like per-key Contains,
// through the string and view overloads of both layers.
TEST(ShardedFilterTest, BatchesOfEverySizeMatchPerKeyContains) {
  const auto universe = Keys(4096, 0xba7c);
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    ShardedFilter<ShbfM> concrete(shards, [](size_t) {
      return std::make_unique<ShbfM>(
          ShbfM::Params{.num_bits = 40000, .num_hashes = 8});
    });
    for (size_t i = 0; i < universe.size() / 2; ++i) {
      concrete.Add(universe[i]);
    }
    const auto registry_built = MakeRegistrySharded(shards, universe);
    ASSERT_NE(dynamic_cast<ShardedMembershipFilter*>(registry_built.get()),
              nullptr);
    for (size_t n : {size_t{1}, size_t{511}, size_t{512}, size_t{513},
                     size_t{4096}}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " + std::to_string(n) +
                   " keys");
      // Keys from both halves: members and (mostly) non-members.
      std::vector<std::string> batch;
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(universe[(i * 2049) % universe.size()]);
      }
      const std::vector<std::string_view> views(batch.begin(), batch.end());
      std::vector<uint8_t> got;
      concrete.ContainsBatch(batch, &got);
      ASSERT_EQ(got.size(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], concrete.Contains(batch[i]) ? 1 : 0) << i;
      }
      std::vector<uint8_t> got_views;
      concrete.ContainsBatch(views, &got_views);
      EXPECT_EQ(got_views, got);

      registry_built->ContainsBatch(batch, &got);
      ASSERT_EQ(got.size(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], registry_built->Contains(batch[i]) ? 1 : 0) << i;
      }
      registry_built->ContainsBatch(views, &got_views);
      EXPECT_EQ(got_views, got);
    }
  }
}

// The split-block fast paths run their configured prefetch group at every
// filter size, and a sharded ensemble runs them once per shard
// sub-batch. Both must answer bit for bit like per-key Contains, from an
// L1-sized filter to one past the last-level cache, for batches shorter
// than, equal to and longer than the split-block group cap, under native
// and forced-scalar dispatch. The sharded.shard_batch_keys samples of each
// batch must be exactly its partition sizes: perfbench's
// sharded.shard_skew is computed from them.
TEST(ShardedFilterTest, SplitFastPathsMatchPerKeyAtEverySize) {
  const auto universe = Keys(4000, 0x6b1c);
  // Members and non-members interleaved (2049 is coprime to 4000).
  std::vector<std::string> queries;
  for (size_t i = 0; i < 2000; ++i) {
    queries.push_back(universe[(i * 2049) % universe.size()]);
  }
  obs::Histogram* const shard_keys =
      obs::MetricsRegistry::Global().GetHistogram("sharded.shard_batch_keys");
  const auto& registry = FilterRegistry::Global();
  for (const char* name : {"split_block_bloom", "split_block_shbf_m"}) {
    // 16 KB, 1 MB and 6 MB of bits.
    for (size_t num_cells :
         {size_t{128} << 10, size_t{8} << 20, size_t{48} << 20}) {
      for (uint32_t shards : {1u, 4u}) {
        SCOPED_TRACE(std::string(name) + " cells=" +
                     std::to_string(num_cells) + " shards=" +
                     std::to_string(shards));
        FilterSpec spec = ShardedSpec(shards, 0x6b1c);
        spec.num_cells = num_cells;
        spec.batch_size = 32;
        std::unique_ptr<MembershipFilter> filter;
        ASSERT_TRUE(registry.Create(name, spec, &filter).ok());
        for (size_t i = 0; i < universe.size() / 2; ++i) {
          filter->Add(universe[i]);
        }
        const auto* sharded =
            dynamic_cast<const ShardedMembershipFilter*>(filter.get());
        ASSERT_EQ(sharded != nullptr, shards > 1);
        std::vector<uint8_t> expected(queries.size());
        for (size_t i = 0; i < queries.size(); ++i) {
          expected[i] = filter->Contains(queries[i]) ? 1 : 0;
        }
        BatchQueryEngine engine({.batch_size = spec.batch_size});
        for (bool scalar : {false, true}) {
          SCOPED_TRACE(scalar ? "scalar" : "native");
          simd::ForceScalar(scalar);
          for (size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{33},
                           size_t{1000}}) {
            SCOPED_TRACE(std::to_string(n) + "-key batches");
            for (size_t start = 0; start < queries.size(); start += n) {
              const std::vector<std::string_view> batch(
                  queries.begin() + start,
                  queries.begin() + std::min(start + n, queries.size()));
              const obs::HistogramSnapshot before = shard_keys->Snapshot();
              std::vector<uint8_t> got;
              engine.ContainsBatch(*filter, batch, &got);
              ASSERT_EQ(got.size(), batch.size());
              for (size_t j = 0; j < batch.size(); ++j) {
                ASSERT_EQ(got[j], expected[start + j]) << start + j;
              }
              if (sharded == nullptr || !obs::kCompiledIn) continue;
              std::vector<size_t> sizes(shards, 0);
              for (std::string_view key : batch) {
                ++sizes[sharded->sharded().ShardOf(key)];
              }
              obs::HistogramSnapshot want;
              for (size_t size : sizes) {
                if (size == 0) continue;
                ++want.count;
                want.sum += size;
                ++want.buckets[obs::Histogram::BucketIndex(size)];
              }
              const obs::HistogramSnapshot recorded =
                  shard_keys->Snapshot().Since(before);
              ASSERT_EQ(recorded.count, want.count);
              ASSERT_EQ(recorded.sum, want.sum);
              ASSERT_EQ(recorded.buckets, want.buckets);
            }
          }
        }
        simd::ForceScalar(false);
      }
    }
  }
}

TEST(ShardedFilterTest, ConcreteTemplateShardsAndAnswers) {
  ShardedFilter<ShbfM> sharded(4, [](size_t) {
    return std::make_unique<ShbfM>(
        ShbfM::Params{.num_bits = 40000, .num_hashes = 8});
  });
  EXPECT_EQ(sharded.num_shards(), 4u);
  const auto keys = Keys(2000, 0xc0de);
  sharded.AddBatch(keys);
  EXPECT_EQ(sharded.num_elements(), keys.size());
  for (const auto& key : keys) {
    ASSERT_TRUE(sharded.Contains(key)) << "false negative";
  }
  std::vector<uint8_t> results;
  sharded.ContainsBatch(keys, &results);
  ASSERT_EQ(results.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(results[i], 1) << "batched false negative at " << i;
  }
  // The selector actually spreads keys around.
  size_t populated = 0;
  sharded.ForEachShard([&populated](size_t, const ShbfM& shard) {
    populated += shard.num_elements() > 0;
  });
  EXPECT_EQ(populated, 4u);
  sharded.Clear();
  EXPECT_EQ(sharded.num_elements(), 0u);
}

TEST(ShardedFilterTest, RegistryBuildsShardedWrapperAboveOneShard) {
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(registry.Create("shbf_m", ShardedSpec(8), &filter).ok());
  EXPECT_EQ(filter->name(), "sharded/shbf_m");
  auto* sharded = dynamic_cast<ShardedMembershipFilter*>(filter.get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->num_shards(), 8u);

  const auto universe = Keys(6000, 0x7e57);
  for (size_t i = 0; i < 3000; ++i) filter->Add(universe[i]);
  EXPECT_EQ(filter->num_elements(), 3000u);
  EXPECT_GT(filter->memory_bytes(), 0u);

  std::vector<uint8_t> batched;
  filter->ContainsBatch(universe, &batched);
  ASSERT_EQ(batched.size(), universe.size());
  size_t false_positives = 0;
  for (size_t i = 0; i < universe.size(); ++i) {
    ASSERT_EQ(batched[i] != 0, filter->Contains(universe[i]));
    if (i < 3000) {
      ASSERT_EQ(batched[i], 1) << "false negative at " << i;
    } else {
      false_positives += batched[i];
    }
  }
  EXPECT_LT(false_positives, 300u) << "implausible FPR";
}

TEST(ShardedFilterTest, ShardedMemoryMatchesSpecBudget) {
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MembershipFilter> plain;
  std::unique_ptr<MembershipFilter> sharded;
  ASSERT_TRUE(registry.Create("bloom", ShardedSpec(1), &plain).ok());
  ASSERT_TRUE(registry.Create("bloom", ShardedSpec(8), &sharded).ok());
  // num_cells splits across shards, so the ensemble stays within ~2x of the
  // plain filter (per-shard slack/guard bytes account for the difference).
  EXPECT_LT(sharded->memory_bytes(), 2 * plain->memory_bytes());
  EXPECT_GT(sharded->memory_bytes(), plain->memory_bytes() / 2);
}

TEST(ShardedFilterTest, ShardedSerdeRoundTrips) {
  const auto& registry = FilterRegistry::Global();
  for (const char* base : {"shbf_m", "bloom", "cuckoo", "shbf_x"}) {
    SCOPED_TRACE(base);
    std::unique_ptr<MembershipFilter> filter;
    ASSERT_TRUE(registry.Create(base, ShardedSpec(4), &filter).ok());
    const auto universe = Keys(2000, 0xd15c);
    for (size_t i = 0; i < 1000; ++i) filter->Add(universe[i]);

    std::string blob = FilterRegistry::Serialize(*filter);
    std::unique_ptr<MembershipFilter> reloaded;
    ASSERT_TRUE(registry.Deserialize(blob, &reloaded).ok());
    EXPECT_EQ(reloaded->name(), filter->name());
    for (const auto& key : universe) {
      ASSERT_EQ(reloaded->Contains(key), filter->Contains(key))
          << "serde divergence for " << key;
    }
  }
}

TEST(ShardedFilterTest, WiderFamiliesRejectShards) {
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MultiplicityFilter> multiplicity;
  Status s = registry.CreateMultiplicity("shbf_x", ShardedSpec(4),
                                         &multiplicity);
  EXPECT_EQ(s.code(), Status::Code::kFailedPrecondition) << s.ToString();
  std::unique_ptr<AssociationFilter> association;
  s = registry.CreateAssociation("shbf_a", ShardedSpec(4), &association);
  EXPECT_EQ(s.code(), Status::Code::kFailedPrecondition) << s.ToString();
}

// Concurrent mixed traffic: readers hammer an already-inserted key set while
// writers insert a disjoint one. No reader may ever miss a pre-inserted key
// (no false negatives under concurrency), and after the writers join the
// whole union must be present.
void RunConcurrentStress(const char* base_name, size_t pre_keys,
                         size_t new_keys, int reader_loops) {
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(registry.Create(base_name, ShardedSpec(8), &filter).ok());
  auto* sharded = dynamic_cast<ShardedMembershipFilter*>(filter.get());
  ASSERT_NE(sharded, nullptr);

  const auto universe = Keys(pre_keys + new_keys, 0x57e55);
  const std::vector<std::string> pre(universe.begin(),
                                     universe.begin() + pre_keys);
  sharded->AddBatch(pre);

  std::atomic<size_t> reader_misses{0};
  std::vector<std::thread> threads;
  // Two writers insert interleaved halves of the new keys.
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = pre_keys + w; i < universe.size(); i += 2) {
        filter->Add(universe[i]);
      }
    });
  }
  // Two readers batch-query the pre-inserted set; every miss is a false
  // negative (gtest asserts are not thread-safe, so tally and assert after
  // the join).
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      std::vector<uint8_t> results;
      for (int loop = 0; loop < reader_loops; ++loop) {
        filter->ContainsBatch(pre, &results);
        for (uint8_t hit : results) reader_misses += hit == 0;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(reader_misses.load(), 0u)
      << "false negatives observed under concurrent traffic";
  for (const auto& key : universe) {
    ASSERT_TRUE(filter->Contains(key)) << "lost key after join";
  }
}

TEST(ShardedFilterTest, ConcurrentAddsAndQueriesIncrementalBase) {
  RunConcurrentStress("shbf_m", 4000, 4000, 40);
}

TEST(ShardedFilterTest, ConcurrentAddsAndQueriesLazyRebuiltBase) {
  // shbf_x rebuilds inside const queries; the sharded wrapper must fall back
  // to exclusive reads for it. Small sizes: every query after an add pays a
  // rebuild.
  RunConcurrentStress("shbf_x", 400, 400, 10);
}

}  // namespace
}  // namespace shbf
