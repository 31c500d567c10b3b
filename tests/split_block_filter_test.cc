// The split-block variants (split_block_bloom, split_block_shbf_m) buy a
// one-vector-op resolve by pinning every probe/pair to its own sub-word;
// nothing else about them may drift from the catalog's contracts. Pinned
// here: sub-word confinement at every legal sub_block_bits x k geometry
// (including the block-edge shifts), probe masks bit-identical under native
// and forced-scalar dispatch, no false negatives, one memory access per
// query under the paper's cost model, FPR within 2x of the
// unblocked base at a 100k absent-key sample, engine fast path identical to
// the per-key loop for a cache-sized and a memory-sized filter,
// native + registry serde round trips, merge-as-union, shared key probes
// across the sizes of one probe family, and the v5 envelope still
// accepting hand-crafted v4 blobs (the sub_block_bits field is a v5
// spec-record extension).

#include <bit>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "api/filter_registry.h"
#include "baselines/split_block_bloom_filter.h"
#include "core/bits.h"
#include "core/query_stats.h"
#include "core/simd.h"
#include "engine/batch_query_engine.h"
#include "shbf/split_block_shbf_membership.h"
#include "trace/trace_generator.h"

namespace shbf {
namespace {

constexpr size_t kNumKeys = 3000;

FilterSpec TestSpec(uint64_t seed) {
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

/// Popcount of a whole-block mask restricted to one sub-word.
uint32_t SubWordPopcount(const uint64_t* mask, uint32_t sub,
                         uint32_t sub_block_bits) {
  const uint32_t first_bit = sub * sub_block_bits;
  const uint64_t word = mask[first_bit / 64];
  const uint64_t lane_mask = sub_block_bits == 64
                                 ? ~uint64_t{0}
                                 : ((uint64_t{1} << sub_block_bits) - 1)
                                       << (first_bit % 64);
  return static_cast<uint32_t>(std::popcount(word & lane_mask));
}

// Every geometry the factory can produce keeps each probe inside its
// round-robin sub-word: summing the per-sub-word popcounts must account for
// every mask bit, and no sub-word may hold more bits than the probes mapped
// to it. Sweeps every sub_block_bits including 8 (the Bloom floor) and both
// block-edge sub-words.
TEST(SplitBlockBloomTest, ProbesStayInsideTheirSubWords) {
  for (uint32_t sub_bits : {8u, 16u, 32u, 64u}) {
    for (uint32_t k : {1u, 3u, 8u, 16u}) {
      const uint32_t block_bits =
          std::min(512u, std::max(64u, static_cast<uint32_t>(RoundUp(k * sub_bits, 64))));
      SplitBlockBloomFilter filter({.num_bits = 1 << 18,
                                    .num_hashes = k,
                                    .block_bits = block_bits,
                                    .sub_block_bits = sub_bits});
      const uint32_t num_sub = filter.num_sub_blocks();
      std::vector<uint32_t> probes_of_sub(num_sub, 0);
      for (uint32_t i = 0; i < k; ++i) ++probes_of_sub[i % num_sub];
      for (int t = 0; t < 500; ++t) {
        const std::string key = "key-" + std::to_string(t);
        SplitBlockBloomFilter::Probe probe;
        filter.PrepareProbe(key, &probe);
        uint32_t total = 0;
        for (uint32_t sub = 0; sub < num_sub; ++sub) {
          const uint32_t bits = SubWordPopcount(probe.mask, sub, sub_bits);
          ASSERT_LE(bits, probes_of_sub[sub])
              << "sub " << sub << " s=" << sub_bits << " k=" << k;
          total += bits;
        }
        // Every set bit was accounted for by some sub-word: nothing leaked
        // into the gaps or out of the block.
        uint32_t mask_bits = 0;
        for (uint32_t w = 0; w < filter.block_words(); ++w) {
          mask_bits += static_cast<uint32_t>(std::popcount(probe.mask[w]));
        }
        ASSERT_EQ(total, mask_bits) << "s=" << sub_bits << " k=" << k;
        ASSERT_GE(total, 1u);
      }
    }
  }
}

// The ShBF_M layout: pair i owns sub-word i % num_sub and always contributes
// exactly two distinct bits there (the circular placement cannot collide —
// offsets are nonzero mod sub_block_bits).
TEST(SplitBlockShbfMTest, PairsStayInsideTheirSubWordsWithTwoBits) {
  for (uint32_t sub_bits : {16u, 32u, 64u}) {
    for (uint32_t k : {2u, 6u, 8u, 16u}) {
      const uint32_t pairs = k / 2;
      const uint32_t block_bits =
          std::min(512u, std::max(64u, static_cast<uint32_t>(
                                           RoundUp(pairs * sub_bits, 64))));
      SplitBlockShbfM filter({.num_bits = 1 << 18,
                              .num_hashes = k,
                              .block_bits = block_bits,
                              .sub_block_bits = sub_bits,
                              .max_offset_span = sub_bits / 2});
      const uint32_t num_sub = filter.num_sub_blocks();
      std::vector<uint32_t> pairs_of_sub(num_sub, 0);
      for (uint32_t i = 0; i < pairs; ++i) ++pairs_of_sub[i % num_sub];
      for (int t = 0; t < 500; ++t) {
        const std::string key = "pair-key-" + std::to_string(t);
        SplitBlockShbfM::Probe probe;
        filter.PrepareProbe(key, &probe);
        const uint64_t offset = filter.OffsetOf(key);
        ASSERT_GE(offset, 1u);
        ASSERT_LT(offset, filter.max_offset_span());
        uint32_t total = 0;
        for (uint32_t sub = 0; sub < num_sub; ++sub) {
          const uint32_t bits = SubWordPopcount(probe.mask, sub, sub_bits);
          // Distinct pairs in one sub-word may overlap, but a lone pair
          // sets exactly two bits.
          ASSERT_LE(bits, 2 * pairs_of_sub[sub]);
          if (pairs_of_sub[sub] == 1) {
            ASSERT_EQ(bits, 2u) << "sub " << sub << " s=" << sub_bits;
          }
          total += bits;
        }
        uint32_t mask_bits = 0;
        for (uint32_t w = 0; w < filter.block_words(); ++w) {
          mask_bits += static_cast<uint32_t>(std::popcount(probe.mask[w]));
        }
        ASSERT_EQ(total, mask_bits) << "s=" << sub_bits << " k=" << k;
      }
    }
  }
}

// The mask construction feeds Add and Contains alike, so a dispatch
// divergence would be invisible to a same-mode differential test. Pin the
// raw probe masks: native and forced-scalar dispatch must produce identical
// bytes at every sub-word width and k, including shifts that land a probe
// on bit 63 of a word (the in-word edge).
TEST(SplitBlockFilterTest, ProbeMasksIdenticalUnderBothDispatchModes) {
  const auto universe = Universe(0x5b17);
  for (uint32_t sub_bits : {8u, 16u, 32u, 64u}) {
    for (uint32_t k : {1u, 7u, 8u, 24u}) {
      SplitBlockBloomFilter filter({.num_bits = 1 << 18,
                                    .num_hashes = k,
                                    .block_bits = 512,
                                    .sub_block_bits = sub_bits});
      for (size_t t = 0; t < 300; ++t) {
        SplitBlockBloomFilter::Probe native, scalar;
        simd::ForceScalar(false);
        filter.PrepareProbe(universe[t], &native);
        simd::ForceScalar(true);
        filter.PrepareProbe(universe[t], &scalar);
        simd::ForceScalar(false);
        ASSERT_EQ(native.block_word, scalar.block_word);
        ASSERT_EQ(std::memcmp(native.mask, scalar.mask, sizeof(native.mask)),
                  0)
            << "s=" << sub_bits << " k=" << k << " key " << t;
      }
    }
  }
  for (uint32_t sub_bits : {16u, 32u, 64u}) {
    for (uint32_t k : {2u, 8u, 30u}) {
      SplitBlockShbfM filter({.num_bits = 1 << 18,
                              .num_hashes = k,
                              .block_bits = 512,
                              .sub_block_bits = sub_bits,
                              .max_offset_span = sub_bits / 2});
      for (size_t t = 0; t < 300; ++t) {
        SplitBlockShbfM::Probe native, scalar;
        simd::ForceScalar(false);
        filter.PrepareProbe(universe[t], &native);
        simd::ForceScalar(true);
        filter.PrepareProbe(universe[t], &scalar);
        simd::ForceScalar(false);
        ASSERT_EQ(native.block_word, scalar.block_word);
        ASSERT_EQ(std::memcmp(native.mask, scalar.mask, sizeof(native.mask)),
                  0)
            << "s=" << sub_bits << " k=" << k << " key " << t;
      }
    }
  }
}

// Differential check against the exact set: no false negatives ever, and a
// sane false-positive count at 12 bits/key. Under the paper's cost model
// every query, member or not, is one memory access: the whole block.
TEST(SplitBlockFilterTest, DifferentialAgainstExactSet) {
  const auto universe = Universe(0x5bd1f);
  for (const char* name : {"split_block_bloom", "split_block_shbf_m"}) {
    SCOPED_TRACE(name);
    std::unique_ptr<MembershipFilter> filter;
    ASSERT_TRUE(
        FilterRegistry::Global().Create(name, TestSpec(0x5bd1f), &filter)
            .ok());
    std::unordered_set<std::string> exact;
    for (size_t i = 0; i < kNumKeys; ++i) {
      filter->Add(universe[i]);
      exact.insert(universe[i]);
    }
    size_t false_positives = 0;
    QueryStats stats;
    for (const auto& key : universe) {
      const bool in_filter = filter->Contains(key);
      ASSERT_EQ(filter->ContainsWithStats(key, &stats), in_filter) << key;
      if (exact.count(key)) {
        ASSERT_TRUE(in_filter) << "false negative: " << key;
      } else if (in_filter) {
        ++false_positives;
      }
    }
    EXPECT_LT(false_positives, kNumKeys / 20) << "FPR collapsed";
    EXPECT_EQ(stats.queries, universe.size());
    EXPECT_EQ(stats.memory_accesses, universe.size());  // one block each
  }
}

/// Measured FPR of registry filter `name` over 100k absent keys after
/// building from `members`.
double MeasuredFpr(const std::string& name, const FilterSpec& spec,
                   const std::vector<std::string>& members) {
  std::unique_ptr<MembershipFilter> filter;
  Status s = FilterRegistry::Global().Create(name, spec, &filter);
  EXPECT_TRUE(s.ok()) << s.ToString();
  if (!s.ok()) return 1.0;
  for (const auto& key : members) filter->Add(key);
  constexpr size_t kAbsent = 100000;
  size_t positives = 0;
  for (size_t i = 0; i < kAbsent; ++i) {
    positives += filter->Contains("fpr-absent-" + std::to_string(i));
  }
  return static_cast<double>(positives) / kAbsent;
}

// The acceptance bound at test scale: each split-block variant's FPR stays
// within 2x its unblocked base at equal bits/key, measured over 100k absent
// keys (plus a small-sample noise floor, as in the bench gate).
TEST(SplitBlockFilterTest, FprWithinTwiceTheUnblockedBase) {
  TraceGenerator gen(0xfb10);
  const auto members = gen.DistinctFlowKeys(20000);
  FilterSpec spec = FilterSpec::ForKeys(members.size(), 12.0, 8);
  spec.max_count = 8;
  const double noise_floor = 8.0 / 100000;
  {
    const double base = MeasuredFpr("bloom", spec, members);
    const double split = MeasuredFpr("split_block_bloom", spec, members);
    EXPECT_LE(split, 2.0 * base + noise_floor)
        << "split_block_bloom " << split << " vs bloom " << base;
  }
  {
    const double base = MeasuredFpr("shbf_m", spec, members);
    const double split = MeasuredFpr("split_block_shbf_m", spec, members);
    EXPECT_LE(split, 2.0 * base + noise_floor)
        << "split_block_shbf_m " << split << " vs shbf_m " << base;
  }
}

// The engine's split-block fast path must answer exactly like the per-key
// loop under both dispatch modes, for a filter that fits in cache and one
// of 6 MB that does not (both run the same staged prefetch groups), at the
// default k = 8 and at k = 16, where every probe mask spans twice the
// sub-words.
TEST(SplitBlockFilterTest, EngineFastPathMatchesPerKeyAcrossBatchSizing) {
  const auto universe = Universe(0xe9f1);
  const auto& registry = FilterRegistry::Global();
  for (const char* name : {"split_block_bloom", "split_block_shbf_m"}) {
    for (uint32_t k : {8u, 16u}) {
      for (size_t num_cells : {size_t{12} * kNumKeys, size_t{48} << 20}) {
        SCOPED_TRACE(std::string(name) + " k=" + std::to_string(k) +
                     " cells=" + std::to_string(num_cells));
        FilterSpec spec = TestSpec(0xe9f1);
        spec.num_hashes = k;
        spec.num_cells = num_cells;  // 48 Mbit = 6 MB
        std::unique_ptr<MembershipFilter> filter;
        ASSERT_TRUE(registry.Create(name, spec, &filter).ok());
        for (size_t i = 0; i < kNumKeys; ++i) filter->Add(universe[i]);
        std::vector<uint8_t> expected(universe.size());
        for (size_t i = 0; i < universe.size(); ++i) {
          expected[i] = filter->Contains(universe[i]) ? 1 : 0;
        }
        BatchQueryEngine engine({.batch_size = 32});
        for (bool scalar : {false, true}) {
          SCOPED_TRACE(scalar ? "scalar" : "native");
          simd::ForceScalar(scalar);
          std::vector<uint8_t> batched;
          engine.ContainsBatch(*filter, universe, &batched);
          ASSERT_EQ(batched, expected);
        }
        simd::ForceScalar(false);
      }
    }
  }
}

TEST(SplitBlockFilterTest, NativeSerdeRoundTripsAnswerIdentically) {
  const auto universe = Universe(0x5e4de);
  {
    SplitBlockBloomFilter original({.num_bits = 1 << 16,
                                    .num_hashes = 6,
                                    .block_bits = 512,
                                    .sub_block_bits = 32});
    for (size_t i = 0; i < 1000; ++i) original.Add(universe[i]);
    std::optional<SplitBlockBloomFilter> restored;
    ASSERT_TRUE(
        SplitBlockBloomFilter::FromBytes(original.ToBytes(), &restored).ok());
    for (const auto& key : universe) {
      ASSERT_EQ(restored->Contains(key), original.Contains(key)) << key;
    }
  }
  {
    SplitBlockShbfM original({.num_bits = 1 << 16,
                              .num_hashes = 6,
                              .block_bits = 256,
                              .sub_block_bits = 64});
    for (size_t i = 0; i < 1000; ++i) original.Add(universe[i]);
    std::optional<SplitBlockShbfM> restored;
    ASSERT_TRUE(SplitBlockShbfM::FromBytes(original.ToBytes(), &restored)
                    .ok());
    for (const auto& key : universe) {
      ASSERT_EQ(restored->Contains(key), original.Contains(key)) << key;
    }
  }
}

TEST(SplitBlockFilterTest, RegistryEnvelopeRoundTripsAnswerIdentically) {
  const auto universe = Universe(0xe15e);
  const auto& registry = FilterRegistry::Global();
  for (const char* name : {"split_block_bloom", "split_block_shbf_m"}) {
    SCOPED_TRACE(name);
    std::unique_ptr<MembershipFilter> filter;
    ASSERT_TRUE(registry.Create(name, TestSpec(0xe15e), &filter).ok());
    for (size_t i = 0; i < kNumKeys; ++i) filter->Add(universe[i]);
    std::unique_ptr<MembershipFilter> restored;
    ASSERT_TRUE(
        registry.Deserialize(FilterRegistry::Serialize(*filter), &restored)
            .ok());
    for (const auto& key : universe) {
      ASSERT_EQ(restored->Contains(key), filter->Contains(key)) << key;
    }
  }
}

TEST(SplitBlockFilterTest, MergeIsSetUnion) {
  SplitBlockShbfM a({.num_bits = 1 << 16, .num_hashes = 6});
  SplitBlockShbfM b({.num_bits = 1 << 16, .num_hashes = 6});
  a.Add("only-a");
  b.Add("only-b");
  ASSERT_TRUE(a.MergeFrom(b).ok());
  EXPECT_TRUE(a.Contains("only-a"));
  EXPECT_TRUE(a.Contains("only-b"));

  SplitBlockShbfM mismatched({.num_bits = 1 << 16,
                              .num_hashes = 6,
                              .sub_block_bits = 32,
                              .max_offset_span = 16});
  EXPECT_FALSE(a.MergeFrom(mismatched).ok());

  SplitBlockBloomFilter c({.num_bits = 1 << 16, .num_hashes = 5});
  SplitBlockBloomFilter d({.num_bits = 1 << 16, .num_hashes = 5});
  c.Add("only-c");
  d.Add("only-d");
  ASSERT_TRUE(c.MergeFrom(d).ok());
  EXPECT_TRUE(c.Contains("only-c"));
  EXPECT_TRUE(c.Contains("only-d"));
}

// A key probe depends only on the probe family, not on num_bits: one
// filter's KeyProbe, resolved against same-family filters of every size,
// must answer exactly as each filter's own Contains — under native and
// forced-scalar dispatch.
TEST(SplitBlockShbfMTest, KeyProbeResolvesAcrossFilterSizesOfOneFamily) {
  const auto universe = Universe(0xfa417);
  std::vector<SplitBlockShbfM> filters;
  for (size_t num_bits : {size_t{256}, size_t{12} * 1000, size_t{12} * 3001,
                          size_t{1} << 20}) {
    filters.emplace_back(SplitBlockShbfM::Params{.num_bits = num_bits,
                                                 .num_hashes = 8,
                                                 .sub_block_bits = 32,
                                                 .max_offset_span = 24,
                                                 .seed = 0xfa417});
  }
  for (size_t f = 0; f < filters.size(); ++f) {
    ASSERT_TRUE(filters[0].SameProbeFamily(filters[f]));
    for (size_t i = f; i < kNumKeys; i += filters.size()) {
      filters[f].Add(universe[i]);
    }
  }
  for (bool scalar : {false, true}) {
    SCOPED_TRACE(scalar ? "scalar" : "native");
    simd::ForceScalar(scalar);
    for (const auto& key : universe) {
      SplitBlockShbfM::KeyProbe probe;
      filters[0].PrepareKeyProbe(key, &probe);
      for (const SplitBlockShbfM& filter : filters) {
        ASSERT_EQ(filter.ResolveKeyProbe(probe), filter.Contains(key))
            << key << " against " << filter.num_bits() << " bits";
      }
    }
  }
  simd::ForceScalar(false);
}

// SameProbeFamily must notice every parameter the key probe depends on —
// and only those: num_bits alone never splits a family.
TEST(SplitBlockShbfMTest, SameProbeFamilyComparesEverythingButNumBits) {
  const SplitBlockShbfM::Params base{.num_bits = 1 << 14,
                                     .num_hashes = 8,
                                     .block_bits = 256,
                                     .sub_block_bits = 64,
                                     .max_offset_span = 32,
                                     .hash_algorithm = HashAlgorithm::kMurmur3,
                                     .seed = 7};
  const SplitBlockShbfM reference(base);
  auto with = [&](auto edit) {
    SplitBlockShbfM::Params params = base;
    edit(&params);
    return SplitBlockShbfM(params);
  };
  EXPECT_TRUE(reference.SameProbeFamily(
      with([](auto* p) { p->num_bits = 3 << 14; })));
  EXPECT_FALSE(reference.SameProbeFamily(
      with([](auto* p) { p->hash_algorithm = HashAlgorithm::kFnv1a; })));
  EXPECT_FALSE(reference.SameProbeFamily(with([](auto* p) { p->seed = 8; })));
  EXPECT_FALSE(
      reference.SameProbeFamily(with([](auto* p) { p->num_hashes = 6; })));
  EXPECT_FALSE(
      reference.SameProbeFamily(with([](auto* p) { p->block_bits = 512; })));
  EXPECT_FALSE(reference.SameProbeFamily(
      with([](auto* p) { p->sub_block_bits = 32; p->max_offset_span = 16; })));
  EXPECT_FALSE(reference.SameProbeFamily(
      with([](auto* p) { p->max_offset_span = 31; })));
}

// The multi-set index clones summaries through the registry envelope; the
// clone must stay in its source's probe family.
TEST(SplitBlockShbfMTest, RegistryCloneStaysInTheProbeFamily) {
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(
      registry.Create("split_block_shbf_m", TestSpec(0xc10e), &filter).ok());
  std::unique_ptr<MembershipFilter> clone;
  ASSERT_TRUE(
      registry.Deserialize(FilterRegistry::Serialize(*filter), &clone).ok());
  const BatchFastPath source = filter->batch_fast_path();
  const BatchFastPath cloned = clone->batch_fast_path();
  ASSERT_EQ(source.kind, BatchFastPath::Kind::kSplitBlockShbfM);
  ASSERT_EQ(cloned.kind, BatchFastPath::Kind::kSplitBlockShbfM);
  EXPECT_TRUE(static_cast<const SplitBlockShbfM*>(source.impl)
                  ->SameProbeFamily(
                      *static_cast<const SplitBlockShbfM*>(cloned.impl)));
}

// Envelope compatibility: a v4 blob (no sub_block_bits in its spec records)
// must still deserialize under the v5 reader. Crafted from a v5 replay
// blob of a spec-bearing adapter (shbf_x) by patching the version byte and
// excising the 4-byte sub_block_bits field the v4 writer never emitted.
TEST(SplitBlockFilterTest, V4EnvelopeWithoutSubBlockBitsStillLoads) {
  const auto& registry = FilterRegistry::Global();
  FilterSpec spec = TestSpec(0x4e4e);
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(registry.Create("shbf_x", spec, &filter).ok());
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) keys.push_back("v4-key-" + std::to_string(i));
  for (const auto& key : keys) filter->Add(key);
  filter->PrepareForConstReads();

  std::string blob = FilterRegistry::Serialize(*filter);
  // Envelope: U32 magic, U8 version, U32 name length, name, payload. The
  // payload opens with the spec record, whose sub_block_bits field sits 74
  // bytes in (after U64 + 7xU32 + U64 + 2xU32 + U64 + 2xU8 + U64 + U32).
  ASSERT_EQ(blob[4], 5);
  const size_t name_length = 6;  // "shbf_x"
  const size_t spec_start = 4 + 1 + 4 + name_length;
  const size_t sub_block_bits_offset = spec_start + 74;
  ASSERT_LE(sub_block_bits_offset + 4, blob.size());
  blob[4] = 4;
  blob.erase(sub_block_bits_offset, 4);

  std::unique_ptr<MembershipFilter> restored;
  Status s = registry.Deserialize(blob, &restored);
  ASSERT_TRUE(s.ok()) << s.ToString();
  for (const auto& key : keys) {
    EXPECT_TRUE(restored->Contains(key)) << key;
  }
  EXPECT_FALSE(restored->Contains("v4-definitely-absent"));

  // Sanity: a version byte below the readable floor still fails cleanly.
  std::string ancient = FilterRegistry::Serialize(*filter);
  ancient[4] = 3;
  std::unique_ptr<MembershipFilter> rejected;
  EXPECT_FALSE(registry.Deserialize(ancient, &rejected).ok());
}

}  // namespace
}  // namespace shbf
