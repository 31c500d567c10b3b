// The SIMD probe kernels (core/simd.h) are an execution strategy, never a
// semantic change: every dispatched entry point must match its scalar
// reference bit for bit on random inputs, at every length (the vector
// bodies have 4-lane / 2-lane main loops plus scalar tails — odd lengths
// exercise both), and the ForceScalar override must actually demote the
// dispatcher. PackedCounterArray::GetMany is pinned against Get the same
// way, since the sketches' query paths now run through it.

#include "core/simd.h"

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/cpu_features.h"
#include "core/packed_counter_array.h"

namespace shbf {
namespace {

/// Runs `body` twice: once with the dispatcher free to pick the hardware
/// path, once pinned to scalar. Restores the override afterwards.
template <typename Body>
void UnderBothDispatchModes(const Body& body) {
  simd::ForceScalar(false);
  body();
  simd::ForceScalar(true);
  body();
  simd::ForceScalar(false);
}

TEST(SimdKernelTest, ForceScalarDemotesTheDispatcher) {
  simd::ForceScalar(true);
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  simd::ForceScalar(false);
  EXPECT_EQ(simd::ActiveLevel(), simd::DetectedLevel());
}

TEST(SimdKernelTest, BlockSubsetTestMatchesScalarForEveryBlockWidth) {
  std::mt19937_64 rng(0xb10c);
  for (size_t num_words = 1; num_words <= 8; ++num_words) {
    for (int trial = 0; trial < 200; ++trial) {
      alignas(64) uint64_t block[8];
      uint64_t mask[8];
      for (size_t w = 0; w < num_words; ++w) {
        block[w] = rng();
        mask[w] = block[w] & rng();  // subset by construction
      }
      // Half the trials flip one mask bit off the block: a guaranteed miss
      // in a single word, which the early-exit loops must agree on too.
      if (trial % 2 == 1) {
        const size_t w = rng() % num_words;
        mask[w] |= ~block[w] & (1ull << (rng() % 64));
      }
      const uint8_t* bytes = reinterpret_cast<const uint8_t*>(block);
      const bool expected =
          simd::BlockSubsetTestScalar(bytes, mask, num_words);
      UnderBothDispatchModes([&] {
        ASSERT_EQ(simd::BlockSubsetTest(bytes, mask, num_words), expected)
            << "num_words=" << num_words << " trial=" << trial;
      });
    }
  }
}

// The frontier kernel must keep exactly the indices whose single-probe
// BlockSubsetTest passes, in order, at every block width and under both
// dispatch modes — including an empty frontier and repeated indices.
TEST(SimdKernelTest, BlockSubsetFilterKeepsExactlyTheSubsetHits) {
  struct Probe {
    uint64_t h1;
    uint64_t mask[8];
  };
  std::mt19937_64 rng(0xf117);
  for (size_t num_words = 1; num_words <= 8; ++num_words) {
    constexpr size_t kBlocks = 37;
    std::vector<uint64_t> bits(kBlocks * num_words);
    for (uint64_t& word : bits) word = rng() | rng();  // dense blocks
    const uint8_t* bytes = reinterpret_cast<const uint8_t*>(bits.data());
    std::vector<Probe> probes(200);
    for (Probe& probe : probes) {
      probe.h1 = rng();
      const uint64_t* block =
          bits.data() + FastRange64(probe.h1, kBlocks) * num_words;
      for (size_t w = 0; w < num_words; ++w) {
        probe.mask[w] = block[w] & rng() & rng();
      }
      if (rng() % 2 == 0) probe.mask[rng() % num_words] |= 1ull << (rng() % 64);
    }
    std::vector<uint32_t> frontier;
    for (size_t i = 0; i < probes.size(); i += 1 + rng() % 3) {
      frontier.push_back(static_cast<uint32_t>(i));
      if (i % 7 == 0) frontier.push_back(static_cast<uint32_t>(i));
    }
    std::vector<uint32_t> expected;
    for (uint32_t i : frontier) {
      if (simd::BlockSubsetTestScalar(
              bytes + FastRange64(probes[i].h1, kBlocks) * num_words * 8,
              probes[i].mask, num_words)) {
        expected.push_back(i);
      }
    }
    ASSERT_GT(expected.size(), 0u);
    ASSERT_LT(expected.size(), frontier.size());
    UnderBothDispatchModes([&] {
      std::vector<uint32_t> idx = frontier;
      const size_t kept = simd::BlockSubsetFilter(
          bytes, kBlocks, num_words, probes.data(), idx.data(), idx.size());
      idx.resize(kept);
      ASSERT_EQ(idx, expected) << "num_words=" << num_words;
      EXPECT_EQ(simd::BlockSubsetFilter(bytes, kBlocks, num_words,
                                        probes.data(), idx.data(), 0),
                0u);
    });
  }
}

TEST(SimdKernelTest, ExtractFieldManyMatchesScalarIncludingStraddles) {
  std::mt19937_64 rng(0xf1e1d);
  for (uint32_t field_bits : {1u, 4u, 6u, 17u, 32u}) {
    const uint64_t field_mask = (1ull << field_bits) - 1;
    for (size_t n : {size_t{1}, size_t{4}, size_t{5}, size_t{64}}) {
      std::vector<uint64_t> lo(n), hi(n), shifts(n);
      for (size_t i = 0; i < n; ++i) {
        lo[i] = rng();
        hi[i] = rng();
        // Shift 0 (the scalar guard) and shifts forcing a straddle both
        // appear; all values stay < 64 as the contract requires.
        shifts[i] = (i == 0) ? 0 : rng() % 64;
      }
      std::vector<uint64_t> expected(n);
      simd::ExtractFieldManyScalar(lo.data(), hi.data(), shifts.data(),
                                   field_mask, n, expected.data());
      UnderBothDispatchModes([&] {
        std::vector<uint64_t> got(n, ~0ull);
        simd::ExtractFieldMany(lo.data(), hi.data(), shifts.data(),
                               field_mask, n, got.data());
        ASSERT_EQ(got, expected) << "bits=" << field_bits << " n=" << n;
      });
    }
  }
}

TEST(SimdKernelTest, PackedCounterGetManyMatchesGet) {
  std::mt19937_64 rng(0x9e7);
  // 6-bit counters guarantee word straddles (gcd(6, 64) != 64); the last
  // counter exercises the spare-word guarantee.
  for (uint32_t bits : {4u, 6u, 13u}) {
    PackedCounterArray counters(1000, bits);
    for (int i = 0; i < 5000; ++i) counters.Increment(rng() % 1000);
    std::vector<size_t> indices;
    for (int i = 0; i < 300; ++i) indices.push_back(rng() % 1000);
    indices.push_back(999);
    UnderBothDispatchModes([&] {
      std::vector<uint64_t> got(indices.size());
      counters.GetMany(indices.data(), indices.size(), got.data());
      for (size_t i = 0; i < indices.size(); ++i) {
        ASSERT_EQ(got[i], counters.Get(indices[i])) << "index " << indices[i];
      }
    });
  }
}

}  // namespace
}  // namespace shbf
