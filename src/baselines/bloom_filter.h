// Standard Bloom filter (Bloom, CACM 1970) — the membership baseline.
//
// k independent hash functions over an m-bit array; insert sets the k bits
// h_i(e) % m, a query ANDs them. No false negatives; false-positive rate
// f_BF ≈ (1 − e^{−nk/m})^k (paper Eq (8)). Queries terminate early at the
// first zero bit, and under the paper's cost model each bit probe is one
// memory access — which is exactly why ShBF_M halves the query cost.

#ifndef SHBF_BASELINES_BLOOM_FILTER_H_
#define SHBF_BASELINES_BLOOM_FILTER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/bit_array.h"
#include "core/query_stats.h"
#include "core/serde.h"
#include "core/status.h"
#include "hash/hash_family.h"

namespace shbf {

/// Library-wide default seed; every structure takes an explicit override.
inline constexpr uint64_t kDefaultSeed = 0x5eed5eed5eed5eedull;

class BloomFilter {
 public:
  struct Params {
    size_t num_bits = 0;      ///< m
    uint32_t num_hashes = 0;  ///< k
    HashAlgorithm hash_algorithm = HashAlgorithm::kMurmur3;
    uint64_t seed = kDefaultSeed;

    Status Validate() const;
  };

  /// m minimizing FPR for n elements at false-positive target `fpr`:
  /// m = −n·ln f / (ln 2)². Rounded up.
  static size_t OptimalNumBits(size_t num_elements, double fpr);

  /// k minimizing FPR for given m, n: k = (m/n)·ln 2, at least 1.
  static uint32_t OptimalNumHashes(size_t num_bits, size_t num_elements);

  explicit BloomFilter(const Params& params);

  /// Wraps externally stored bits (a BitArray::View into an mmap'd image
  /// region) without copying: geometry from `params`, storage from `bits`.
  /// The view's num_bits/slack must match what the owning constructor
  /// would build — callers (the registry's mapped opener) validate the
  /// on-disk geometry before constructing. Read-only usage.
  BloomFilter(const Params& params, BitArray bits, size_t num_elements);

  /// Inserts `key`: sets bits h_1(e)%m, ..., h_k(e)%m.
  void Add(std::string_view key) { Add(key.data(), key.size()); }
  void Add(const void* data, size_t len);

  /// Membership query; no false negatives.
  bool Contains(std::string_view key) const {
    return Contains(key.data(), key.size());
  }
  bool Contains(const void* data, size_t len) const;

  /// Same, accumulating the paper's cost model into `stats` (one access per
  /// bit probed, one hash per function evaluated; early exit on a 0 bit).
  bool ContainsWithStats(std::string_view key, QueryStats* stats) const;

  /// Batched membership query with software prefetching (see
  /// ShbfM::ContainsBatch). `results` is resized to keys.size(). Requires
  /// k <= kMaxBatchHashes.
  void ContainsBatch(const std::vector<std::string>& keys,
                     std::vector<uint8_t>* results) const;

  /// Largest k the probe/batch paths support.
  static constexpr uint32_t kMaxBatchHashes = 64;

  /// Probe-loop constants (core/probe_loop.h); see ShbfM.
  static constexpr size_t kProbeGroupCap = SIZE_MAX;
  static constexpr bool kPrepareProbePrefetches = false;

  /// Precomputed query state for one key (hashes only, no memory touched);
  /// see ShbfM::Probe for the two-pass batch protocol.
  struct Probe {
    size_t positions[kMaxBatchHashes];  ///< h_i(e) % m for i < num_hashes()
  };

  /// Computes `key`'s k bit positions. Requires num_hashes() <= 64.
  void PrepareProbe(std::string_view key, Probe* probe) const;

  /// Hints the cache to fetch every line `probe` will read.
  void PrefetchProbe(const Probe& probe) const;

  /// Resolves a prepared probe; identical answer to Contains(key).
  bool ResolveProbe(const Probe& probe) const;

  size_t num_bits() const { return bits_.num_bits(); }
  uint32_t num_hashes() const { return family_.num_functions(); }
  HashAlgorithm hash_algorithm() const { return family_.algorithm(); }
  uint64_t seed() const { return family_.master_seed(); }
  size_t num_elements() const { return num_elements_; }
  const BitArray& bits() const { return bits_; }

  /// Clears to the empty filter.
  void Clear();

  /// Set-union: ORs `other`'s bit array into this one. Both filters must
  /// share geometry, hash family and seed (Summary-Cache proxies merging
  /// peer summaries, shard consolidation). num_elements() becomes the sum —
  /// an upper bound on the union's distinct keys.
  Status MergeFrom(const BloomFilter& other);

  /// Serializes parameters + bit payload to a versioned byte blob. Summary-
  /// Cache-style protocols ship these between nodes (§2.2).
  std::string ToBytes() const;

  /// Reconstructs a filter from ToBytes() output. On success `*out` holds a
  /// filter answering identically to the original.
  static Status FromBytes(std::string_view bytes,
                          std::optional<BloomFilter>* out);

 private:
  HashFamily family_;
  BitArray bits_;
  size_t num_elements_ = 0;
};

}  // namespace shbf

#endif  // SHBF_BASELINES_BLOOM_FILTER_H_
