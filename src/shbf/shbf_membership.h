// ShBF_M — the Shifting Bloom Filter for membership queries (paper §3).
//
// Instead of k independent bit positions, ShBF_M uses k/2 base positions
// h_1(e)%m, ..., h_{k/2}(e)%m plus ONE shared offset
//     o(e) = h_{k/2+1}(e) % (w̄ − 1) + 1   ∈ [1, w̄ − 1],
// and sets both B[h_i(e)%m] and B[h_i(e)%m + o(e)] for every i. A query
// checks the same k bits, but because o(e) < w̄ ≤ w − 7 both bits of a pair
// sit inside one unaligned word load:
//   * hash computations drop from k to k/2 + 1,
//   * memory accesses drop from k to k/2,
// while the FPR stays within noise of a standard k-hash Bloom filter
// (Eq (1) vs Eq (8); minimum 0.6204^{m/n} vs 0.6185^{m/n}).

#ifndef SHBF_SHBF_SHBF_MEMBERSHIP_H_
#define SHBF_SHBF_SHBF_MEMBERSHIP_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/bit_array.h"
#include "core/bits.h"
#include "core/query_stats.h"
#include "core/serde.h"
#include "core/status.h"
#include "hash/hash_family.h"

namespace shbf {

class ShbfM {
 public:
  struct Params {
    size_t num_bits = 0;      ///< m
    uint32_t num_hashes = 0;  ///< k; must be even (k/2 pairs), >= 2
    /// w̄: offsets lie in [1, max_offset_span − 1]. The default 57 (= w − 7)
    /// guarantees one-access pairs on 64-bit machines and is large enough
    /// that the FPR penalty vs BF is negligible (Fig 3: w̄ > 20 suffices).
    uint32_t max_offset_span = kDefaultMaxOffsetSpan;
    HashAlgorithm hash_algorithm = HashAlgorithm::kMurmur3;
    uint64_t seed = 0x5eed5eed5eed5eedull;

    Status Validate() const;
  };

  explicit ShbfM(const Params& params);

  /// Wraps externally stored bits (a BitArray::View into an mmap'd image
  /// region) without copying: geometry from `params`, storage from `bits`.
  /// The view's num_bits/slack must match the owning layout (slack ==
  /// max_offset_span); the registry's mapped opener validates the on-disk
  /// geometry before constructing. Read-only usage.
  ShbfM(const Params& params, BitArray bits, size_t num_elements);

  /// Inserts `key`: k/2 + 1 hash computations, k bits set.
  void Add(std::string_view key) { Add(key.data(), key.size()); }
  void Add(const void* data, size_t len);

  /// Membership query; no false negatives. k/2 window loads worst case,
  /// early exit on the first failing pair.
  bool Contains(std::string_view key) const {
    return Contains(key.data(), key.size());
  }
  bool Contains(const void* data, size_t len) const;

  /// Query under the paper's cost model: one memory access per PAIR probed
  /// (both bits share a window), one hash per function actually evaluated.
  bool ContainsWithStats(std::string_view key, QueryStats* stats) const;

  /// Batched membership query through the two-pass probe loop
  /// (core/probe_loop.h): hashes and prefetches a group of keys before
  /// testing any, overlapping hash computation with memory latency.
  /// `results` is resized to keys.size(); entry i receives
  /// Contains(keys[i]). Requires k <= kMaxBatchHashes.
  void ContainsBatch(const std::vector<std::string>& keys,
                     std::vector<uint8_t>* results) const;

  /// Largest k/2 (and k) the probe/batch paths support.
  static constexpr uint32_t kMaxBatchPairs = 32;
  static constexpr uint32_t kMaxBatchHashes = 2 * kMaxBatchPairs;

  /// Probe-loop constants (core/probe_loop.h): k gathers per key keep the
  /// caller's group, and PrefetchProbe is a separate step.
  static constexpr size_t kProbeGroupCap = SIZE_MAX;
  static constexpr bool kPrepareProbePrefetches = false;

  /// Precomputed query state for one key: every hash evaluated, no filter
  /// memory touched yet. The two-pass probe loop fills a group of these
  /// (PrepareProbe), prefetches their windows (PrefetchProbe), and only
  /// then resolves (ResolveProbe) — by which point the cache lines are
  /// resident or in flight.
  struct Probe {
    uint64_t need;                 ///< bit 0 | bit o(e): the pair pattern
    size_t bases[kMaxBatchPairs];  ///< h_i(e) % m for i < num_pairs()
  };

  /// Computes `key`'s k/2 base positions and pair pattern (hashes only;
  /// no memory access). Requires num_pairs() <= kMaxBatchPairs.
  void PrepareProbe(std::string_view key, Probe* probe) const;

  /// Hints the cache to fetch every window `probe` will load.
  void PrefetchProbe(const Probe& probe) const;

  /// Resolves a prepared probe; identical answer to Contains(key).
  bool ResolveProbe(const Probe& probe) const;

  /// The offset o(key) ∈ [1, max_offset_span − 1]; exposed for tests.
  uint64_t OffsetOf(std::string_view key) const;

  size_t num_bits() const { return bits_.num_bits(); }
  uint32_t num_hashes() const { return num_hashes_; }
  uint32_t num_pairs() const { return num_hashes_ / 2; }
  uint32_t max_offset_span() const { return max_offset_span_; }
  HashAlgorithm hash_algorithm() const { return family_.algorithm(); }
  uint64_t seed() const { return family_.master_seed(); }
  size_t num_elements() const { return num_elements_; }
  const BitArray& bits() const { return bits_; }

  void Clear();

  /// Set-union: ORs `other`'s bit array into this one (Add only ever sets
  /// bits, so the OR answers exactly like inserting both key sets). Both
  /// filters must share geometry, hash family, seed and offset span.
  Status MergeFrom(const ShbfM& other);

  /// Serializes parameters + bit payload to a versioned byte blob.
  std::string ToBytes() const;

  /// Reconstructs a filter that answers identically to the serialized one.
  static Status FromBytes(std::string_view bytes, std::optional<ShbfM>* out);

 private:
  HashFamily family_;  // k/2 base functions + 1 offset function
  uint32_t num_hashes_;
  uint32_t max_offset_span_;
  BitArray bits_;
  size_t num_elements_ = 0;
};

}  // namespace shbf

#endif  // SHBF_SHBF_SHBF_MEMBERSHIP_H_
