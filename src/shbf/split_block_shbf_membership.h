// Split-block ShBF_M — shifting pairs with a one-vector-op resolve.
//
// ShBF_M (§3) needs k/2 windowed reads per query, one per (base,
// base+offset) pair. The split-block variant confines every pair of a key to
// one block of at most one cache line: pair i is pinned to sub-word
// i % num_sub of its block and placed on the sub-word's CIRCLE: first bit
// at rotation r(e, i), uniform over all sub_block_bits positions, second
// bit at (r + o(e)) mod sub_block_bits. Consequences:
//
//   * the probe becomes the same {block_word, mask[8]} shape as the
//     split-block Bloom filter: pair patterns OR into a whole-block mask,
//     and ONE simd::BlockSubsetTest answers all pairs of a key at once —
//     no per-pair loads, no cross-key gather pass;
//   * the derivation goes wide: one 128-bit hash pass (HashPair), a
//     multiply-shift block reduction (FastRange64), rotations as disjoint
//     6-bit fields of h2 (parallel Mix64 words past 10 pairs) — no serial
//     SplitMix64 chain. The 2·(k/2) mask bits are independent shift/ORs
//     that overlap with the block fetch PrepareProbe has already issued;
//   * the circular placement keeps per-bit fill uniform — a windowed
//     layout (bases clamped to [0, s − w̄]) concentrates first bits in the
//     low end of each sub-word and measurably breaks the 2x FPR budget;
//   * only the block index depends on num_bits, so a lookup splits into a
//     geometry-free KeyProbe (hash pass + mask) and a per-filter resolve
//     (block reduction + subset test). Filters of one probe family share
//     the KeyProbe: the multi-set index hashes a key once for all of them.
//
// Offsets live in [1, max_offset_span − 1] with max_offset_span <
// sub_block_bits (default sub_block_bits/2 = 32). Keys sharing a block
// collide more than in plain ShBF_M; the acceptance gate bounds the penalty
// at 2x at equal bits/key.

#ifndef SHBF_SHBF_SPLIT_BLOCK_SHBF_MEMBERSHIP_H_
#define SHBF_SHBF_SPLIT_BLOCK_SHBF_MEMBERSHIP_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/bit_array.h"
#include "core/bits.h"
#include "core/query_stats.h"
#include "core/serde.h"
#include "core/status.h"
#include "hash/hash_family.h"

namespace shbf {

class SplitBlockShbfM {
 public:
  static constexpr uint32_t kMinBlockBits = 64;
  static constexpr uint32_t kMaxBlockBits = 512;
  static constexpr uint32_t kMaxBlockWords = kMaxBlockBits / 64;

  /// Largest k/2 the probe/batch paths support (k <= 64).
  static constexpr uint32_t kMaxBatchPairs = 32;

  struct Params {
    size_t num_bits = 0;      ///< m; rounded up to a multiple of block_bits
    uint32_t num_hashes = 0;  ///< k; must be even (k/2 pairs), >= 2
    uint32_t block_bits = 256;     ///< multiple of 64 in [64, 512]
    uint32_t sub_block_bits = 64;  ///< power of two in [16, 64]
    /// w̄: offsets lie in [1, max_offset_span − 1]; must stay below
    /// sub_block_bits so a pair never leaves its sub-word.
    uint32_t max_offset_span = 32;
    HashAlgorithm hash_algorithm = HashAlgorithm::kMurmur3;
    uint64_t seed = 0x5eed5eed5eed5eedull;

    Status Validate() const;
  };

  explicit SplitBlockShbfM(const Params& params);

  /// Wraps externally stored bits (a BitArray::View into an mmap'd image
  /// region) without copying. `params.num_bits` must already be block-
  /// aligned and equal the view's num_bits (slack 0); the registry's
  /// mapped opener validates the on-disk geometry first. Read-only usage.
  SplitBlockShbfM(const Params& params, BitArray bits, size_t num_elements);

  /// Inserts `key`: one 128-bit hash pass over the key bytes (block, offset
  /// and all k/2 rotations derive from its halves), k bits set — all inside
  /// one block.
  void Add(std::string_view key) { Add(key.data(), key.size()); }
  void Add(const void* data, size_t len);

  /// Membership query; no false negatives. One block read, one subset test.
  bool Contains(std::string_view key) const {
    return Contains(key.data(), key.size());
  }
  bool Contains(const void* data, size_t len) const;

  /// Query under the paper's cost model: the whole block is one memory
  /// access; two hash computations.
  bool ContainsWithStats(std::string_view key, QueryStats* stats) const;

  /// Batched membership query (two-pass prepare/prefetch/resolve groups).
  void ContainsBatch(const std::vector<std::string>& keys,
                     std::vector<uint8_t>* results) const;

  /// A key's probe with the filter size factored out. The mask depends only
  /// on the probe family (hash algorithm, seed, k, block_bits,
  /// sub_block_bits, max_offset_span); only the block index depends on
  /// num_bits, and it is reduced from `h1` per filter. So every filter of
  /// one family (SameProbeFamily) resolves the same KeyProbe, and one hash
  /// pass serves any number of them.
  struct KeyProbe {
    uint64_t h1;                    ///< block hash; BlockWordOf reduces it
    uint64_t mask[kMaxBlockWords];  ///< every pair pattern, pre-positioned
  };

  /// The geometry-free half of a lookup: one hash pass plus the mask build.
  /// Contains and Add start here; PrepareProbe runs the same derivation
  /// straight into its Probe.
  void PrepareKeyProbe(std::string_view key, KeyProbe* probe) const {
    probe->h1 = DeriveMask(key.data(), key.size(), probe->mask);
  }

  /// The per-filter half: `h1`'s block, as the first word of the block.
  size_t BlockWordOf(uint64_t h1) const {
    return FastRange64(h1, num_blocks_) * (block_bits_ / 64);
  }

  /// Resolves a key probe from this filter or any filter of its family;
  /// identical answer to Contains(key).
  bool ResolveKeyProbe(const KeyProbe& probe) const;

  /// Frontier form of ResolveKeyProbe: keeps, in order, every alive[j]
  /// whose probes[alive[j]] resolves true, compacted to the front of
  /// `alive`; returns how many were kept. One SIMD dispatch per call.
  size_t ResolveKeyProbes(const KeyProbe* probes, uint32_t* alive,
                          size_t n) const;

  /// True iff `other` derives the same KeyProbe for every key: everything
  /// but num_bits matches.
  bool SameProbeFamily(const SplitBlockShbfM& other) const;

  /// Precomputed query state — same shape as SplitBlockBloomFilter::Probe,
  /// so the engine resolves both through one BlockSubsetTest path with no
  /// gather staging.
  struct Probe {
    size_t block_word;              ///< first word of the block
    uint64_t mask[kMaxBlockWords];  ///< every pair pattern, pre-positioned
  };

  /// Computes `key`'s block and pair-pattern mask (PrepareKeyProbe, then
  /// BlockWordOf) and issues the block prefetch.
  void PrepareProbe(std::string_view key, Probe* probe) const;

  /// Hints the cache to fetch the (single) block `probe` reads.
  void PrefetchProbe(const Probe& probe) const;

  /// Resolves a prepared probe; identical answer to Contains(key).
  bool ResolveProbe(const Probe& probe) const;

  /// The offset o(key) ∈ [1, max_offset_span − 1]; exposed for tests.
  uint64_t OffsetOf(std::string_view key) const;

  size_t num_bits() const { return bits_.num_bits(); }
  uint32_t num_hashes() const { return num_hashes_; }
  uint32_t num_pairs() const { return num_hashes_ / 2; }
  uint32_t max_offset_span() const { return max_offset_span_; }
  uint32_t block_bits() const { return block_bits_; }
  uint32_t block_words() const { return block_bits_ / 64; }
  uint32_t sub_block_bits() const { return sub_block_bits_; }
  uint32_t num_sub_blocks() const { return block_bits_ / sub_block_bits_; }
  size_t num_blocks() const { return num_blocks_; }
  HashAlgorithm hash_algorithm() const { return family_.algorithm(); }
  uint64_t seed() const { return family_.master_seed(); }
  size_t num_elements() const { return num_elements_; }
  const BitArray& bits() const { return bits_; }

  void Clear();

  /// Set-union via bitwise OR; both filters must share geometry, hash
  /// family, seed, offset span, block and sub-block size.
  Status MergeFrom(const SplitBlockShbfM& other);

  /// Serializes parameters + bit payload to a versioned byte blob.
  std::string ToBytes() const;

  /// Reconstructs a filter that answers identically to the serialized one.
  static Status FromBytes(std::string_view bytes,
                          std::optional<SplitBlockShbfM>* out);

 private:
  /// 6-bit rotation fields per 64-bit pool word; pool word 0 is h2 itself,
  /// further words are parallel Mix64 derivations (no serial chain).
  static constexpr uint32_t kFieldsPerWord = 10;
  static constexpr uint32_t kMaxRotWords =
      (kMaxBatchPairs + kFieldsPerWord - 1) / kFieldsPerWord;

  /// The geometry-free derivation: one hash pass, the 2·pairs shift lanes
  /// (first bits, then second bits); returns h1 for the block reduction.
  uint64_t DeriveLanes(const void* data, size_t len, uint64_t* shifts) const;

  /// DeriveLanes + the scalar mask build (mask[word_of_[i]] |= 1 << shift);
  /// returns h1.
  uint64_t DeriveMask(const void* data, size_t len, uint64_t* mask) const;

  /// Fills word_of_/base_shift_/rot_word_/rot_shift_ from the
  /// (key-independent) pair→sub-word round-robin mapping.
  void BuildLayout();

  HashFamily family_;  // one 128-bit pass; rotations are fields of h2
  uint32_t num_hashes_;
  uint32_t max_offset_span_;
  uint32_t block_bits_;
  uint32_t sub_block_bits_;
  size_t num_blocks_;
  BitArray bits_;
  size_t num_elements_ = 0;

  /// Pair i's block word and its sub-word's bit offset inside that word;
  /// key-independent because sub_block_bits divides 64.
  uint8_t word_of_[kMaxBatchPairs];
  uint8_t base_shift_[kMaxBatchPairs];
  /// Which rotation-pool word pair i's 6-bit field lives in, and the
  /// field's shift inside it.
  uint8_t rot_word_[kMaxBatchPairs];
  uint8_t rot_shift_[kMaxBatchPairs];
  uint32_t num_rot_words_ = 1;
};

}  // namespace shbf

#endif  // SHBF_SHBF_SPLIT_BLOCK_SHBF_MEMBERSHIP_H_
