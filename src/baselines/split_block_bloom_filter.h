// Split-block Bloom filter (cf. Boost.Bloom's multiblock<> subfilters) —
// the one-vector-op-per-key membership baseline.
//
// All k probes of a key stay inside one block of at most one cache line.
// The block is divided into `sub_block_bits`-wide sub-words and probe i is
// pinned to sub-word i % num_sub, so the probe-to-word mapping is
// key-independent and the whole derivation goes wide:
//
//   * ONE 128-bit hash pass (HashFamily::HashPair);
//   * the block index is a multiply-shift range reduction (FastRange64),
//     not a division;
//   * the k in-sub-word positions are disjoint 6-bit FIELDS of h2 (plus
//     parallel Mix64 words when k > 10) — no serial SplitMix64 chain, every
//     position extracts independently;
//   * the mask is k independent shift/ORs, which the out-of-order core
//     overlaps with the block fetch PrepareProbe has already issued.
//
// The resolve is one whole-block subset test (simd::BlockSubsetTest; one
// 512-bit op on AVX-512F).
//
// Geometry: sub_block_bits ∈ {8, 16, 32, 64} (powers of two dividing 64,
// so a sub-word never straddles a 64-bit word), block_bits a multiple of
// 64 in [64, 512]. When k < num_sub some sub-words go permanently unused
// (wasted bits); the registry factory sizes block_bits = k * sub_block_bits
// (clamped) so the default geometry wastes nothing and probe i owns word i.
//
// FPR: one probe per sub-word is the classic partitioned-Bloom variant of
// a cache-blocked filter — it pays the Poisson block-loading penalty,
// bounded by the bench's acceptance gate at 2x the unblocked base at equal
// bits/key.

#ifndef SHBF_BASELINES_SPLIT_BLOCK_BLOOM_FILTER_H_
#define SHBF_BASELINES_SPLIT_BLOCK_BLOOM_FILTER_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/bit_array.h"
#include "core/query_stats.h"
#include "core/serde.h"
#include "core/status.h"
#include "hash/hash_family.h"

namespace shbf {

class SplitBlockBloomFilter {
 public:
  /// A block is at most one cache line, so a probe mask fits 8 words.
  static constexpr uint32_t kMinBlockBits = 64;
  static constexpr uint32_t kMaxBlockBits = 512;
  static constexpr uint32_t kMaxBlockWords = kMaxBlockBits / 64;

  /// Largest k the probe/batch paths support.
  static constexpr uint32_t kMaxBatchHashes = 64;

  struct Params {
    size_t num_bits = 0;      ///< m; rounded up to a multiple of block_bits
    uint32_t num_hashes = 0;  ///< k probes, one per sub-word (round-robin)
    uint32_t block_bits = 512;      ///< multiple of 64 in [64, 512]
    uint32_t sub_block_bits = 64;   ///< power of two in [8, 64]
    HashAlgorithm hash_algorithm = HashAlgorithm::kMurmur3;
    uint64_t seed = 0x5eed5eed5eed5eedull;

    Status Validate() const;
  };

  explicit SplitBlockBloomFilter(const Params& params);

  /// Wraps externally stored bits (a BitArray::View into an mmap'd image
  /// region) without copying. `params.num_bits` must already be block-
  /// aligned and equal the view's num_bits (slack 0); the registry's
  /// mapped opener validates the on-disk geometry first. Read-only usage.
  SplitBlockBloomFilter(const Params& params, BitArray bits,
                        size_t num_elements);

  /// Inserts `key`: one 128-bit hash pass over the key bytes (the block and
  /// all k sub-word positions derive from its two halves).
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

  /// Batched membership query through the two-pass probe loop
  /// (core/probe_loop.h).
  void ContainsBatch(const std::vector<std::string>& keys,
                     std::vector<uint8_t>* results) const;

  /// Probe-loop constants (core/probe_loop.h): one line per key, so groups
  /// of 8 saturate the line-fill buffers, and PrepareProbe prefetches.
  static constexpr size_t kProbeGroupCap = 8;
  static constexpr bool kPrepareProbePrefetches = true;

  /// Precomputed query state — same shape as SplitBlockShbfM::Probe: a
  /// key's whole answer is one block mask and one BlockSubsetTest.
  struct Probe {
    size_t block_word;              ///< first word of the block
    uint64_t mask[kMaxBlockWords];  ///< bits the key needs set
  };

  /// Computes `key`'s block and probe mask (one hash pass + k shift/ORs);
  /// also issues the block prefetch, so the mask math overlaps the fetch.
  void PrepareProbe(std::string_view key, Probe* probe) const;

  /// Resolves a prepared probe; identical answer to Contains(key).
  bool ResolveProbe(const Probe& probe) const;

  size_t num_bits() const { return bits_.num_bits(); }
  uint32_t num_hashes() const { return num_hashes_; }
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
  /// family, seed, block and sub-block size.
  Status MergeFrom(const SplitBlockBloomFilter& other);

  /// Serializes parameters + bit payload to a versioned byte blob.
  std::string ToBytes() const;

  /// Reconstructs a filter that answers identically to the serialized one.
  static Status FromBytes(std::string_view bytes,
                          std::optional<SplitBlockBloomFilter>* out);

 private:
  /// 6-bit position fields per 64-bit pool word; pool word 0 is h2 itself,
  /// further words are parallel Mix64 derivations (no serial chain).
  static constexpr uint32_t kFieldsPerWord = 10;
  static constexpr uint32_t kMaxRotWords =
      (kMaxBatchHashes + kFieldsPerWord - 1) / kFieldsPerWord;

  /// One hash pass; hands back the block's first word (prefetched) and the
  /// probe mask (mask[word_of_[i]] |= 1 << (base_shift + position)).
  void DeriveProbe(const void* data, size_t len, size_t* block_word,
                   uint64_t* mask) const;

  /// Fills word_of_/base_shift_/rot_word_/rot_shift_ from the
  /// (key-independent) probe→sub-word round-robin mapping.
  void BuildLayout();

  HashFamily family_;  // one 128-bit pass; positions are fields of h2
  uint32_t num_hashes_;
  uint32_t block_bits_;
  uint32_t sub_block_bits_;
  size_t num_blocks_;
  BitArray bits_;
  size_t num_elements_ = 0;

  /// Probe i's block word and its sub-word's bit offset inside that word;
  /// key-independent because sub_block_bits divides 64.
  uint8_t word_of_[kMaxBatchHashes];
  uint8_t base_shift_[kMaxBatchHashes];
  /// Which position-pool word probe i's 6-bit field lives in, and the
  /// field's shift inside it.
  uint8_t rot_word_[kMaxBatchHashes];
  uint8_t rot_shift_[kMaxBatchHashes];
  uint32_t num_rot_words_ = 1;
};

}  // namespace shbf

#endif  // SHBF_BASELINES_SPLIT_BLOCK_BLOOM_FILTER_H_
