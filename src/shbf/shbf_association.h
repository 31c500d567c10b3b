// ShBF_A — the Shifting Bloom Filter for association queries (paper §4).
//
// Given two (possibly overlapping) sets S1 and S2, a single m-bit array
// encodes which side(s) each element of S1 ∪ S2 belongs to, in the offset:
//     e ∈ S1 − S2 : o(e) = 0
//     e ∈ S1 ∩ S2 : o(e) = o1(e) = h_{k+1}(e) % ((w̄−1)/2) + 1   ∈ [1, 28]
//     e ∈ S2 − S1 : o(e) = o2(e) = o1(e) + h_{k+2}(e) % ((w̄−1)/2) + 1
// and the k bits B[h_i(e)%m + o(e)] are set. A query reads, per i, the three
// bits at offsets {0, o1, o2} — all inside one w̄-bit window, i.e. ONE memory
// access per i (k total, vs 2k for iBF), with k + 2 hash computations (vs 2k).
//
// The three AND-flags across i yield the paper's seven outcomes; outcomes
// 1–3 ("clear answers") are never wrong — unlike iBF, a declared
// intersection cannot be a false positive. Probability of a clear answer at
// optimal load is (1 − 0.5^k)², vs iBF's (2/3)(1 − 0.5^k) (Table 2).
//
// CountingShbfA extends this with inserts/deletes, handling the offset
// transitions an element undergoes as it moves between S1−S2, S1∩S2, S2−S1.

#ifndef SHBF_SHBF_SHBF_ASSOCIATION_H_
#define SHBF_SHBF_SHBF_ASSOCIATION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/bit_array.h"
#include "core/serde.h"
#include "core/bits.h"
#include "core/chained_hash_table.h"
#include "core/packed_counter_array.h"
#include "core/query_stats.h"
#include "core/set_query_types.h"
#include "core/status.h"
#include "hash/hash_family.h"

namespace shbf {

/// Parameters shared by ShbfA and CountingShbfA.
struct ShbfAParams {
  size_t num_bits = 0;      ///< m
  uint32_t num_hashes = 0;  ///< k
  /// w̄; offsets o1 ∈ [1, (w̄−1)/2], o2 ∈ [2, w̄−1]. Default 57 ⇒ one-access
  /// triples on 64-bit machines. Must be odd so (w̄−1)/2 is exact.
  uint32_t max_offset_span = kDefaultMaxOffsetSpan;
  HashAlgorithm hash_algorithm = HashAlgorithm::kMurmur3;
  uint64_t seed = 0x5eed5eed5eed5eedull;

  Status Validate() const;

  /// Table 2 sizing: m = (n1 + n2 − n3)·k / ln 2 where n3 = |S1 ∩ S2|.
  static ShbfAParams Optimal(size_t n1, size_t n2, size_t n_intersection,
                             uint32_t num_hashes);
};

class ShbfA {
 public:
  explicit ShbfA(const ShbfAParams& params);

  /// Bulk construction per §4.1: builds hash tables over s1/s2 internally to
  /// classify each element into the three cases, then writes the bit array.
  /// Duplicate keys within a set are ignored (sets, not multisets).
  void Build(const std::vector<std::string>& s1,
             const std::vector<std::string>& s2);

  /// Association query for `key`; intended for keys in S1 ∪ S2 (§4.2), but
  /// returns kNotFound if no pattern matches (definitely outside the union).
  AssociationOutcome Query(std::string_view key) const;
  AssociationOutcome QueryWithStats(std::string_view key,
                                    QueryStats* stats) const;

  struct Offsets {
    uint64_t o1;
    uint64_t o2;
  };
  /// The candidate offsets of `key` (test hook).
  Offsets OffsetsOf(std::string_view key) const;

  /// Largest k the probe/batch paths support.
  static constexpr uint32_t kMaxBatchHashes = 64;

  /// Probe-loop constants (core/probe_loop.h); see ShbfM.
  static constexpr size_t kProbeGroupCap = SIZE_MAX;
  static constexpr bool kPrepareProbePrefetches = false;

  /// Precomputed query state for one key (hashes only, no filter memory
  /// touched); see ShbfM::Probe for the two-pass batch protocol.
  struct Probe {
    uint64_t bit_s1;                ///< 1: the S1-only offset pattern
    uint64_t bit_both;              ///< 1 << o1(e)
    uint64_t bit_s2;                ///< 1 << o2(e)
    size_t bases[kMaxBatchHashes];  ///< h_i(e) % m for i < num_hashes()
  };

  /// Computes `key`'s k base positions and three candidate bit patterns.
  /// Requires num_hashes() <= 64.
  void PrepareProbe(std::string_view key, Probe* probe) const;

  /// Hints the cache to fetch every window `probe` will load.
  void PrefetchProbe(const Probe& probe) const;

  /// Resolves a prepared probe; identical answer to Query(key).
  AssociationOutcome ResolveProbe(const Probe& probe) const;

  size_t num_bits() const { return bits_.num_bits(); }
  uint32_t num_hashes() const { return num_hashes_; }
  const BitArray& bits() const { return bits_; }
  void Clear() { bits_.Clear(); }

  /// Serializes parameters + bit payload to a versioned byte blob.
  std::string ToBytes() const;

  /// Reconstructs a filter that answers identically to the serialized one.
  static Status FromBytes(std::string_view bytes, std::optional<ShbfA>* out);

 private:
  friend class CountingShbfA;

  /// Sets the k bits of `key` shifted by `offset`.
  void AddWithOffset(std::string_view key, uint64_t offset);

  /// Decodes the three AND-flags into the seven outcomes (§4.2).
  static AssociationOutcome Decode(bool s1_only, bool both, bool s2_only);

  HashFamily family_;  // k base functions + 2 offset functions
  uint32_t num_hashes_;
  uint32_t max_offset_span_;
  uint32_t half_span_;  // (w̄ − 1) / 2
  BitArray bits_;
};

class CountingShbfA {
 public:
  struct Params {
    ShbfAParams filter;
    uint32_t counter_bits = 4;

    Status Validate() const;
  };

  explicit CountingShbfA(const Params& params);

  /// Adds `key` to S1/S2, migrating its stored offset when it changes case
  /// (e.g. S2-only → intersection). Set semantics: re-inserting is a no-op.
  void InsertS1(std::string_view key);
  void InsertS2(std::string_view key);

  /// Removes `key` from S1/S2, again migrating cases; returns false if the
  /// key is not in that set.
  bool DeleteS1(std::string_view key);
  bool DeleteS2(std::string_view key);

  /// Query against the bit array (same cost profile as ShbfA::Query).
  AssociationOutcome Query(std::string_view key) const {
    return filter_.Query(key);
  }
  AssociationOutcome QueryWithStats(std::string_view key,
                                    QueryStats* stats) const {
    return filter_.QueryWithStats(key, stats);
  }

  /// Exact membership from the internal tables (the paper's T1/T2).
  bool InS1(std::string_view key) const { return t1_.Contains(key); }
  bool InS2(std::string_view key) const { return t2_.Contains(key); }
  size_t size_s1() const { return t1_.size(); }
  size_t size_s2() const { return t2_.size(); }

  /// Enumerates the exact side tables (serde/replication hook): the state of
  /// this structure is a deterministic function of (params, S1, S2).
  void ForEachS1(const std::function<void(std::string_view)>& fn) const {
    t1_.ForEach([&fn](std::string_view key, uint64_t) { fn(key); });
  }
  void ForEachS2(const std::function<void(std::string_view)>& fn) const {
    t2_.ForEach([&fn](std::string_view key, uint64_t) { fn(key); });
  }

  /// True iff the bit array equals the projection of the counters (test hook).
  bool SynchronizedWithCounters() const;

  /// Clears to the empty structure (bits, counters and side tables).
  void Clear() {
    filter_.Clear();
    counters_.Clear();
    t1_.Clear();
    t2_.Clear();
  }

 private:
  /// Offset under which `key` is currently stored, derived from (inS1, inS2).
  uint64_t CurrentOffset(bool in_s1, bool in_s2, std::string_view key) const;

  void AddCells(std::string_view key, uint64_t offset);
  void RemoveCells(std::string_view key, uint64_t offset);

  ShbfA filter_;
  PackedCounterArray counters_;
  ChainedHashTable t1_;
  ChainedHashTable t2_;
};

}  // namespace shbf

#endif  // SHBF_SHBF_SHBF_ASSOCIATION_H_
