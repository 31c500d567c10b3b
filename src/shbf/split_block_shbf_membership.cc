#include "shbf/split_block_shbf_membership.h"

#include <algorithm>
#include <cstring>

#include "core/rng.h"
#include "core/simd.h"

namespace shbf {

Status SplitBlockShbfM::Params::Validate() const {
  if (num_bits == 0) {
    return Status::InvalidArgument(
        "SplitBlockShbfM: num_bits must be positive");
  }
  if (num_hashes < 2 || num_hashes % 2 != 0 ||
      num_hashes / 2 > kMaxBatchPairs) {
    return Status::InvalidArgument(
        "SplitBlockShbfM: num_hashes must be even in [2, 64] (k/2 pairs)");
  }
  if (block_bits < kMinBlockBits || block_bits > kMaxBlockBits ||
      block_bits % 64 != 0) {
    return Status::InvalidArgument(
        "SplitBlockShbfM: block_bits must be a multiple of 64 in [64, 512]");
  }
  if (sub_block_bits < 16 || sub_block_bits > 64 ||
      !IsPowerOfTwo(uint64_t{sub_block_bits})) {
    // 8-bit sub-words would leave at most 7 base+offset positions — the
    // FPR collapses — so the floor is 16 here (vs 8 for the Bloom layout).
    return Status::InvalidArgument(
        "SplitBlockShbfM: sub_block_bits must be a power of two in [16, 64]");
  }
  if (max_offset_span < 2) {
    return Status::InvalidArgument(
        "SplitBlockShbfM: max_offset_span must be >= 2 so offsets are "
        "nonzero");
  }
  if (max_offset_span >= sub_block_bits) {
    return Status::InvalidArgument(
        "SplitBlockShbfM: max_offset_span must stay below sub_block_bits so "
        "a pair fits inside one sub-word");
  }
  return Status::Ok();
}

SplitBlockShbfM::SplitBlockShbfM(const Params& params)
    : family_(params.hash_algorithm, 2, params.seed),
      num_hashes_(params.num_hashes),
      max_offset_span_(params.max_offset_span),
      block_bits_(params.block_bits),
      sub_block_bits_(params.sub_block_bits),
      num_blocks_(CeilDiv(params.num_bits, size_t{params.block_bits})),
      // Pairs never leave their sub-word, so no slack bits are needed.
      bits_(num_blocks_ * params.block_bits, /*slack_bits=*/0) {
  CheckOk(params.Validate());
  BuildLayout();
}

SplitBlockShbfM::SplitBlockShbfM(const Params& params, BitArray bits,
                                 size_t num_elements)
    : family_(params.hash_algorithm, 2, params.seed),
      num_hashes_(params.num_hashes),
      max_offset_span_(params.max_offset_span),
      block_bits_(params.block_bits),
      sub_block_bits_(params.sub_block_bits),
      num_blocks_(params.num_bits / params.block_bits),
      bits_(std::move(bits)),
      num_elements_(num_elements) {
  CheckOk(params.Validate());
  SHBF_CHECK(params.num_bits % params.block_bits == 0 &&
             bits_.num_bits() == params.num_bits &&
             bits_.total_bits() == params.num_bits)
      << "split_block_shbf_m: adopted bits don't match the spec geometry";
  BuildLayout();
}

void SplitBlockShbfM::BuildLayout() {
  const uint32_t num_sub = block_bits_ / sub_block_bits_;
  const uint32_t pairs = num_hashes_ / 2;
  for (uint32_t i = 0; i < pairs; ++i) {
    const uint32_t sub = i % num_sub;
    const uint32_t first_bit = sub * sub_block_bits_;
    word_of_[i] = static_cast<uint8_t>(first_bit / 64);
    base_shift_[i] = static_cast<uint8_t>(first_bit % 64);
    rot_word_[i] = static_cast<uint8_t>(i / kFieldsPerWord);
    rot_shift_[i] = static_cast<uint8_t>(6 * (i % kFieldsPerWord));
  }
  num_rot_words_ = (pairs + kFieldsPerWord - 1) / kFieldsPerWord;
}

// ONE 128-bit pass over the key bytes derives everything: the block from
// h1's high bits (multiply-shift range reduction, BlockWordOf), the shared
// offset from a golden-multiplied fold of h1, the per-pair rotations from
// disjoint 6-bit fields of h2 (parallel Mix64 words past 10 pairs). Nothing
// here chains: a serial rotation stream is a latency chain the per-key
// query pays in full.
//
// Each pair lives on the sub-word's CIRCLE: its first bit sits at rotation
// r (uniform over all sub_block_bits positions) and its second at
// (r + offset) mod sub_block_bits. Clamping bases to [0, s − span] instead
// — the windowed layout — would pile every first bit into the low third of
// the sub-word, and the resulting skewed fill measurably breaks the 2x FPR
// budget.
//
// Only the block depends on num_bits, so the lanes are derived without it:
// filters of one probe family (SameProbeFamily) share them, and each
// filter reduces h1 to its own block.
uint64_t SplitBlockShbfM::DeriveLanes(const void* data, size_t len,
                                      uint64_t* shifts) const {
  const auto [h1, h2] = family_.HashPair(0, data, len);
  // The block consumes h1's high bits; the golden multiply re-mixes them
  // before the offset's own high-bit range reduction.
  const uint64_t offset =
      FastRange64(h1 * 0x9e3779b97f4a7c15ull, max_offset_span_ - 1) + 1;
  uint64_t pool[kMaxRotWords];
  pool[0] = h2;
  for (uint32_t j = 1; j < num_rot_words_; ++j) {
    pool[j] = Mix64(h1 + 0x9e3779b97f4a7c15ull * j);
  }
  const uint32_t pairs = num_hashes_ / 2;
  const uint64_t sub_mask = sub_block_bits_ - 1;
  for (uint32_t i = 0; i < pairs; ++i) {
    const uint64_t rotation =
        (pool[rot_word_[i]] >> rot_shift_[i]) & sub_mask;
    shifts[i] = base_shift_[i] + rotation;
    shifts[pairs + i] = base_shift_[i] + ((rotation + offset) & sub_mask);
  }
  return h1;
}

uint64_t SplitBlockShbfM::DeriveMask(const void* data, size_t len,
                                     uint64_t* mask) const {
  uint64_t shifts[2 * kMaxBatchPairs];
  const uint64_t h1 = DeriveLanes(data, len, shifts);
  const uint32_t pairs = num_hashes_ / 2;
  const uint32_t words = block_bits_ / 64;
  std::fill(mask, mask + words, 0);
  // Scalar on purpose: the shift/ORs are independent and pipeline fully; a
  // vector shift pays more in dispatch than it saves at this width, per key
  // and across a batch alike (docs/benchmarks.md "Split-block probe loop").
  for (uint32_t i = 0; i < pairs; ++i) {
    mask[word_of_[i]] |= (uint64_t{1} << shifts[i]) |
                         (uint64_t{1} << shifts[pairs + i]);
  }
  return h1;
}

bool SplitBlockShbfM::ResolveKeyProbe(const KeyProbe& probe) const {
  return simd::BlockSubsetTest(bits_.data() + BlockWordOf(probe.h1) * 8,
                               probe.mask, block_bits_ / 64);
}

size_t SplitBlockShbfM::ResolveKeyProbes(const KeyProbe* probes,
                                         uint32_t* alive, size_t n) const {
  return simd::BlockSubsetFilter(bits_.data(), num_blocks_, block_bits_ / 64,
                                 probes, alive, n);
}

bool SplitBlockShbfM::SameProbeFamily(const SplitBlockShbfM& other) const {
  return family_.algorithm() == other.family_.algorithm() &&
         family_.master_seed() == other.family_.master_seed() &&
         num_hashes_ == other.num_hashes_ &&
         max_offset_span_ == other.max_offset_span_ &&
         block_bits_ == other.block_bits_ &&
         sub_block_bits_ == other.sub_block_bits_;
}

uint64_t SplitBlockShbfM::OffsetOf(std::string_view key) const {
  // Pair 0's second bit sits `offset` past its first, around the circle.
  uint64_t shifts[2 * kMaxBatchPairs];
  DeriveLanes(key.data(), key.size(), shifts);
  return (shifts[num_hashes_ / 2] - shifts[0]) & (sub_block_bits_ - 1);
}

void SplitBlockShbfM::Add(const void* data, size_t len) {
  KeyProbe probe;
  PrepareKeyProbe({static_cast<const char*>(data), len}, &probe);
  uint8_t* block = bits_.mutable_data() + BlockWordOf(probe.h1) * 8;
  const uint32_t words = block_bits_ / 64;
  for (uint32_t w = 0; w < words; ++w) {
    uint64_t word;
    std::memcpy(&word, block + w * 8, sizeof(word));
    word |= probe.mask[w];
    std::memcpy(block + w * 8, &word, sizeof(word));
  }
  ++num_elements_;
}

bool SplitBlockShbfM::Contains(const void* data, size_t len) const {
  KeyProbe probe;
  PrepareKeyProbe({static_cast<const char*>(data), len}, &probe);
  return ResolveKeyProbe(probe);
}

bool SplitBlockShbfM::ContainsWithStats(std::string_view key,
                                        QueryStats* stats) const {
  ++stats->queries;
  // ONE 128-bit key pass derives block, offset AND every rotation; all
  // pairs resolve against the one resident block, so the whole query is one
  // memory access under the paper's cost model (non-murmur algorithms fall
  // back to two passes, which this model does not charge for).
  stats->hash_computations += 1;
  ++stats->memory_accesses;
  return Contains(key.data(), key.size());
}

void SplitBlockShbfM::PrepareProbe(std::string_view key, Probe* probe) const {
  probe->block_word =
      BlockWordOf(DeriveMask(key.data(), key.size(), probe->mask));
  bits_.Prefetch(probe->block_word * 64);
}

void SplitBlockShbfM::PrefetchProbe(const Probe& probe) const {
  bits_.Prefetch(probe.block_word * 64);
}

bool SplitBlockShbfM::ResolveProbe(const Probe& probe) const {
  return simd::BlockSubsetTest(bits_.data() + probe.block_word * 8,
                               probe.mask, block_bits_ / 64);
}

void SplitBlockShbfM::ContainsBatch(const std::vector<std::string>& keys,
                                    std::vector<uint8_t>* results) const {
  results->resize(keys.size());
  if (keys.empty()) return;
  constexpr size_t kGroup = 16;
  Probe probes[kGroup];
  for (size_t start = 0; start < keys.size(); start += kGroup) {
    const size_t group = std::min(kGroup, keys.size() - start);
    for (size_t g = 0; g < group; ++g) {
      PrepareProbe(keys[start + g], &probes[g]);
      PrefetchProbe(probes[g]);
    }
    for (size_t g = 0; g < group; ++g) {
      (*results)[start + g] = ResolveProbe(probes[g]) ? 1 : 0;
    }
  }
}

void SplitBlockShbfM::Clear() {
  bits_.Clear();
  num_elements_ = 0;
}

Status SplitBlockShbfM::MergeFrom(const SplitBlockShbfM& other) {
  if (!SameProbeFamily(other)) {
    return Status::FailedPrecondition(
        "SplitBlockShbfM::MergeFrom: hash families differ");
  }
  if (!bits_.OrWith(other.bits_)) {
    return Status::FailedPrecondition(
        "SplitBlockShbfM::MergeFrom: geometry differs");
  }
  num_elements_ += other.num_elements_;
  return Status::Ok();
}

std::string SplitBlockShbfM::ToBytes() const {
  ByteWriter writer;
  serde::WriteHeader(&writer, serde::StructureTag::kSplitBlockShbfM);
  writer.PutU64(bits_.num_bits());
  writer.PutU32(num_hashes_);
  writer.PutU32(max_offset_span_);
  writer.PutU32(block_bits_);
  writer.PutU32(sub_block_bits_);
  writer.PutU8(static_cast<uint8_t>(family_.algorithm()));
  writer.PutU64(family_.master_seed());
  writer.PutU64(num_elements_);
  bits_.AppendPayload(&writer);
  return writer.Take();
}

Status SplitBlockShbfM::FromBytes(std::string_view bytes,
                                  std::optional<SplitBlockShbfM>* out) {
  ByteReader reader(bytes);
  Status header =
      serde::ReadHeader(&reader, serde::StructureTag::kSplitBlockShbfM);
  if (!header.ok()) return header;
  uint64_t num_bits = 0;
  uint32_t num_hashes = 0;
  uint32_t max_offset_span = 0;
  uint32_t block_bits = 0;
  uint32_t sub_block_bits = 0;
  uint8_t alg = 0;
  uint64_t seed = 0;
  uint64_t num_elements = 0;
  if (!reader.GetU64(&num_bits) || !reader.GetU32(&num_hashes) ||
      !reader.GetU32(&max_offset_span) || !reader.GetU32(&block_bits) ||
      !reader.GetU32(&sub_block_bits) || !reader.GetU8(&alg) ||
      !reader.GetU64(&seed) || !reader.GetU64(&num_elements)) {
    return Status::InvalidArgument(
        "SplitBlockShbfM: truncated parameter block");
  }
  if (alg > 3) {
    return Status::InvalidArgument("SplitBlockShbfM: unknown hash id");
  }
  Params params{.num_bits = num_bits,
                .num_hashes = num_hashes,
                .block_bits = block_bits,
                .sub_block_bits = sub_block_bits,
                .max_offset_span = max_offset_span,
                .hash_algorithm = static_cast<HashAlgorithm>(alg),
                .seed = seed};
  Status valid = params.Validate();
  if (!valid.ok()) return valid;
  if (num_bits % block_bits != 0) {
    return Status::InvalidArgument(
        "SplitBlockShbfM: num_bits not block-aligned");
  }
  out->emplace(params);
  (*out)->num_elements_ = num_elements;
  if (!(*out)->bits_.ReadPayload(&reader) || !reader.AtEnd()) {
    out->reset();
    return Status::InvalidArgument("SplitBlockShbfM: payload mismatch");
  }
  return Status::Ok();
}

}  // namespace shbf
