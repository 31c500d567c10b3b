#include "baselines/bloom_filter.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/probe_loop.h"

namespace shbf {

Status BloomFilter::Params::Validate() const {
  if (num_bits == 0) {
    return Status::InvalidArgument("BloomFilter: num_bits must be positive");
  }
  if (num_hashes == 0) {
    return Status::InvalidArgument("BloomFilter: num_hashes must be positive");
  }
  return Status::Ok();
}

size_t BloomFilter::OptimalNumBits(size_t num_elements, double fpr) {
  SHBF_CHECK(num_elements > 0);
  SHBF_CHECK(fpr > 0.0 && fpr < 1.0);
  double ln2 = std::log(2.0);
  double m = -static_cast<double>(num_elements) * std::log(fpr) / (ln2 * ln2);
  return static_cast<size_t>(std::ceil(m));
}

uint32_t BloomFilter::OptimalNumHashes(size_t num_bits, size_t num_elements) {
  SHBF_CHECK(num_elements > 0);
  double k = static_cast<double>(num_bits) / num_elements * std::log(2.0);
  return static_cast<uint32_t>(std::max(1.0, std::round(k)));
}

BloomFilter::BloomFilter(const Params& params)
    : family_(params.hash_algorithm, params.num_hashes, params.seed),
      // No shifting here: slack 0; the BitArray still pads guard bytes.
      bits_(params.num_bits, /*slack_bits=*/0) {
  CheckOk(params.Validate());
}

BloomFilter::BloomFilter(const Params& params, BitArray bits,
                         size_t num_elements)
    : family_(params.hash_algorithm, params.num_hashes, params.seed),
      bits_(std::move(bits)),
      num_elements_(num_elements) {
  CheckOk(params.Validate());
  SHBF_CHECK(bits_.num_bits() == params.num_bits &&
             bits_.total_bits() == params.num_bits)
      << "bloom: adopted bits don't match the spec geometry";
}

void BloomFilter::Add(const void* data, size_t len) {
  const size_t m = bits_.num_bits();
  for (uint32_t i = 0; i < family_.num_functions(); ++i) {
    bits_.SetBit(family_.Hash(i, data, len) % m);
  }
  ++num_elements_;
}

bool BloomFilter::Contains(const void* data, size_t len) const {
  const size_t m = bits_.num_bits();
  for (uint32_t i = 0; i < family_.num_functions(); ++i) {
    if (!bits_.GetBit(family_.Hash(i, data, len) % m)) return false;
  }
  return true;
}

bool BloomFilter::ContainsWithStats(std::string_view key,
                                    QueryStats* stats) const {
  const size_t m = bits_.num_bits();
  ++stats->queries;
  for (uint32_t i = 0; i < family_.num_functions(); ++i) {
    ++stats->hash_computations;
    ++stats->memory_accesses;
    if (!bits_.GetBit(family_.Hash(i, key.data(), key.size()) % m)) {
      return false;
    }
  }
  return true;
}

void BloomFilter::Clear() {
  bits_.Clear();
  num_elements_ = 0;
}

Status BloomFilter::MergeFrom(const BloomFilter& other) {
  if (family_.algorithm() != other.family_.algorithm() ||
      family_.master_seed() != other.family_.master_seed() ||
      num_hashes() != other.num_hashes()) {
    return Status::FailedPrecondition(
        "BloomFilter::MergeFrom: hash families differ");
  }
  if (!bits_.OrWith(other.bits_)) {
    return Status::FailedPrecondition(
        "BloomFilter::MergeFrom: geometry differs");
  }
  num_elements_ += other.num_elements_;
  return Status::Ok();
}

void BloomFilter::PrepareProbe(std::string_view key, Probe* probe) const {
  const size_t m = bits_.num_bits();
  const uint32_t k = family_.num_functions();
  SHBF_DCHECK(k <= kMaxBatchHashes);
  for (uint32_t i = 0; i < k; ++i) {
    probe->positions[i] = family_.Hash(i, key.data(), key.size()) % m;
  }
}

void BloomFilter::PrefetchProbe(const Probe& probe) const {
  const uint32_t k = family_.num_functions();
  for (uint32_t i = 0; i < k; ++i) bits_.Prefetch(probe.positions[i]);
}

bool BloomFilter::ResolveProbe(const Probe& probe) const {
  const uint32_t k = family_.num_functions();
  for (uint32_t i = 0; i < k; ++i) {
    if (!bits_.GetBit(probe.positions[i])) return false;
  }
  return true;
}

void BloomFilter::ContainsBatch(const std::vector<std::string>& keys,
                                std::vector<uint8_t>* results) const {
  SHBF_CHECK(family_.num_functions() <= kMaxBatchHashes)
      << "batch path supports k <= 64";
  RunProbeContains(*this, keys, kDefaultProbeGroup, results);
}

std::string BloomFilter::ToBytes() const {
  ByteWriter writer;
  serde::WriteHeader(&writer, serde::StructureTag::kBloomFilter);
  writer.PutU64(bits_.num_bits());
  writer.PutU32(family_.num_functions());
  writer.PutU8(static_cast<uint8_t>(family_.algorithm()));
  writer.PutU64(family_.master_seed());
  writer.PutU64(num_elements_);
  bits_.AppendPayload(&writer);
  return writer.Take();
}

Status BloomFilter::FromBytes(std::string_view bytes,
                              std::optional<BloomFilter>* out) {
  ByteReader reader(bytes);
  Status header = serde::ReadHeader(&reader, serde::StructureTag::kBloomFilter);
  if (!header.ok()) return header;
  uint64_t num_bits = 0;
  uint32_t num_hashes = 0;
  uint8_t alg = 0;
  uint64_t seed = 0;
  uint64_t num_elements = 0;
  if (!reader.GetU64(&num_bits) || !reader.GetU32(&num_hashes) ||
      !reader.GetU8(&alg) || !reader.GetU64(&seed) ||
      !reader.GetU64(&num_elements)) {
    return Status::InvalidArgument("BloomFilter: truncated parameter block");
  }
  Params params{.num_bits = num_bits,
                .num_hashes = num_hashes,
                .hash_algorithm = static_cast<HashAlgorithm>(alg),
                .seed = seed};
  if (alg > 3) return Status::InvalidArgument("BloomFilter: unknown hash id");
  Status valid = params.Validate();
  if (!valid.ok()) return valid;
  out->emplace(params);
  (*out)->num_elements_ = num_elements;
  if (!(*out)->bits_.ReadPayload(&reader) || !reader.AtEnd()) {
    out->reset();
    return Status::InvalidArgument("BloomFilter: payload size mismatch");
  }
  return Status::Ok();
}

}  // namespace shbf
