#include "engine/auto_scaling_filter.h"

#include <utility>

#include "api/filter_registry.h"
#include "core/check.h"
#include "core/serde.h"

namespace shbf {
namespace {

/// Golden-ratio seed salt: generation g hashes with seed ^ (g · salt), so
/// a collision in one generation is independent in the next.
constexpr uint64_t kGenerationSeedSalt = 0x9e3779b97f4a7c15ull;

}  // namespace

AutoScalingFilter::AutoScalingFilter(std::string base_name,
                                     const FilterSpec& base_spec,
                                     const FilterRegistry& registry,
                                     size_t gen_capacity)
    : name_(std::string(kNamePrefix) + base_name),
      base_name_(std::move(base_name)),
      base_spec_(base_spec),
      registry_(&registry),
      gen_capacity_(gen_capacity < 1 ? 1 : gen_capacity) {
  SHBF_CHECK(base_spec_.delta_capacity == 0 && !base_spec_.auto_scale &&
             base_spec_.shards == 1)
      << "AutoScalingFilter: base spec must be sanitized";
}

Status AutoScalingFilter::Create(const std::string& base_name,
                                 const FilterSpec& base_spec,
                                 const FilterRegistry& registry,
                                 size_t gen_capacity,
                                 std::unique_ptr<AutoScalingFilter>* out) {
  std::unique_ptr<AutoScalingFilter> filter(new AutoScalingFilter(
      base_name, base_spec, registry, gen_capacity));
  Status s = filter->OpenGeneration();
  if (!s.ok()) return s;
  filter->base_caps_ = filter->generations_[0].filter->capabilities();
  filter->base_incremental_ =
      filter->generations_[0].filter->IncrementalAdd();
  *out = std::move(filter);
  return Status::Ok();
}

FilterSpec AutoScalingFilter::GenerationSpec(size_t g) const {
  FilterSpec spec = base_spec_;
  spec.num_cells = base_spec_.num_cells << g;
  spec.expected_keys = (base_spec_.expected_keys > 0
                            ? base_spec_.expected_keys
                            : gen_capacity_)
                       << g;
  spec.seed = base_spec_.seed ^ (static_cast<uint64_t>(g) *
                                 kGenerationSeedSalt);
  return spec;
}

Status AutoScalingFilter::OpenGeneration() {
  const size_t g = generations_.size();
  Generation generation;
  Status s = registry_->Create(base_name_, GenerationSpec(g),
                               &generation.filter);
  if (!s.ok()) return s;
  generations_.push_back(std::move(generation));
  return Status::Ok();
}

void AutoScalingFilter::Add(std::string_view key) {
  Generation* newest = &generations_.back();
  if (newest->adds >= generation_capacity(generations_.size() - 1)) {
    // A failed open (unreachable for registered bases: the doubled spec
    // stays valid) degrades to overfilling the sealed generation rather
    // than dropping the key — FPR drift, never a false negative.
    if (OpenGeneration().ok()) newest = &generations_.back();
  }
  newest->filter->Add(key);
  ++newest->adds;
}

bool AutoScalingFilter::Contains(std::string_view key) const {
  for (size_t g = generations_.size(); g-- > 0;) {
    if (generations_[g].filter->Contains(key)) return true;
  }
  return false;
}

void AutoScalingFilter::ContainsBatch(
    const std::vector<std::string_view>& keys,
    std::vector<uint8_t>* results) const {
  generations_.back().filter->ContainsBatch(keys, results);
  std::vector<uint8_t> partial;
  for (size_t g = generations_.size() - 1; g-- > 0;) {
    generations_[g].filter->ContainsBatch(keys, &partial);
    for (size_t i = 0; i < keys.size(); ++i) {
      (*results)[i] |= partial[i];
    }
  }
}

Status AutoScalingFilter::Remove(std::string_view key) {
  if ((base_caps_ & kRemove) == 0) {
    return Status::FailedPrecondition(
        name_ + ": base filter \"" + base_name_ +
        "\" does not support Remove");
  }
  for (size_t g = generations_.size(); g-- > 0;) {
    if (!generations_[g].filter->Contains(key)) continue;
    Status s = generations_[g].filter->Remove(key);
    if (s.code() == Status::Code::kNotFound) continue;  // false positive
    if (s.ok() && generations_[g].adds > 0) --generations_[g].adds;
    return s;
  }
  return Status::NotFound(name_ + ": Remove of an absent key");
}

size_t AutoScalingFilter::num_elements() const {
  size_t total = 0;
  for (const auto& generation : generations_) {
    total += generation.filter->num_elements();
  }
  return total;
}

size_t AutoScalingFilter::memory_bytes() const {
  size_t total = 0;
  for (const auto& generation : generations_) {
    total += generation.filter->memory_bytes();
  }
  return total;
}

void AutoScalingFilter::Clear() {
  generations_.resize(1);
  generations_[0].filter->Clear();
  generations_[0].adds = 0;
}

std::string AutoScalingFilter::ToBytes() const {
  ByteWriter writer;
  writer.PutU32(static_cast<uint32_t>(base_name_.size()));
  writer.PutBytes(base_name_.data(), base_name_.size());
  spec_serde::WriteSpec(&writer, base_spec_);
  writer.PutU64(gen_capacity_);
  writer.PutU32(static_cast<uint32_t>(generations_.size()));
  for (const auto& generation : generations_) {
    writer.PutU64(generation.adds);
    std::string blob = FilterRegistry::Serialize(*generation.filter);
    writer.PutU64(blob.size());
    writer.PutBytes(blob.data(), blob.size());
  }
  return writer.Take();
}

Status AutoScalingFilter::Deserialize(std::string_view envelope_name,
                                      std::string_view payload,
                                      const FilterRegistry& registry,
                                      std::unique_ptr<MembershipFilter>* out) {
  if (envelope_name.substr(0, kNamePrefix.size()) != kNamePrefix) {
    return Status::InvalidArgument("scaling: envelope name lacks prefix");
  }
  const std::string base_name(envelope_name.substr(kNamePrefix.size()));
  ByteReader reader(payload);
  uint32_t name_length = 0;
  if (!reader.GetU32(&name_length) || name_length != base_name.size()) {
    return Status::InvalidArgument("scaling: bad payload framing");
  }
  std::string stored_name(name_length, '\0');
  if (!reader.GetBytes(stored_name.data(), name_length) ||
      stored_name != base_name) {
    return Status::InvalidArgument(
        "scaling: payload names \"" + stored_name + "\", envelope says \"" +
        base_name + "\"");
  }
  FilterSpec spec;
  uint64_t gen_capacity = 0;
  uint32_t num_generations = 0;
  if (!spec_serde::ReadSpec(&reader, &spec) ||
      !reader.GetU64(&gen_capacity) || !reader.GetU32(&num_generations) ||
      num_generations == 0 || num_generations > reader.remaining()) {
    return Status::InvalidArgument("scaling: bad payload framing");
  }
  if (spec.delta_capacity != 0 || spec.auto_scale || spec.shards != 1) {
    return Status::InvalidArgument("scaling: nested spec is not sanitized");
  }
  std::unique_ptr<AutoScalingFilter> filter(
      new AutoScalingFilter(base_name, spec, registry, gen_capacity));
  for (uint32_t g = 0; g < num_generations; ++g) {
    uint64_t adds = 0;
    uint64_t blob_size = 0;
    if (!reader.GetU64(&adds) || !reader.GetU64(&blob_size) ||
        blob_size > reader.remaining()) {
      return Status::InvalidArgument("scaling: truncated generation blob");
    }
    std::string blob(blob_size, '\0');
    if (!reader.GetBytes(blob.data(), blob_size)) {
      return Status::InvalidArgument("scaling: truncated generation blob");
    }
    Generation generation;
    Status s = registry.Deserialize(blob, &generation.filter);
    if (!s.ok()) return s;
    if (generation.filter->name() != base_name) {
      return Status::InvalidArgument(
          "scaling: generation blob names \"" +
          std::string(generation.filter->name()) + "\", envelope says \"" +
          base_name + "\"");
    }
    generation.adds = adds;
    filter->generations_.push_back(std::move(generation));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("scaling: trailing bytes");
  }
  filter->base_caps_ = filter->generations_[0].filter->capabilities();
  filter->base_incremental_ =
      filter->generations_[0].filter->IncrementalAdd();
  *out = std::move(filter);
  return Status::Ok();
}

}  // namespace shbf
