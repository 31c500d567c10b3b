// AutoScalingFilter — chained fixed-FPR generations for unbounded growth
// (the scalable-Bloom-filter construction applied to every registered
// scheme; cf. the dynamic/scalable variants surveyed in "Shed More Light on
// Bloom Filter's Variants" and the multi-filter composition of Bloofi).
//
// A fixed-size filter sized for n keys degrades past its design point: FPR
// climbs with every extra insert. This wrapper instead SEALS the current
// generation when its add budget is exhausted and opens a new one with
// doubled capacity and doubled cells — bits-per-key (hence per-generation
// FPR) stays constant, and the geometric growth bounds both the number of
// generations (log₂ of total keys) and the compound false-positive rate
// (≤ generations × per-generation FPR).
//
//   Add ──────────────► generation[newest]     (seals at capacity·2^g keys)
//   Contains(key) ◄──── OR over generations, newest first
//   Remove(key)  ◄───── first generation that Contains it (base must
//                       advertise kRemove; the usual counting hazard —
//                       a false positive in a newer generation can misroute
//                       the remove — is documented, not hidden)
//
// Each generation draws a distinct hash seed, so collisions are independent
// across generations. FilterRegistry::Create builds one when
// FilterSpec::auto_scale is set ("scaling/<base>"); combined with
// delta_capacity the dynamic wrapper folds into the scaling chain
// ("dynamic/scaling/<base>").

#ifndef SHBF_ENGINE_AUTO_SCALING_FILTER_H_
#define SHBF_ENGINE_AUTO_SCALING_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/filter_spec.h"
#include "api/set_query_filter.h"

namespace shbf {

class FilterRegistry;

class AutoScalingFilter : public MembershipFilter {
 public:
  /// Envelope names are "scaling/<base>", e.g. "scaling/shbf_m".
  static constexpr std::string_view kNamePrefix = "scaling/";

  /// Builds the wrapper with its first generation. `base_name` must be a
  /// registered entry; `base_spec` sizes generation 0 and must be sanitized
  /// (delta_capacity = 0, auto_scale = false, shards = 1). `gen_capacity`
  /// is generation 0's add budget (doubles per generation; clamped to 1).
  /// `registry` must outlive the filter (it builds later generations).
  static Status Create(const std::string& base_name,
                       const FilterSpec& base_spec,
                       const FilterRegistry& registry, size_t gen_capacity,
                       std::unique_ptr<AutoScalingFilter>* out);

  std::string_view name() const override { return name_; }

  /// Adds to the newest generation, sealing it and opening a doubled one
  /// when the add budget is exhausted.
  void Add(std::string_view key) override;

  bool Contains(std::string_view key) const override;
  using MembershipFilter::ContainsBatch;
  void ContainsBatch(const std::vector<std::string_view>& keys,
                     std::vector<uint8_t>* results) const override;

  /// Removes from the first generation (newest first) that Contains `key`.
  /// Requires the base scheme to advertise kRemove.
  Status Remove(std::string_view key) override;

  bool IncrementalAdd() const override { return base_incremental_; }

  /// Every generation completes its deferred build — Contains short-
  /// circuits newest-first, so a probe query cannot be trusted to reach a
  /// dirty older generation.
  void PrepareForConstReads() override {
    for (auto& generation : generations_) {
      generation.filter->PrepareForConstReads();
    }
  }
  uint32_t capabilities() const override {
    // Never kMergeable: generations have differing geometry by design.
    return base_caps_ & (kIncrementalAdd | kRemove);
  }

  size_t num_elements() const override;
  size_t memory_bytes() const override;

  /// Drops back to a single empty generation 0.
  void Clear() override;

  size_t num_generations() const { return generations_.size(); }

  /// Generation g's add budget: gen_capacity · 2^g.
  size_t generation_capacity(size_t g) const { return gen_capacity_ << g; }

  const MembershipFilter& generation(size_t g) const {
    return *generations_[g].filter;
  }

  /// Payload: base name, spec, capacity, then each generation's add count +
  /// nested registry envelope.
  std::string ToBytes() const override;

  /// Reconstructs from a ToBytes() payload; `envelope_name` is the full
  /// "scaling/<base>" name and `registry` resolves the nested envelopes.
  static Status Deserialize(std::string_view envelope_name,
                            std::string_view payload,
                            const FilterRegistry& registry,
                            std::unique_ptr<MembershipFilter>* out);

 private:
  struct Generation {
    std::unique_ptr<MembershipFilter> filter;
    size_t adds = 0;
  };

  AutoScalingFilter(std::string base_name, const FilterSpec& base_spec,
                    const FilterRegistry& registry, size_t gen_capacity);

  /// The spec of generation `g`: cells and expected keys double per
  /// generation, the seed is re-salted so hash collisions are independent.
  FilterSpec GenerationSpec(size_t g) const;

  Status OpenGeneration();

  std::string name_;
  std::string base_name_;
  FilterSpec base_spec_;
  const FilterRegistry* registry_;
  size_t gen_capacity_;
  uint32_t base_caps_ = 0;
  bool base_incremental_ = true;
  std::vector<Generation> generations_;
};

}  // namespace shbf

#endif  // SHBF_ENGINE_AUTO_SCALING_FILTER_H_
