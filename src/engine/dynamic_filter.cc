#include "engine/dynamic_filter.h"

#include <algorithm>
#include <utility>

#include "api/filter_registry.h"
#include "core/check.h"
#include "core/serde.h"

namespace shbf {
namespace {

/// Seed salt of the delta's hash family: distinct from the active filter's
/// family so a key colliding there is independent here.
constexpr uint64_t kDeltaSeedSalt = 0xde17a5a17ed5eedbull;

/// Delta geometry: ~16 bits and 4 probes per budgeted key keeps the delta's
/// own FPR contribution ≈ 0.3% at full fill; 4-bit counters match §3.3.
CountingShbfM::Params DeltaParams(const FilterSpec& spec,
                                  size_t delta_capacity) {
  CountingShbfM::Params params;
  params.num_bits = std::max<size_t>(size_t{1024}, delta_capacity * 16);
  params.num_hashes = 4;
  params.counter_bits = 4;
  params.hash_algorithm = spec.hash_algorithm;
  params.seed = spec.seed ^ kDeltaSeedSalt;
  return params;
}

}  // namespace

DynamicFilter::DynamicFilter(std::unique_ptr<MembershipFilter> active,
                             const FilterSpec& spec, size_t delta_capacity)
    : name_(std::string(kNamePrefix) + std::string(active->name())),
      spec_(spec),
      delta_capacity_(delta_capacity < 1 ? 1 : delta_capacity),
      active_(std::move(active)),
      active_caps_(active_->capabilities()),
      delta_(DeltaParams(spec, delta_capacity_)) {
  SHBF_CHECK(spec_.delta_capacity == 0 && !spec_.auto_scale &&
             spec_.shards == 1)
      << "DynamicFilter: base spec must be sanitized (no nested wrappers)";
}

void DynamicFilter::Add(std::string_view key) {
  auto queued = pending_removes_.find(key);
  if (queued != pending_removes_.end()) {
    // Net no-op against the active side: the key is still there, so
    // cancelling the queued remove is exact (and order-safe for
    // set-semantic bases, where replaying add-then-remove would drop it).
    if (--queued->second == 0) pending_removes_.erase(queued);
    --pending_remove_total_;
    return;
  }
  auto [it, inserted] = pending_adds_.emplace(key, 1);
  if (!inserted) ++it->second;
  ++pending_add_total_;
  delta_.Insert(key);
  MaybeFold();
}

Status DynamicFilter::Remove(std::string_view key) {
  auto pending = pending_adds_.find(key);
  if (pending != pending_adds_.end()) {
    // The key never reached the active side; cancel one pending add. The
    // delta filter keeps its bits until the fold clears it — an over-
    // approximation (extra false positives), never a false negative — so
    // the occurrence moves to the cancelled log, which keeps it counted
    // against the epoch budget and reproducible by serde.
    if (--pending->second == 0) pending_adds_.erase(pending);
    --pending_add_total_;
    auto [it, inserted] = cancelled_adds_.emplace(key, 1);
    if (!inserted) ++it->second;
    ++cancelled_total_;
    MaybeFold();
    return Status::Ok();
  }
  if ((active_caps_ & kRemove) == 0) {
    return Status::FailedPrecondition(
        name_ + ": active filter \"" + std::string(active_->name()) +
        "\" does not support Remove");
  }
  // Gate on the ACTIVE side only: a queued remove acts on the active
  // filter at the fold, so a key the active filter can prove absent must
  // be rejected here. Gating on delta ∪ active would let a delta false
  // positive queue a remove that a later Add of the same key then
  // "cancels" — dropping that add entirely and turning it into a false
  // negative after the fold.
  if (!active_->Contains(key)) {
    return Status::NotFound(name_ + ": Remove of an absent key");
  }
  auto [it, inserted] = pending_removes_.emplace(key, 1);
  if (!inserted) ++it->second;
  ++pending_remove_total_;
  MaybeFold();
  return Status::Ok();
}

bool DynamicFilter::Contains(std::string_view key) const {
  return (delta_in_use() && delta_.Contains(key)) || active_->Contains(key);
}

void DynamicFilter::ContainsBatch(const std::vector<std::string_view>& keys,
                                  std::vector<uint8_t>* results) const {
  active_->ContainsBatch(keys, results);
  if (!delta_in_use()) return;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!(*results)[i] && delta_.Contains(keys[i])) (*results)[i] = 1;
  }
}

size_t DynamicFilter::num_elements() const {
  size_t total = active_->num_elements() + pending_add_total_;
  return total - std::min(pending_remove_total_, total);
}

size_t DynamicFilter::memory_bytes() const {
  size_t pending_bytes = 0;
  for (const auto& [key, count] : pending_adds_) {
    pending_bytes += key.size() + 24;
  }
  for (const auto& [key, count] : pending_removes_) {
    pending_bytes += key.size() + 24;
  }
  for (const auto& [key, count] : cancelled_adds_) {
    pending_bytes += key.size() + 24;
  }
  return active_->memory_bytes() + delta_.num_bits() / 8 +
         delta_.counters().num_counters() *
             delta_.counters().bits_per_counter() / 8 +
         pending_bytes;
}

void DynamicFilter::Clear() {
  active_->Clear();
  delta_.Clear();
  pending_adds_.clear();
  pending_removes_.clear();
  cancelled_adds_.clear();
  pending_add_total_ = 0;
  pending_remove_total_ = 0;
  cancelled_total_ = 0;
  epoch_ = 0;
}

void DynamicFilter::Flush() {
  // Residual delta bits (cancelled pending adds) also warrant a fold: a
  // flushed filter must answer exactly like a scratch-built reference.
  if (pending_mutations() > 0 || cancelled_total_ > 0) Fold();
}

void DynamicFilter::Fold() {
  for (const auto& [key, count] : pending_adds_) {
    for (uint64_t i = 0; i < count; ++i) active_->Add(key);
  }
  for (const auto& [key, count] : pending_removes_) {
    for (uint64_t i = 0; i < count; ++i) {
      // kNotFound here means the queued remove targeted an active-side
      // false positive; dropping it is the documented hazard resolution.
      if (!active_->Remove(key).ok()) break;
    }
  }
  pending_adds_.clear();
  pending_removes_.clear();
  cancelled_adds_.clear();
  pending_add_total_ = 0;
  pending_remove_total_ = 0;
  cancelled_total_ = 0;
  delta_.Clear();
  ++epoch_;
  // Force lazily-built actives (shbf_x/shbf_a adapters, every generation
  // of an auto-scaling chain) to rebuild NOW, so const queries between
  // folds never mutate — that is what lets the sharded wrapper read this
  // filter under a shared lock. A probe query would not do: a composite's
  // short-circuiting Contains can route past a still-dirty component.
  active_->PrepareForConstReads();
}

std::string DynamicFilter::ToBytes() const {
  ByteWriter writer;
  writer.PutU64(delta_capacity_);
  writer.PutU64(epoch_);
  spec_serde::WriteSpec(&writer, spec_);
  std::vector<std::pair<std::string, uint64_t>> entries(
      pending_adds_.begin(), pending_adds_.end());
  serde::WriteKeyCountList(&writer, entries);
  entries.assign(pending_removes_.begin(), pending_removes_.end());
  serde::WriteKeyCountList(&writer, entries);
  // The cancelled log too: the restored delta must hold the exact same
  // bits, or answers would drift across a round trip.
  entries.assign(cancelled_adds_.begin(), cancelled_adds_.end());
  serde::WriteKeyCountList(&writer, entries);
  std::string active_blob = FilterRegistry::Serialize(*active_);
  writer.PutU64(active_blob.size());
  writer.PutBytes(active_blob.data(), active_blob.size());
  return writer.Take();
}

Status DynamicFilter::Deserialize(std::string_view envelope_name,
                                  std::string_view payload,
                                  const FilterRegistry& registry,
                                  std::unique_ptr<MembershipFilter>* out) {
  if (envelope_name.substr(0, kNamePrefix.size()) != kNamePrefix) {
    return Status::InvalidArgument("dynamic: envelope name lacks prefix");
  }
  const std::string active_name(envelope_name.substr(kNamePrefix.size()));
  ByteReader reader(payload);
  uint64_t delta_capacity = 0;
  uint64_t epoch = 0;
  FilterSpec spec;
  std::vector<std::pair<std::string, uint64_t>> adds;
  std::vector<std::pair<std::string, uint64_t>> removes;
  std::vector<std::pair<std::string, uint64_t>> cancelled;
  uint64_t blob_size = 0;
  if (!reader.GetU64(&delta_capacity) || !reader.GetU64(&epoch) ||
      !spec_serde::ReadSpec(&reader, &spec) ||
      !serde::ReadKeyCountList(&reader, &adds) ||
      !serde::ReadKeyCountList(&reader, &removes) ||
      !serde::ReadKeyCountList(&reader, &cancelled) ||
      !reader.GetU64(&blob_size) || blob_size != reader.remaining()) {
    return Status::InvalidArgument("dynamic: bad payload framing");
  }
  if (delta_capacity > FilterSpec::kMaxDeltaCapacity) {
    // The delta's geometry is derived from this field, so an untrusted
    // blob must not be able to demand an absurd allocation (the same
    // amplification guard ReadKeyList applies to element counts).
    return Status::InvalidArgument("dynamic: delta_capacity out of range");
  }
  // A fold fires the moment pending + cancelled reaches delta_capacity, so
  // a legitimate blob's totals are always strictly below it. Reject the
  // rest BEFORE the replay loops below — a patched per-key count of 2^40
  // would otherwise spin Insert for days.
  const uint64_t budget = delta_capacity < 1 ? 1 : delta_capacity;
  uint64_t total_logged = 0;
  for (const auto* list : {&adds, &removes, &cancelled}) {
    for (const auto& [key, count] : *list) {
      if (count == 0) {
        return Status::InvalidArgument("dynamic: zero-count log entry");
      }
      total_logged += count;
      if (total_logged >= budget) {
        return Status::InvalidArgument(
            "dynamic: pending logs exceed delta_capacity");
      }
    }
  }
  if (spec.delta_capacity != 0 || spec.auto_scale || spec.shards != 1) {
    return Status::InvalidArgument("dynamic: nested spec is not sanitized");
  }
  std::string active_blob(reader.remaining(), '\0');
  if (!reader.GetBytes(active_blob.data(), active_blob.size())) {
    return Status::InvalidArgument("dynamic: truncated active envelope");
  }
  std::unique_ptr<MembershipFilter> active;
  Status s = registry.Deserialize(active_blob, &active);
  if (!s.ok()) return s;
  if (active->name() != active_name) {
    return Status::InvalidArgument(
        "dynamic: nested blob names \"" + std::string(active->name()) +
        "\", envelope says \"" + active_name + "\"");
  }
  auto filter = std::make_unique<DynamicFilter>(std::move(active), spec,
                                                delta_capacity);
  for (const auto& [key, count] : adds) {
    filter->pending_adds_.emplace(key, count);
    filter->pending_add_total_ += count;
    for (uint64_t i = 0; i < count; ++i) filter->delta_.Insert(key);
  }
  for (const auto& [key, count] : removes) {
    filter->pending_removes_.emplace(key, count);
    filter->pending_remove_total_ += count;
  }
  for (const auto& [key, count] : cancelled) {
    // Cancelled adds replay into the delta only — their bits must survive
    // the round trip (answer fidelity), but the fold will not re-add them.
    filter->cancelled_adds_.emplace(key, count);
    filter->cancelled_total_ += count;
    for (uint64_t i = 0; i < count; ++i) filter->delta_.Insert(key);
  }
  filter->epoch_ = epoch;
  *out = std::move(filter);
  return Status::Ok();
}

}  // namespace shbf
