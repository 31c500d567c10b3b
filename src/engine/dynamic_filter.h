// DynamicFilter — epoch-based dynamic rebuild wrapper (the §3.2 update
// story generalized to every registered filter).
//
// The bulk-built structures (shbf_x, shbf_a adapters) are fast to query but
// pay a full rebuild whenever an Add interleaves with a query — the cost
// called out in src/api/set_query_filter.h. This wrapper makes them (and any
// other base) behave incrementally:
//
//          Add/Remove                     Contains
//              │                             │
//              ▼                             ▼
//        ┌───────────┐  delta ∪ active  ┌─────────┐
//        │   delta   │◄─────────────────┤  query  │
//        │ (CShBF_M  │                  └────┬────┘
//        │  + exact  │                       │
//        │  logs)    │     fold every        ▼
//        └─────┬─────┘  delta_capacity  ┌───────────┐
//              └──────── mutations ────►│  active   │ immutable between
//                     (one **epoch**)   │ (any base)│ epochs; rebuilt
//                                       └───────────┘ eagerly at the fold
//
// * Adds land in a small counting-ShBF delta (plus an exact pending log the
//   fold replays); queries consult delta ∪ active, so answers keep the
//   no-false-negative contract at all times.
// * Removes cancel a pending add when possible; otherwise they queue
//   against the active side (which must advertise kRemove) and take effect
//   at the next fold. Until then the filter over-approximates — extra false
//   positives, never false negatives.
// * Every `delta_capacity` net mutations the delta is FOLDED into the
//   active filter (one epoch): pending adds/removes replay, the active
//   filter rebuilds once, the delta clears. Between folds the active side
//   is never mutated, so const queries are pure and the sharded wrapper can
//   read it under a shared lock (exactly one bounded rebuild pause per
//   shard per epoch).
// * At every epoch boundary (pending == 0) the wrapper answers bit-
//   identically to a scratch-built base filter over the surviving multiset
//   — bench/churn_throughput.cc --smoke enforces this.
//
// FilterRegistry::Create builds one when FilterSpec::delta_capacity > 0 and
// FilterRegistry::Deserialize restores it from its "dynamic/<base>"
// envelope (nested: the active filter's own envelope rides inside).

#ifndef SHBF_ENGINE_DYNAMIC_FILTER_H_
#define SHBF_ENGINE_DYNAMIC_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/filter_spec.h"
#include "api/set_query_filter.h"
#include "shbf/counting_shbf_membership.h"

namespace shbf {

class FilterRegistry;

class DynamicFilter : public MembershipFilter {
 public:
  /// Envelope names are "dynamic/<active>", e.g. "dynamic/shbf_x" or
  /// "dynamic/scaling/shbf_m" when the active side auto-scales.
  static constexpr std::string_view kNamePrefix = "dynamic/";

  /// Wraps `active` (already built from `spec`, which must carry
  /// delta_capacity = 0 / auto_scale = false / shards = 1 so nested replay
  /// serde cannot re-wrap). `delta_capacity` < 1 is clamped to 1.
  DynamicFilter(std::unique_ptr<MembershipFilter> active,
                const FilterSpec& spec, size_t delta_capacity);

  std::string_view name() const override { return name_; }

  /// Lands in the delta (or cancels a pending remove); folds when the
  /// pending-mutation budget is reached.
  void Add(std::string_view key) override;

  /// Cancels a pending add when one exists (exact, hazard-free); otherwise
  /// queues against the active side, which must advertise kRemove. Queued
  /// removes take effect at the next fold.
  Status Remove(std::string_view key) override;

  /// delta ∪ active; no false negatives at any point between epochs.
  bool Contains(std::string_view key) const override;

  using MembershipFilter::ContainsBatch;
  void ContainsBatch(const std::vector<std::string_view>& keys,
                     std::vector<uint8_t>* results) const override;

  /// The active filter's probe loop is only the whole answer when the delta
  /// holds no bits at all (cancelled pending adds leave residual bits until
  /// the fold — every query path must keep consulting them identically);
  /// otherwise the hook declines and callers go through ContainsBatch.
  bool ProbeContainsBatch(const std::vector<std::string_view>& keys,
                          size_t group_size,
                          std::vector<uint8_t>* results) const override {
    return !delta_in_use() &&
           active_->ProbeContainsBatch(keys, group_size, results);
  }
  BatchFastPath batch_fast_path() const override {
    return delta_in_use() ? BatchFastPath{} : active_->batch_fast_path();
  }

  void PrepareForConstReads() override { active_->PrepareForConstReads(); }

  bool IncrementalAdd() const override { return true; }
  uint32_t capabilities() const override {
    return kIncrementalAdd | (active_caps_ & kRemove);
  }

  size_t num_elements() const override;
  size_t memory_bytes() const override;
  void Clear() override;

  /// Folds the delta now regardless of fill (epoch boundary on demand);
  /// no-op when nothing is pending and the delta holds no residual bits.
  void Flush();

  /// Completed folds since construction / Clear().
  uint64_t epoch() const { return epoch_; }

  /// Pending mutations (adds + queued removes) in the current epoch.
  size_t pending_mutations() const {
    return pending_add_total_ + pending_remove_total_;
  }

  /// Add occurrences cancelled by a Remove this epoch: their bits stay in
  /// the delta until the fold, so they count toward the epoch budget (a
  /// transient add/remove workload must still fold, or the delta's FPR
  /// would climb without bound) and are reproduced by serde (answers must
  /// survive a round trip bit-for-bit, residual noise included).
  size_t cancelled_adds() const { return cancelled_total_; }

  size_t delta_capacity() const { return delta_capacity_; }
  const MembershipFilter& active() const { return *active_; }

  /// Payload: delta_capacity, epoch, pending logs, then the active filter's
  /// nested registry envelope.
  std::string ToBytes() const override;

  /// Reconstructs from a ToBytes() payload; `envelope_name` is the full
  /// "dynamic/<active>" name and `registry` resolves the nested envelope.
  static Status Deserialize(std::string_view envelope_name,
                            std::string_view payload,
                            const FilterRegistry& registry,
                            std::unique_ptr<MembershipFilter>* out);

 private:
  void Fold();
  void MaybeFold() {
    // Cancelled adds spend delta bits too, so they consume epoch budget.
    if (pending_mutations() + cancelled_total_ >= delta_capacity_) Fold();
  }

  /// True iff delta_ has absorbed any Insert since the last fold/Clear —
  /// NOT the same as pending_adds_ being non-empty: a cancelled pending add
  /// leaves its bits in the delta until the fold, and scalar/batch/fast-
  /// path queries must all keep consulting them consistently.
  bool delta_in_use() const {
    return pending_add_total_ + cancelled_total_ > 0;
  }

  std::string name_;
  FilterSpec spec_;  // sanitized base spec (delta geometry + serde)
  size_t delta_capacity_;
  std::unique_ptr<MembershipFilter> active_;
  uint32_t active_caps_;
  CountingShbfM delta_;
  // Exact pending logs the fold replays, plus the cancelled-add log that
  // reproduces the delta's residual bits (serde fidelity + epoch budget).
  // std::map keeps serde deterministic and allows string_view lookups.
  std::map<std::string, uint64_t, std::less<>> pending_adds_;
  std::map<std::string, uint64_t, std::less<>> pending_removes_;
  std::map<std::string, uint64_t, std::less<>> cancelled_adds_;
  size_t pending_add_total_ = 0;
  size_t pending_remove_total_ = 0;
  size_t cancelled_total_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace shbf

#endif  // SHBF_ENGINE_DYNAMIC_FILTER_H_
