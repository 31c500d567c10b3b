// BatchQueryEngine — the batched front end for every filter in the registry.
//
// The engine does not know any concrete filter. Per batch it makes one
// virtual call, MembershipFilter::ProbeContainsBatch, with its group size:
// a probe-protocol filter (ShbfM §3, ShbfA §4, ShbfX §5, the classic Bloom
// filter and the two split-block layouts, or a wrapper forwarding one) runs
// the one two-pass probe loop in core/probe_loop.h — hash and prefetch a
// group of keys, then resolve it — and returns true. Every other filter
// declines and answers through its virtual ContainsBatch, so the engine
// serves all schemes and is bit-identical to the per-key path in every case
// (tests/batch_engine_test.cc enforces this). Counts and association
// outcomes go through the hook's two twins the same way.
//
// engine.fastpath_batches_total counts the batches that ran a probe loop,
// engine.virtual_batches_total the ones the filter answered otherwise.

#ifndef SHBF_ENGINE_BATCH_QUERY_ENGINE_H_
#define SHBF_ENGINE_BATCH_QUERY_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/set_query_filter.h"
#include "core/probe_loop.h"
#include "core/set_query_types.h"

namespace shbf {

/// Tuning knobs for BatchQueryEngine (FilterSpec::batch_size feeds this).
struct BatchOptions {
  /// Keys whose probes are prepared and prefetched before any is resolved.
  /// Larger groups expose more memory-level parallelism but hold more probe
  /// state live; 16–64 covers the useful range on current hardware. Values
  /// below 1 are treated as 1, and a layout may cap it (core/probe_loop.h).
  size_t batch_size = kDefaultProbeGroup;
};

/// Stateless (apart from its options) batched-query driver. One engine can
/// serve any number of filters from any number of threads concurrently; the
/// per-call scratch lives on the stack/heap of the call.
class BatchQueryEngine {
 public:
  explicit BatchQueryEngine(BatchOptions options = {});

  /// `results` is resized to `keys.size()`; entry i becomes 1 iff
  /// `filter.Contains(keys[i])` — bit-identical to the per-key path, only
  /// faster. Runs the filter's probe loop when it has one, its virtual
  /// ContainsBatch otherwise.
  void ContainsBatch(const MembershipFilter& filter,
                     const std::vector<std::string>& keys,
                     std::vector<uint8_t>* results) const;

  /// View-indexed overload: identical answers without requiring the caller
  /// to own the key bytes (the multi-set frontier descent passes views into
  /// its caller's keys instead of copying survivors). Views must stay valid
  /// for the duration of the call.
  void ContainsBatch(const MembershipFilter& filter,
                     const std::vector<std::string_view>& keys,
                     std::vector<uint8_t>* results) const;

  /// `counts` is resized to `keys.size()`; entry i becomes
  /// `filter.QueryCount(keys[i])`. Probe loop: ProbeQueryCountBatch.
  void QueryCountBatch(const MultiplicityFilter& filter,
                       const std::vector<std::string>& keys,
                       std::vector<uint64_t>* counts) const;

  /// View-indexed overload (the server's QUERY handler decodes keys as
  /// views into the request frame); identical answers.
  void QueryCountBatch(const MultiplicityFilter& filter,
                       const std::vector<std::string_view>& keys,
                       std::vector<uint64_t>* counts) const;

  /// `outcomes` is resized to `keys.size()`; entry i becomes
  /// `filter.Query(keys[i])`. Probe loop: ProbeQueryBatch.
  void QueryBatch(const AssociationFilter& filter,
                  const std::vector<std::string>& keys,
                  std::vector<AssociationOutcome>* outcomes) const;

  /// The configured group size (after clamping to >= 1).
  size_t batch_size() const { return batch_size_; }

 private:
  size_t batch_size_;
};

}  // namespace shbf

#endif  // SHBF_ENGINE_BATCH_QUERY_ENGINE_H_
