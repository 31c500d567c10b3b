// BatchQueryEngine — the batched front end for every filter in the registry.
//
// The paper's speed claim (§6: "one memory access per query") leaves two
// latencies on the table when queries arrive one at a time: the hash
// computation of key i+1 cannot overlap the memory access of key i, and a
// cache miss stalls the whole pipeline. The engine closes both gaps with a
// two-pass batch protocol over groups of `batch_size` keys:
//
//   pass 1  PrepareProbe   every hash of every key in the group (pure ALU)
//           PrefetchProbe  __builtin_prefetch for every word pass 2 reads
//   pass 2  ResolveProbe   test the now-resident (or in-flight) windows
//
// The protocol is implemented natively — without virtual dispatch — by the
// six structures whose query is a pure windowed-read (ShbfM §3, ShbfA §4,
// ShbfX §5, the classic Bloom filter, and the split-block layouts
// SplitBlockBloomFilter / SplitBlockShbfM); the engine discovers them
// through MembershipFilter::batch_fast_path(). Every other registered
// filter is served through its virtual interface, so the engine answers
// for all schemes and is bit-identical to the per-key path in every case
// (tests/batch_engine_test.cc enforces this).
//
// The split-block paths resolve a key with one whole-block subset test
// (simd::BlockSubsetTest in core/simd.h): PrepareProbe bakes every probe
// bit into a block mask and prefetches the block, so pass 2 has no per-probe
// loads. SHBF_FORCE_SCALAR demotes the kernel to its scalar reference
// without changing any answer.

#ifndef SHBF_ENGINE_BATCH_QUERY_ENGINE_H_
#define SHBF_ENGINE_BATCH_QUERY_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/set_query_filter.h"
#include "core/set_query_types.h"
#include "shbf/shbf_multiplicity.h"

namespace shbf {

/// Tuning knobs for BatchQueryEngine (FilterSpec::batch_size feeds this).
struct BatchOptions {
  /// Keys whose probes are prepared and prefetched before any is resolved.
  /// Larger groups expose more memory-level parallelism but hold more probe
  /// state live; 16–64 covers the useful range on current hardware. Values
  /// below 1 are treated as 1.
  size_t batch_size = 16;
};

/// Stateless (apart from its options) batched-query driver. One engine can
/// serve any number of filters from any number of threads concurrently; the
/// per-call scratch lives on the stack/heap of the call.
class BatchQueryEngine {
 public:
  explicit BatchQueryEngine(BatchOptions options = {});

  /// `results` is resized to `keys.size()`; entry i becomes 1 iff
  /// `filter.Contains(keys[i])` — bit-identical to the per-key path, only
  /// faster. Uses the non-virtual probe protocol when
  /// `filter.batch_fast_path()` offers one, the filter's own virtual
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
  /// `filter.QueryCount(keys[i])`. Fast path: ShbfX.
  void QueryCountBatch(const MultiplicityFilter& filter,
                       const std::vector<std::string>& keys,
                       std::vector<uint64_t>* counts) const;

  /// View-indexed overload (the server's QUERY handler decodes keys as
  /// views into the request frame); identical answers.
  void QueryCountBatch(const MultiplicityFilter& filter,
                       const std::vector<std::string_view>& keys,
                       std::vector<uint64_t>* counts) const;

  /// `outcomes` is resized to `keys.size()`; entry i becomes
  /// `filter.Query(keys[i])`. Fast path: ShbfA.
  void QueryBatch(const AssociationFilter& filter,
                  const std::vector<std::string>& keys,
                  std::vector<AssociationOutcome>* outcomes) const;

  /// Concrete-class overload for callers holding a ShbfX directly (e.g.
  /// examples/flow_monitor.cc): batched QueryCount under an explicit
  /// report policy, which the interface-level path cannot express.
  void QueryCountBatch(const ShbfX& filter,
                       const std::vector<std::string>& keys,
                       MultiplicityReportPolicy policy,
                       std::vector<uint32_t>* counts) const;

  /// The configured group size (after clamping to >= 1).
  size_t batch_size() const { return batch_size_; }

 private:
  size_t batch_size_;
};

}  // namespace shbf

#endif  // SHBF_ENGINE_BATCH_QUERY_ENGINE_H_
