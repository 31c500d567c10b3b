#include "engine/batch_query_engine.h"

#include <algorithm>

#include "baselines/bloom_filter.h"
#include "baselines/split_block_bloom_filter.h"
#include "obs/metrics.h"
#include "shbf/shbf_association.h"
#include "shbf/shbf_membership.h"
#include "shbf/split_block_shbf_membership.h"

namespace shbf {
namespace {

// A split-block probe touches exactly one line, prefetched inside
// PrepareProbe, so the staging group only has to keep one fetch per key in
// flight — eight keys ahead already saturates the core's line-fill buffers
// (10-12 on current x86). Deeper groups spill probe state out of registers
// while the surplus prefetches queue behind the buffers: group 8 measures
// ~14% over group 32 at gate scale (docs/benchmarks.md "Batch group
// sizing"). Gather-style paths keep the full batch_size — they issue
// k fetches per key and need the wider window.
constexpr size_t kSplitBlockGroupCap = 8;

// Runs the two-pass protocol over `keys` in groups of `group_size`:
// hash + prefetch the whole group, then resolve it, so every window pass 2
// reads is resident or in flight by the time it is loaded. `resolve(i, probe)`
// receives the key index and its prepared probe. `Keys` is any container of
// string-viewable elements (std::string or std::string_view).
template <typename Impl, typename Keys, typename Resolve>
void TwoPassLoop(const Impl& impl, const Keys& keys, size_t group_size,
                 Resolve&& resolve) {
  std::vector<typename Impl::Probe> probes(
      std::min(group_size, keys.size()));
  for (size_t start = 0; start < keys.size(); start += group_size) {
    const size_t group = std::min(group_size, keys.size() - start);
    for (size_t g = 0; g < group; ++g) {
      impl.PrepareProbe(keys[start + g], &probes[g]);
      impl.PrefetchProbe(probes[g]);
    }
    for (size_t g = 0; g < group; ++g) {
      resolve(start + g, probes[g]);
    }
  }
}

// The split-block probe loop: like TwoPassLoop, but without the explicit
// PrefetchProbe pass — the split filters' PrepareProbe issues the block
// prefetch the moment the block index exists (before the mask build), so a
// second prefetch per key is pure instruction overhead. Pass 2 is one
// BlockSubsetTest per key; no gather/staging of windows at all.
template <typename Impl, typename Keys>
void SplitBlockProbeLoop(const Impl& impl, const Keys& keys,
                         size_t group_size, std::vector<uint8_t>* results) {
  std::vector<typename Impl::Probe> probes(
      std::min(group_size, keys.size()));
  for (size_t start = 0; start < keys.size(); start += group_size) {
    const size_t group = std::min(group_size, keys.size() - start);
    for (size_t g = 0; g < group; ++g) {
      impl.PrepareProbe(keys[start + g], &probes[g]);
    }
    for (size_t g = 0; g < group; ++g) {
      (*results)[start + g] = impl.ResolveProbe(probes[g]) ? 1 : 0;
    }
  }
}

// The probe protocol bounds k; a spec-built filter can exceed the bound, in
// which case the engine must decline the fast path rather than trip the
// implementation's CHECK.
bool FastPathSupported(BatchFastPath::Kind kind, const void* impl) {
  switch (kind) {
    case BatchFastPath::Kind::kShbfM:
      return static_cast<const ShbfM*>(impl)->num_hashes() / 2 <=
             ShbfM::kMaxBatchPairs;
    case BatchFastPath::Kind::kBloom:
      return static_cast<const BloomFilter*>(impl)->num_hashes() <=
             BloomFilter::kMaxBatchHashes;
    case BatchFastPath::Kind::kShbfX:
      return static_cast<const ShbfX*>(impl)->num_hashes() <=
             ShbfX::kMaxBatchHashes;
    case BatchFastPath::Kind::kShbfA:
      return static_cast<const ShbfA*>(impl)->num_hashes() <=
             ShbfA::kMaxBatchHashes;
    case BatchFastPath::Kind::kSplitBlockBloom:
      return static_cast<const SplitBlockBloomFilter*>(impl)->num_hashes() <=
             SplitBlockBloomFilter::kMaxBatchHashes;
    case BatchFastPath::Kind::kSplitBlockShbfM:
      return static_cast<const SplitBlockShbfM*>(impl)->num_pairs() <=
             SplitBlockShbfM::kMaxBatchPairs;
    case BatchFastPath::Kind::kNone:
      return false;
  }
  return false;
}

// Handles into the process-global registry, resolved once. The fastpath /
// virtual split is the number ops people tune first: a filter that silently
// fell off its SIMD fast path (unsupported k, wrong impl) shows up here as
// virtual_batches_total climbing instead of fastpath_batches_total.
struct EngineMetrics {
  obs::Counter* batches = nullptr;
  obs::Counter* fastpath_batches = nullptr;
  obs::Counter* virtual_batches = nullptr;
  obs::Histogram* batch_keys = nullptr;

  static const EngineMetrics& Get() {
    static const EngineMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      EngineMetrics m;
      m.batches = registry.GetCounter("engine.batches_total");
      m.fastpath_batches =
          registry.GetCounter("engine.fastpath_batches_total");
      m.virtual_batches = registry.GetCounter("engine.virtual_batches_total");
      m.batch_keys = registry.GetHistogram("engine.batch_keys");
      return m;
    }();
    return metrics;
  }
};

// Records one batch's entry stats and returns whether to keep recording
// (saves repeated Enabled() loads at the branch exits).
inline bool RecordBatchEntry(size_t num_keys) {
  if (!obs::Enabled()) return false;
  const EngineMetrics& m = EngineMetrics::Get();
  m.batches->Increment();
  m.batch_keys->Record(num_keys);
  return true;
}

// One implementation serves both the string-keyed and the view-keyed public
// overloads; the fast paths are container-generic.
template <typename Keys>
void ContainsBatchImpl(const MembershipFilter& filter, const Keys& keys,
                       size_t batch_size, std::vector<uint8_t>* results) {
  results->resize(keys.size());
  if (keys.empty()) return;
  const bool record = RecordBatchEntry(keys.size());
  const BatchFastPath fp = filter.batch_fast_path();
  if (FastPathSupported(fp.kind, fp.impl)) {
    if (record) EngineMetrics::Get().fastpath_batches->Increment();
    switch (fp.kind) {
      case BatchFastPath::Kind::kShbfM: {
        const auto* impl = static_cast<const ShbfM*>(fp.impl);
        TwoPassLoop(*impl, keys, batch_size,
                    [&](size_t i, const ShbfM::Probe& probe) {
                      (*results)[i] = impl->ResolveProbe(probe) ? 1 : 0;
                    });
        return;
      }
      case BatchFastPath::Kind::kBloom: {
        const auto* impl = static_cast<const BloomFilter*>(fp.impl);
        TwoPassLoop(*impl, keys, batch_size,
                    [&](size_t i, const BloomFilter::Probe& probe) {
                      (*results)[i] = impl->ResolveProbe(probe) ? 1 : 0;
                    });
        return;
      }
      case BatchFastPath::Kind::kShbfX: {
        // The multiplicity view of membership: count > 0 (same answer the
        // adapter's Contains derives from QueryCount).
        const auto* impl = static_cast<const ShbfX*>(fp.impl);
        TwoPassLoop(*impl, keys, batch_size,
                    [&](size_t i, const ShbfX::Probe& probe) {
                      (*results)[i] = impl->ResolveProbe(probe) > 0 ? 1 : 0;
                    });
        return;
      }
      case BatchFastPath::Kind::kShbfA: {
        // The association view of membership: any outcome but kNotFound.
        const auto* impl = static_cast<const ShbfA*>(fp.impl);
        TwoPassLoop(*impl, keys, batch_size,
                    [&](size_t i, const ShbfA::Probe& probe) {
                      (*results)[i] = impl->ResolveProbe(probe) !=
                                              AssociationOutcome::kNotFound
                                          ? 1
                                          : 0;
                    });
        return;
      }
      case BatchFastPath::Kind::kSplitBlockBloom: {
        // No gather/staging pass at all: a key's whole answer is one
        // block mask + one BlockSubsetTest.
        const auto* impl = static_cast<const SplitBlockBloomFilter*>(fp.impl);
        SplitBlockProbeLoop(*impl, keys,
                            std::min(batch_size, kSplitBlockGroupCap),
                            results);
        return;
      }
      case BatchFastPath::Kind::kSplitBlockShbfM: {
        // Same shape as split_block_bloom: the pair bits are baked into
        // the block mask, so there is no per-pair gather loop.
        const auto* impl = static_cast<const SplitBlockShbfM*>(fp.impl);
        SplitBlockProbeLoop(*impl, keys,
                            std::min(batch_size, kSplitBlockGroupCap),
                            results);
        return;
      }
      case BatchFastPath::Kind::kNone:
        break;
    }
  }
  if (record) EngineMetrics::Get().virtual_batches->Increment();
  filter.ContainsBatch(keys, results);
}

template <typename Keys>
void QueryCountBatchImpl(const MultiplicityFilter& filter, const Keys& keys,
                         size_t batch_size, std::vector<uint64_t>* counts) {
  counts->resize(keys.size());
  if (keys.empty()) return;
  const bool record = RecordBatchEntry(keys.size());
  const BatchFastPath fp = filter.batch_fast_path();
  if (fp.kind == BatchFastPath::Kind::kShbfX &&
      FastPathSupported(fp.kind, fp.impl)) {
    if (record) EngineMetrics::Get().fastpath_batches->Increment();
    const auto* impl = static_cast<const ShbfX*>(fp.impl);
    TwoPassLoop(*impl, keys, batch_size,
                [&](size_t i, const ShbfX::Probe& probe) {
                  (*counts)[i] = impl->ResolveProbe(probe);
                });
    return;
  }
  if (record) EngineMetrics::Get().virtual_batches->Increment();
  for (size_t i = 0; i < keys.size(); ++i) {
    (*counts)[i] = filter.QueryCount(keys[i]);
  }
}

}  // namespace

BatchQueryEngine::BatchQueryEngine(BatchOptions options)
    : batch_size_(options.batch_size < 1 ? 1 : options.batch_size) {}

void BatchQueryEngine::ContainsBatch(const MembershipFilter& filter,
                                     const std::vector<std::string>& keys,
                                     std::vector<uint8_t>* results) const {
  ContainsBatchImpl(filter, keys, batch_size_, results);
}

void BatchQueryEngine::ContainsBatch(const MembershipFilter& filter,
                                     const std::vector<std::string_view>& keys,
                                     std::vector<uint8_t>* results) const {
  ContainsBatchImpl(filter, keys, batch_size_, results);
}

void BatchQueryEngine::QueryCountBatch(const MultiplicityFilter& filter,
                                       const std::vector<std::string>& keys,
                                       std::vector<uint64_t>* counts) const {
  QueryCountBatchImpl(filter, keys, batch_size_, counts);
}

void BatchQueryEngine::QueryCountBatch(
    const MultiplicityFilter& filter, const std::vector<std::string_view>& keys,
    std::vector<uint64_t>* counts) const {
  QueryCountBatchImpl(filter, keys, batch_size_, counts);
}

void BatchQueryEngine::QueryBatch(
    const AssociationFilter& filter, const std::vector<std::string>& keys,
    std::vector<AssociationOutcome>* outcomes) const {
  outcomes->resize(keys.size());
  if (keys.empty()) return;
  const bool record = RecordBatchEntry(keys.size());
  const BatchFastPath fp = filter.batch_fast_path();
  if (fp.kind == BatchFastPath::Kind::kShbfA &&
      FastPathSupported(fp.kind, fp.impl)) {
    if (record) EngineMetrics::Get().fastpath_batches->Increment();
    const auto* impl = static_cast<const ShbfA*>(fp.impl);
    TwoPassLoop(*impl, keys, batch_size_,
                [&](size_t i, const ShbfA::Probe& probe) {
                  (*outcomes)[i] = impl->ResolveProbe(probe);
                });
    return;
  }
  if (record) EngineMetrics::Get().virtual_batches->Increment();
  for (size_t i = 0; i < keys.size(); ++i) {
    (*outcomes)[i] = filter.Query(keys[i]);
  }
}

void BatchQueryEngine::QueryCountBatch(const ShbfX& filter,
                                       const std::vector<std::string>& keys,
                                       MultiplicityReportPolicy policy,
                                       std::vector<uint32_t>* counts) const {
  counts->resize(keys.size());
  if (keys.empty()) return;
  if (filter.num_hashes() > ShbfX::kMaxBatchHashes) {
    for (size_t i = 0; i < keys.size(); ++i) {
      (*counts)[i] = filter.QueryCount(keys[i], policy);
    }
    return;
  }
  TwoPassLoop(filter, keys, batch_size_,
              [&](size_t i, const ShbfX::Probe& probe) {
                (*counts)[i] = filter.ResolveProbe(probe, policy);
              });
}

}  // namespace shbf
