#include "engine/batch_query_engine.h"

#include "obs/metrics.h"

namespace shbf {
namespace {

// Handles into the process-global registry, resolved once. The fastpath /
// virtual split is the number ops people tune first: a batch counts as
// fastpath when the filter's ProbeContainsBatch hook (or a count /
// association twin) ran its probe loop. A filter that silently fell off it
// (k past the loop's bound, a wrapper that does not forward the hook) shows
// up as virtual_batches_total climbing instead.
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

// Runs `probe` (the filter's hook) and, if it declines, `fallback`; then
// records the batch and which of the two answered it.
template <typename Probe, typename Fallback>
void RunBatch(size_t num_keys, Probe&& probe, Fallback&& fallback) {
  const bool probed = probe();
  if (!probed) fallback();
  if (!obs::Enabled()) return;
  const EngineMetrics& m = EngineMetrics::Get();
  m.batches->Increment();
  m.batch_keys->Record(num_keys);
  (probed ? m.fastpath_batches : m.virtual_batches)->Increment();
}

std::vector<std::string_view> Views(const std::vector<std::string>& keys) {
  return {keys.begin(), keys.end()};
}

}  // namespace

BatchQueryEngine::BatchQueryEngine(BatchOptions options)
    : batch_size_(options.batch_size < 1 ? 1 : options.batch_size) {}

void BatchQueryEngine::ContainsBatch(const MembershipFilter& filter,
                                     const std::vector<std::string>& keys,
                                     std::vector<uint8_t>* results) const {
  ContainsBatch(filter, Views(keys), results);
}

void BatchQueryEngine::ContainsBatch(const MembershipFilter& filter,
                                     const std::vector<std::string_view>& keys,
                                     std::vector<uint8_t>* results) const {
  results->resize(keys.size());
  if (keys.empty()) return;
  RunBatch(
      keys.size(),
      [&] { return filter.ProbeContainsBatch(keys, batch_size_, results); },
      [&] { filter.ContainsBatch(keys, results); });
}

void BatchQueryEngine::QueryCountBatch(const MultiplicityFilter& filter,
                                       const std::vector<std::string>& keys,
                                       std::vector<uint64_t>* counts) const {
  QueryCountBatch(filter, Views(keys), counts);
}

void BatchQueryEngine::QueryCountBatch(
    const MultiplicityFilter& filter, const std::vector<std::string_view>& keys,
    std::vector<uint64_t>* counts) const {
  counts->resize(keys.size());
  if (keys.empty()) return;
  RunBatch(
      keys.size(),
      [&] { return filter.ProbeQueryCountBatch(keys, batch_size_, counts); },
      [&] {
        for (size_t i = 0; i < keys.size(); ++i) {
          (*counts)[i] = filter.QueryCount(keys[i]);
        }
      });
}

void BatchQueryEngine::QueryBatch(
    const AssociationFilter& filter, const std::vector<std::string>& keys,
    std::vector<AssociationOutcome>* outcomes) const {
  outcomes->resize(keys.size());
  if (keys.empty()) return;
  const std::vector<std::string_view> views = Views(keys);
  RunBatch(
      keys.size(),
      [&] { return filter.ProbeQueryBatch(views, batch_size_, outcomes); },
      [&] {
        for (size_t i = 0; i < keys.size(); ++i) {
          (*outcomes)[i] = filter.Query(keys[i]);
        }
      });
}

}  // namespace shbf
