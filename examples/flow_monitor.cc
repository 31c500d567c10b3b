// flow_monitor — the paper's multiplicity-query scenario (§1.1): network
// measurement of per-flow packet counts at a router. A synthetic backbone
// trace (13-byte 5-tuple flow IDs, Zipf-distributed flow sizes — the
// substitute for the paper's proprietary 10 Gbps capture, see DESIGN.md) is
// summarized three ways:
//   * ShbfX      — counts encoded as offsets; k bits per flow, any size
//   * Spectral BF — 6-bit counters, minimum selection
//   * SCM sketch — the shifting Count-Min variant (§5.5)
// and the demo reports how often each structure returns the exact flow size.
// ShbfX answers through the BatchQueryEngine: all flows are resolved in one
// batched call (hash pre-compute + prefetch), the way a measurement epoch
// would drain at line rate.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/spectral_bloom_filter.h"
#include "core/chained_hash_table.h"
#include "shbf/scm_sketch.h"
#include "shbf/shbf_multiplicity.h"
#include "trace/trace_generator.h"

int main() {
  // 1) Capture: 400k packets over 50k flows, Zipf(0.9) sizes, capped at 57
  //    packets per flow (the paper's c) for the ShbfX encoding.
  const size_t kPackets = 400000;
  const size_t kFlows = 50000;
  const uint32_t kMaxCount = 57;
  const uint32_t kHashes = 10;
  shbf::TraceGenerator capture(20260611);
  std::vector<std::string> trace = capture.PacketTrace(kPackets, kFlows, 0.9);

  // Ground truth (and the ShbfX build input): flow -> packet count, capped.
  shbf::ChainedHashTable true_counts(2 * kFlows);
  for (const auto& packet : trace) {
    uint64_t* count = true_counts.Find(packet);
    if (count == nullptr) {
      true_counts.Insert(packet, 1);
    } else if (*count < kMaxCount) {
      ++*count;
    }
  }
  std::printf("trace: %zu packets, %zu distinct flows (sizes capped at %u)\n",
              trace.size(), true_counts.size(), kMaxCount);

  // 2) Summaries at the paper's memory discipline: 1.5x optimal bits each.
  const size_t memory_bits =
      static_cast<size_t>(1.5 * kFlows * kHashes / std::log(2.0));
  shbf::ShbfX shbf_counts(
      {.num_bits = memory_bits, .num_hashes = kHashes, .max_count = kMaxCount});
  shbf::SpectralBloomFilter spectral({.num_counters = memory_bits / 6,
                                      .num_hashes = kHashes,
                                      .counter_bits = 6});
  shbf::ScmSketch scm({.depth = kHashes,
                       .width = memory_bits / 8 / kHashes,
                       .counter_bits = 8});
  true_counts.ForEach([&](std::string_view flow, uint64_t count) {
    shbf_counts.InsertWithCount(flow, static_cast<uint32_t>(count));
  });
  for (const auto& packet : trace) {
    spectral.Insert(packet);
    scm.Insert(packet);
  }
  std::printf("summaries: %zu bits each (1.5x optimal; flow table is %zux "
              "larger)\n\n",
              memory_bits, true_counts.size() * 21 * 8 / memory_bits);

  // 3) Query every flow's size and compare against the truth. The ShbfX
  //    answers come from one batched call over all flows; Spectral/
  //    SCM saw every packet (not the capped counts), so compare those
  //    against the uncapped count where it matters.
  std::vector<std::string> flows;
  std::vector<uint64_t> truth;
  flows.reserve(true_counts.size());
  true_counts.ForEach([&](std::string_view flow, uint64_t count) {
    flows.emplace_back(flow);
    truth.push_back(count);
  });
  std::vector<uint32_t> from_shbf;
  shbf_counts.QueryCountBatch(flows, shbf::MultiplicityReportPolicy::kSmallest,
                              &from_shbf);

  size_t exact_shbf = 0;
  size_t exact_spectral = 0;
  size_t exact_scm = 0;
  size_t over_shbf = 0;
  const size_t considered = flows.size();
  for (size_t i = 0; i < flows.size(); ++i) {
    exact_shbf += (from_shbf[i] == truth[i]);
    over_shbf += (from_shbf[i] > truth[i]);
    exact_spectral += (spectral.QueryCount(flows[i]) == truth[i]);
    exact_scm += (scm.QueryCount(flows[i]) == truth[i]);
  }
  std::printf("exact flow-size answers over %zu flows:\n", considered);
  std::printf("   ShbfX        %6.2f%%   (overestimates: %.2f%%)\n",
              100.0 * exact_shbf / considered, 100.0 * over_shbf / considered);
  std::printf("   Spectral BF  %6.2f%%\n", 100.0 * exact_spectral / considered);
  std::printf("   SCM sketch   %6.2f%%\n", 100.0 * exact_scm / considered);

  // 4) The measurement question the intro motivates: elephant flows —
  //    again one batched sweep, under the never-underestimating
  //    largest-candidate policy.
  std::printf("\nflows with >= 40 packets according to ShbfX:\n");
  std::vector<uint32_t> estimates;
  shbf_counts.QueryCountBatch(flows, shbf::MultiplicityReportPolicy::kLargest,
                              &estimates);
  size_t elephants = 0;
  size_t confirmed = 0;
  for (size_t i = 0; i < flows.size(); ++i) {
    if (estimates[i] >= 40) {
      ++elephants;
      confirmed += (truth[i] >= 40);
    }
  }
  std::printf("   flagged %zu, of which %zu truly >= 40 "
              "(largest-candidate policy never misses one)\n",
              elephants, confirmed);
  return 0;
}
