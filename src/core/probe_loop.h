// The two-pass probe loop — the one batch loop behind every probe-protocol
// layout (ShbfM §3, ShbfA §4, ShbfX §5, the classic Bloom filter and the
// two split-block layouts).
//
// The paper's speed claim (§6: "one memory access per query") leaves two
// latencies on the table when keys arrive one at a time: the hash of key
// i+1 cannot overlap the memory access of key i, and a cache miss stalls
// the whole pipeline. The loop closes both gaps over groups of keys:
//
//   pass 1  PrepareProbe   every hash of every key in the group (pure ALU)
//           PrefetchProbe  a prefetch for every line pass 2 reads
//   pass 2  resolve        test the now-resident (or in-flight) windows
//
// A layout joins by exposing `Probe`, `PrepareProbe(key, Probe*)`,
// `ResolveProbe(probe)` and two constants:
//
//   kProbeGroupCap           the deepest group worth staging. The split-
//                            block layouts cap it at 8: a key touches one
//                            line, so eight keys ahead already saturate the
//                            core's line-fill buffers (10-12 on current
//                            x86), and deeper groups only spill probe state
//                            — group 8 measures ~14% over group 32 at gate
//                            scale (docs/benchmarks.md "Batch group
//                            sizing"). Gather layouts issue k fetches per
//                            key and keep the caller's group.
//   kPrepareProbePrefetches  PrepareProbe already issues the prefetch (the
//                            split-block layouts do, the moment the block
//                            index exists), so the loop skips PrefetchProbe;
//                            such a layout need not define it.

#ifndef SHBF_CORE_PROBE_LOOP_H_
#define SHBF_CORE_PROBE_LOOP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace shbf {

/// The group size batch entry points use when the caller names none
/// (the concrete filters' ContainsBatch, MembershipFilter::ContainsBatch and
/// BatchOptions' default).
inline constexpr size_t kDefaultProbeGroup = 16;

/// Runs the two-pass loop over `keys` (any container of string-viewable
/// elements) in groups of `group_size`, clamped to [1,
/// Layout::kProbeGroupCap]. `resolve(i, probe)` receives each key's index
/// and its prepared probe, in key order within a group.
template <typename Layout, typename Keys, typename Resolve>
void RunProbeLoop(const Layout& layout, const Keys& keys, size_t group_size,
                  Resolve&& resolve) {
  group_size = std::clamp<size_t>(group_size, 1, Layout::kProbeGroupCap);
  std::vector<typename Layout::Probe> probes(
      std::min(group_size, keys.size()));
  for (size_t start = 0; start < keys.size(); start += group_size) {
    const size_t group = std::min(group_size, keys.size() - start);
    for (size_t g = 0; g < group; ++g) {
      layout.PrepareProbe(keys[start + g], &probes[g]);
      if constexpr (!Layout::kPrepareProbePrefetches) {
        layout.PrefetchProbe(probes[g]);
      }
    }
    for (size_t g = 0; g < group; ++g) resolve(start + g, probes[g]);
  }
}

/// Membership through RunProbeLoop: `results` is resized to keys.size() and
/// entry i becomes 1 iff layout.ResolveProbe answers true for keys[i].
template <typename Layout, typename Keys>
void RunProbeContains(const Layout& layout, const Keys& keys,
                      size_t group_size, std::vector<uint8_t>* results) {
  results->resize(keys.size());
  RunProbeLoop(layout, keys, group_size,
               [&](size_t i, const typename Layout::Probe& probe) {
                 (*results)[i] = layout.ResolveProbe(probe) ? 1 : 0;
               });
}

}  // namespace shbf

#endif  // SHBF_CORE_PROBE_LOOP_H_
