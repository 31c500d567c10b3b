// Unit tests of the benchmark's own helpers (harness.h). Run with
// `python3 perfbench/run.py --selftest`.
#include "harness.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace perfbench {
namespace {

TEST(TailPercentileTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(0), 0);
  EXPECT_EQ(TailPercentile(19), 0);    // 9.5 above the median
  EXPECT_EQ(TailPercentile(20), 50);   // 10 above the median
  EXPECT_EQ(TailPercentile(99), 50);   // 9.9 beyond p90
  EXPECT_EQ(TailPercentile(100), 90);  // 10 beyond p90
  EXPECT_EQ(TailPercentile(999), 90);
  EXPECT_EQ(TailPercentile(1000), 99);
  EXPECT_EQ(TailPercentile(9999), 99);
  EXPECT_DOUBLE_EQ(TailPercentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(TailPercentile(250000), 99.99);
}

TEST(TailPercentileTest, SummarizeReportsTheSupportedTail) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  const TimingSummary summary = Summarize(samples);
  EXPECT_EQ(summary.count, 1000u);
  EXPECT_EQ(summary.p50, 500);
  EXPECT_EQ(summary.tail_percentile, 99);
  EXPECT_EQ(summary.tail, 990);  // exactly ten samples lie beyond it
  EXPECT_EQ(Median({3, 1, 2, 10}), 2.5);
}

TEST(SelfTimeTest, SubtractsChildCoverageOnce) {
  // request [0, 100) with children build [0, 10), send [10, 20),
  // recv [60, 90) and an overlapping parse [80, 95).
  std::vector<Span> spans = {
      {"request", 0, 100, -1, 7},   {"protocol.build", 0, 10, 0, 7},
      {"net.send", 10, 20, 0, 7},   {"net.recv", 60, 90, 0, 7},
      {"protocol.parse", 80, 95, 0, 7},
  };
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self.at("request").total_ns, 100u);
  EXPECT_EQ(self.at("request").self_ns, 100u - 10 - 10 - 35);
  EXPECT_EQ(self.at("net.recv").self_ns, 30u);
  EXPECT_EQ(self.at("protocol.parse").count, 1u);
}

TEST(SelfTimeTest, NestedLevelsAndClippedChildren) {
  // root [0, 100) > mid [10, 60) > leaf [20, 30); a child running past its
  // parent's end is clipped to the parent.
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},
      {"mid", 10, 60, 0, 1},
      {"leaf", 20, 30, 1, 1},
      {"late", 90, 130, 0, 1},
  };
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self.at("root").self_ns, 100u - 50 - 10);
  EXPECT_EQ(self.at("mid").self_ns, 40u);
  EXPECT_EQ(self.at("leaf").self_ns, 10u);
  EXPECT_EQ(self.at("late").self_ns, 40u);
}

TEST(InputsTest, SameSeedSameBytes) {
  const auto a = FlowKeys(42, 40000);
  const auto b = FlowKeys(42, 40000);
  ASSERT_EQ(a.size(), 40000u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(Fingerprint(a), Fingerprint(b));
  EXPECT_NE(Fingerprint(a), Fingerprint(FlowKeys(43, 40000)));
  for (const std::string& key : a) ASSERT_EQ(key.size(), 13u);
  // A shorter draw is a prefix of a longer one.
  const auto prefix = FlowKeys(42, 20000);
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), a.begin()));
}

TEST(InputsTest, SameSeedSameRequestsAndSchedules) {
  auto flatten = [](const RequestRefs& refs) {
    std::vector<std::string> out;
    for (const auto& request : refs) {
      std::string bytes;
      for (const KeyRef& ref : request) {
        bytes += std::to_string(ref.index) + (ref.member ? "m," : "n,");
      }
      out.push_back(bytes);
    }
    return out;
  };
  EXPECT_EQ(flatten(HalfMemberRequests(7, 1000, 500, 16, 64)),
            flatten(HalfMemberRequests(7, 1000, 500, 16, 64)));
  EXPECT_NE(flatten(HalfMemberRequests(7, 1000, 500, 16, 64)),
            flatten(HalfMemberRequests(8, 1000, 500, 16, 64)));
  EXPECT_EQ(flatten(ZipfRequests(7, 1000, 500, 16, 64, 0.99)),
            flatten(ZipfRequests(7, 1000, 500, 16, 64, 0.99)));
  EXPECT_EQ(MixedSchedule(9, 1000), MixedSchedule(9, 1000));
  EXPECT_NE(MixedSchedule(9, 1000), MixedSchedule(10, 1000));
}

TEST(InputsTest, RequestShapes) {
  for (const auto& request : HalfMemberRequests(3, 1000, 500, 8, 64)) {
    size_t members = 0;
    for (const KeyRef& ref : request) {
      members += ref.member;
      EXPECT_LT(ref.index, ref.member ? 1000u : 500u);
    }
    EXPECT_EQ(members, 32u);
  }
  const std::vector<OpKind> schedule = MixedSchedule(5, 1000);
  size_t counts[3] = {0, 0, 0};
  for (size_t i = 0; i < schedule.size(); ++i) {
    counts[static_cast<int>(schedule[i])] += 1;
    if (i % 10 == 9) {
      EXPECT_EQ(counts[0], (i + 1) / 10 * 8);
      EXPECT_EQ(counts[1], (i + 1) / 10);
    }
  }
  EXPECT_EQ(counts[2], 100u);
}

shbf::obs::HistogramSnapshot Histogram(const std::string& name,
                                       std::vector<uint64_t> values) {
  shbf::obs::HistogramSnapshot h;
  h.name = name;
  for (uint64_t v : values) {
    h.buckets[shbf::obs::Histogram::BucketIndex(v)] += 1;
    h.count += 1;
    h.sum += v;
  }
  return h;
}

TEST(MetricsDeltaTest, CountersAndHistogramsSubtract) {
  shbf::obs::MetricsSnapshot before;
  before.counters = {{"server.frames_total", 100},
                     {"server.protocol_errors_total", 2}};
  before.histograms = {Histogram("server.queue_wait_us", {1, 5, 5})};
  before.gauges = {{"server.last_drain_us", 3}};
  shbf::obs::MetricsSnapshot after;
  after.counters = {{"server.frames_total", 160},
                    {"server.protocol_errors_total", 2},
                    {"multiset.probes_total", 9}};
  after.histograms = {Histogram("server.queue_wait_us", {1, 5, 5, 40, 40, 40}),
                      Histogram("server.handle_us.add", {7})};
  after.gauges = {{"server.last_drain_us", 8}};

  const auto delta = MetricsDelta(before, after);
  EXPECT_EQ(delta.CounterValue("server.frames_total"), 60u);
  EXPECT_EQ(delta.CounterValue("server.protocol_errors_total", 99), 0u);
  EXPECT_EQ(delta.CounterValue("multiset.probes_total"), 9u);  // new metric
  const auto* wait = delta.FindHistogram("server.queue_wait_us");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count, 3u);
  EXPECT_EQ(wait->sum, 120u);
  EXPECT_EQ(wait->buckets[shbf::obs::Histogram::BucketIndex(40)], 3u);
  EXPECT_EQ(wait->buckets[shbf::obs::Histogram::BucketIndex(5)], 0u);
  EXPECT_GT(wait->Quantile(0.5), 32.0);  // every new sample is in (32, 64]
  ASSERT_NE(delta.FindHistogram("server.handle_us.add"), nullptr);
  EXPECT_EQ(delta.FindHistogram("server.handle_us.add")->count, 1u);
  ASSERT_EQ(delta.gauges.size(), 1u);
  EXPECT_EQ(delta.gauges[0].second, 8);
}

TEST(RolesTest, FourCoresKeepEveryRoleApart) {
  const RoleLayout layout = PlanRoles({0, 1, 2, 3}, true);
  EXPECT_FALSE(layout.shared);
  EXPECT_EQ(CheckRoles(layout, 4), "");
  ASSERT_EQ(layout.roles.size(), 3u);
  EXPECT_EQ(layout.roles[1].name, "server");
  EXPECT_EQ(CpuListString(layout.roles[1].cpus), "1-2");
  EXPECT_EQ(CpuListString(layout.roles[2].cpus), "3");
  EXPECT_EQ(CheckRoles(PlanRoles({0, 1, 2, 3, 4, 5}, false), 6), "");
}

TEST(RolesTest, RefusesSharedCoreWhenHostAllowsApart) {
  RoleLayout layout;
  layout.roles = {{"os", {0}}, {"server", {1, 2}}, {"generator", {2}}};
  EXPECT_NE(CheckRoles(layout, 4), "");
  // On a two-core host the same sharing is the only option.
  const RoleLayout small = PlanRoles({0, 1}, true);
  EXPECT_EQ(CheckRoles(small, 2), "");
  const RoleLayout single = PlanRoles({5}, true);
  EXPECT_TRUE(single.shared);
  EXPECT_EQ(CheckRoles(single, 1), "");
}

TEST(RolesTest, CpuListRendering) {
  EXPECT_EQ(CpuListString({0, 1, 2, 5, 7, 8}), "0-2,5,7-8");
  EXPECT_EQ(CpuListString({}), "");
}

}  // namespace
}  // namespace perfbench
