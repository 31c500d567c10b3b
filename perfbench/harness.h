// Helpers of the perfbench program (perfbench.cc): timing summaries, the
// in-memory span log and its self-time rule, METRICS deltas, seeded inputs
// and op schedules, role pinning and idle spinners, /proc sampling and the
// server child process. Everything here is measured from outside the
// library: the benchmark only calls public functions of src/ modules.
#ifndef SHBF_PERFBENCH_HARNESS_H_
#define SHBF_PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

// ------------------------------------------------------------- timing ----

/// Monotonic nanoseconds (steady_clock), the time base of every span.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the calling thread, nanoseconds.
uint64_t ThreadCpuNs();

/// The tail percentile a sample of `count` timings supports: the highest of
/// 50, 90, 99, 99.9, 99.99, ... that leaves at least ten samples beyond it.
/// 0 when even the median has fewer than ten samples above it.
double TailPercentile(size_t count);

/// Nearest-rank percentile (0..100) of `sorted` (ascending, non-empty).
double PercentileOfSorted(const std::vector<double>& sorted, double percentile);

/// Median of `values` (the mean of the two middle values for even sizes);
/// 0 for an empty vector.
double Median(std::vector<double> values);

/// Median and supported tail of one timing sample.
struct TimingSummary {
  size_t count = 0;
  double p50 = 0;
  double tail_percentile = 0;  ///< TailPercentile(count)
  double tail = 0;             ///< the sample at tail_percentile
};
TimingSummary Summarize(std::vector<double> samples);

// -------------------------------------------------------------- spans ----

/// One traced interval. `parent` indexes the SpanLog (-1 for a root);
/// spans of one request share `request_id`; `keys` is the number of keys
/// the interval worked on (0 when it worked on none of its own).
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request_id = 0;
  uint64_t keys = 0;
};

/// Append-only in-memory span store; written out once the run ends.
class SpanLog {
 public:
  /// Opens a span now; returns its index for End() and children.
  int64_t Begin(const char* name, int64_t parent, uint64_t request_id,
                uint64_t keys) {
    spans_.push_back(Span{name, NowNs(), 0, parent, request_id, keys});
    return static_cast<int64_t>(spans_.size() - 1);
  }
  void End(int64_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }
  void SetKeys(int64_t index, uint64_t keys) {
    spans_[static_cast<size_t>(index)].keys = keys;
  }
  /// Records an already-measured interval.
  int64_t Add(const Span& span) {
    spans_.push_back(span);
    return static_cast<int64_t>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

 private:
  std::vector<Span> spans_;
};

/// Per-name totals of span self time.
struct SelfTime {
  uint64_t count = 0;
  uint64_t total_ns = 0;  ///< sum of durations
  uint64_t self_ns = 0;   ///< sum of durations minus child coverage
  uint64_t keys = 0;      ///< sum of the spans' keys
};

/// A span's self time is its duration minus the part of its interval that
/// its direct children cover (overlapping children count once; children
/// are clipped to the parent). Aggregated by span name.
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans);

/// {"name", "start", "end", "parent", "request_id", "keys"} objects, one
/// per line,
/// inside a JSON array; times in ns relative to `epoch_ns`.
std::string SpansToJson(const std::vector<Span>& spans, uint64_t epoch_ns);

// ------------------------------------------------------------ metrics ----

/// `after` minus `before`: counters and histogram buckets/count/sum are
/// subtracted (a metric missing from `before` counts from zero), gauges
/// keep the `after` value. Header fields come from `after`.
shbf::obs::MetricsSnapshot MetricsDelta(
    const shbf::obs::MetricsSnapshot& before,
    const shbf::obs::MetricsSnapshot& after);

// ------------------------------------------------------------- inputs ----

/// `count` flow keys from TraceGenerator::DistinctFlowKeys, drawn in chunks
/// of kFlowKeyChunk keys from generators seeded by (seed, chunk index). The
/// chunking keeps the generator's duplicate table cache-resident; keys are
/// distinct within a chunk and, at 13 random bytes, collide across chunks
/// with probability below 1e-15.
inline constexpr size_t kFlowKeyChunk = size_t{1} << 14;
std::vector<std::string> FlowKeys(uint64_t seed, size_t count);

/// FNV-1a over the length-prefixed bytes of `keys`: two input sets are
/// byte-identical iff their fingerprints match (up to 2^-64).
uint64_t Fingerprint(const std::vector<std::string>& keys,
                     uint64_t basis = 0xcbf29ce484222325ull);

/// Operations of the wire_mixed schedule.
enum class OpKind : uint8_t { kQuery = 0, kAdd = 1, kWhichSets = 2 };

/// A fixed, seeded schedule of `ops` operations: every aligned block of ten
/// holds exactly eight QUERY, one ADD and one WHICH_SETS in seeded order
/// (a trailing partial block keeps the prefix of a shuffled block), so the
/// mix never depends on speed.
std::vector<OpKind> MixedSchedule(uint64_t seed, size_t ops);

/// Seeded sub-stream derivation, so each input family (member draws, query
/// pools, schedules) has its own stream of the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// One key of a generated request: the index into the member list or the
/// non-member list.
struct KeyRef {
  uint32_t index = 0;
  bool member = false;
};
using RequestRefs = std::vector<std::vector<KeyRef>>;

/// `requests` requests of `keys_per_request` keys: the first half of each
/// request's draws are uniform members, the rest uniform non-members, then
/// the request is shuffled.
RequestRefs HalfMemberRequests(uint64_t seed, size_t members,
                               size_t non_members, size_t requests,
                               size_t keys_per_request);

/// Requests whose keys are Zipf(`alpha`)-skewed over members and
/// non-members together: a seeded permutation ranks the union, so hot
/// ranks fall on both kinds.
RequestRefs ZipfRequests(uint64_t seed, size_t members, size_t non_members,
                         size_t requests, size_t keys_per_request,
                         double alpha);

// -------------------------------------------------------------- roles ----

/// One pinned role and the cores it may run on.
struct Role {
  std::string name;
  std::vector<int> cpus;
};

/// Role placement for one run. With at least four usable cores the layout
/// is: core 0 left to the OS, the server child on cores 1-2, the load
/// generator (or in-process caller) on core 3. Fewer cores fold roles
/// together, and the layout says so in `shared`.
struct RoleLayout {
  std::vector<Role> roles;
  bool shared = false;  ///< some roles share a core
};

/// Plans the layout over `cpus` (the process's allowed cores, ascending).
/// `with_server` adds the server role.
RoleLayout PlanRoles(const std::vector<int>& cpus, bool with_server);

/// Empty when `layout` is acceptable on a host with `usable_cpus` cores;
/// otherwise why not. Two roles on one core are refused when the host has
/// enough cores to keep them apart (one each, plus one for the OS).
std::string CheckRoles(const RoleLayout& layout, size_t usable_cpus);

/// The cores this process may run on (sched_getaffinity), ascending.
std::vector<int> AllowedCpus();

/// Pins the calling thread (and the threads it creates later) to `cpus`.
bool PinThisThread(const std::vector<int>& cpus);

/// One SCHED_IDLE busy-wait child process per core of `cpus`, while the
/// object lives. A SCHED_IDLE task runs only when its core would otherwise
/// idle and is preempted at once by any normal task that wakes there, so
/// the core never halts: under a hypervisor a wake-up then reaches a
/// running vCPU instead of waiting for the host to reschedule a halted one.
/// The spinners are processes of their own, so the benchmark process keeps
/// one thread and no role's CPU time counts them. Killed with the
/// benchmark (PR_SET_PDEATHSIG); the destructor kills and reaps them.
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::vector<pid_t> pids_;
};

/// "3" / "1-2" / "0,2" rendering of a core list.
std::string CpuListString(const std::vector<int>& cpus);

// --------------------------------------------------------------- proc ----

/// Accumulated cost of one process, summed over its live threads.
struct ProcSample {
  uint64_t cpu_ns = 0;        ///< on-CPU time (schedstat; else utime+stime)
  uint64_t ctx_switches = 0;  ///< voluntary + nonvoluntary
};
/// `with_ctx_switches` = false skips the (slower) status files and leaves
/// ctx_switches 0.
bool ReadProcSample(pid_t pid, ProcSample* out, bool with_ctx_switches = true);

// ------------------------------------------------------ server child ----

/// An shbf_server child process, pinned to its cores before exec, killed
/// with the benchmark (PR_SET_PDEATHSIG) and stopped by SIGTERM + wait.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `binary` with `args` (plus --port=0) on `cpus` and waits up to
  /// `timeout_ms` for its "serving ... on ADDR:PORT" line. Empty on
  /// success, else the failure.
  std::string Start(const std::string& binary,
                    const std::vector<std::string>& args,
                    const std::vector<int>& cpus, int timeout_ms);

  /// SIGTERM, then waits (SIGKILL after a grace period). Returns true when
  /// the server exited cleanly with status 0. Idempotent.
  bool Stop();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  /// Everything the server printed on stdout so far.
  const std::string& output() const { return output_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  std::string output_;
  bool exited_cleanly_ = false;
};

}  // namespace perfbench

#endif  // SHBF_PERFBENCH_HARNESS_H_
