#include "harness.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "core/rng.h"
#include "trace/trace_generator.h"
#include "trace/zipf.h"

namespace perfbench {

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double TailPercentile(size_t count) {
  double best = 0;
  // Candidates 50, 90, 99, 99.9, ...: the share beyond is 1/2, then 10^-j.
  for (int j = 0; j < 12; ++j) {
    const double beyond_share = j == 0 ? 0.5 : std::pow(10.0, -j);
    const double beyond = static_cast<double>(count) * beyond_share;
    if (beyond + 1e-9 < 10.0) break;
    best = 100.0 * (1.0 - beyond_share);
  }
  return best;
}

double PercentileOfSorted(const std::vector<double>& sorted,
                          double percentile) {
  const double rank = std::ceil(percentile / 100.0 *
                                static_cast<double>(sorted.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

TimingSummary Summarize(std::vector<double> samples) {
  TimingSummary summary;
  summary.count = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  summary.p50 = PercentileOfSorted(samples, 50);
  summary.tail_percentile = TailPercentile(samples.size());
  summary.tail = PercentileOfSorted(samples, summary.tail_percentile);
  return summary;
}

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const size_t parent = static_cast<size_t>(span.parent);
    if (parent >= spans.size()) continue;
    const uint64_t start = std::max(span.start_ns, spans[parent].start_ns);
    const uint64_t end = std::min(span.end_ns, spans[parent].end_ns);
    if (end > start) children[parent].emplace_back(start, end);
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const uint64_t duration =
        span.end_ns > span.start_ns ? span.end_ns - span.start_ns : 0;
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    uint64_t covered = 0;
    uint64_t run_start = 0, run_end = 0;
    bool open = false;
    for (const auto& [start, end] : intervals) {
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;
    SelfTime& total = out[span.name];
    total.count += 1;
    total.total_ns += duration;
    total.self_ns += duration - std::min(duration, covered);
    total.keys += span.keys;
  }
  return out;
}

std::string SpansToJson(const std::vector<Span>& spans, uint64_t epoch_ns) {
  std::string out = "[\n";
  char line[320];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof(line),
                  "  {\"name\": \"%s\", \"start\": %llu, \"end\": %llu, "
                  "\"parent\": %lld, \"request_id\": %llu, \"keys\": %llu}%s\n",
                  s.name,
                  static_cast<unsigned long long>(s.start_ns - epoch_ns),
                  static_cast<unsigned long long>(s.end_ns - epoch_ns),
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request_id),
                  static_cast<unsigned long long>(s.keys),
                  i + 1 < spans.size() ? "," : "");
    out += line;
  }
  out += "]";
  return out;
}

shbf::obs::MetricsSnapshot MetricsDelta(
    const shbf::obs::MetricsSnapshot& before,
    const shbf::obs::MetricsSnapshot& after) {
  shbf::obs::MetricsSnapshot delta;
  delta.uptime_seconds = after.uptime_seconds;
  delta.version = after.version;
  delta.dispatch = after.dispatch;
  delta.gauges = after.gauges;
  for (const auto& [name, value] : after.counters) {
    const uint64_t base = before.CounterValue(name, 0);
    delta.counters.emplace_back(name, value >= base ? value - base : 0);
  }
  for (const shbf::obs::HistogramSnapshot& h : after.histograms) {
    shbf::obs::HistogramSnapshot d = h;
    if (const auto* b = before.FindHistogram(h.name)) {
      d.count = h.count >= b->count ? h.count - b->count : 0;
      d.sum = h.sum >= b->sum ? h.sum - b->sum : 0;
      for (size_t i = 0; i < d.buckets.size(); ++i) {
        d.buckets[i] =
            h.buckets[i] >= b->buckets[i] ? h.buckets[i] - b->buckets[i] : 0;
      }
    }
    delta.histograms.push_back(std::move(d));
  }
  return delta;
}

std::vector<std::string> FlowKeys(uint64_t seed, size_t count) {
  std::vector<std::string> keys;
  keys.reserve(count);
  for (uint64_t chunk = 0; keys.size() < count; ++chunk) {
    shbf::TraceGenerator generator(SubSeed(seed, 0x1000000 + chunk));
    std::vector<std::string> part = generator.DistinctFlowKeys(
        std::min(kFlowKeyChunk, count - keys.size()));
    for (std::string& key : part) keys.push_back(std::move(key));
  }
  return keys;
}

uint64_t Fingerprint(const std::vector<std::string>& keys, uint64_t basis) {
  uint64_t h = basis;
  auto mix = [&h](unsigned char byte) {
    h ^= byte;
    h *= 0x100000001b3ull;
  };
  for (const std::string& key : keys) {
    const uint64_t len = key.size();
    for (int i = 0; i < 8; ++i) mix(static_cast<unsigned char>(len >> (8 * i)));
    for (char c : key) mix(static_cast<unsigned char>(c));
  }
  return h;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return shbf::Mix64(seed * 0x9e3779b97f4a7c15ull + shbf::Mix64(stream + 1));
}

RequestRefs HalfMemberRequests(uint64_t seed, size_t members,
                               size_t non_members, size_t requests,
                               size_t keys_per_request) {
  shbf::Rng rng(seed);
  RequestRefs out(requests);
  for (auto& request : out) {
    request.resize(keys_per_request);
    for (size_t j = 0; j < keys_per_request; ++j) {
      const bool member = j < keys_per_request / 2;
      request[j].member = member;
      request[j].index = static_cast<uint32_t>(
          rng.NextBelow(member ? members : non_members));
    }
    for (size_t j = keys_per_request; j > 1; --j) {
      std::swap(request[j - 1], request[rng.NextBelow(j)]);
    }
  }
  return out;
}

RequestRefs ZipfRequests(uint64_t seed, size_t members, size_t non_members,
                         size_t requests, size_t keys_per_request,
                         double alpha) {
  shbf::Rng rng(seed);
  const size_t population = members + non_members;
  std::vector<uint32_t> by_rank(population);
  for (size_t i = 0; i < population; ++i) by_rank[i] = static_cast<uint32_t>(i);
  for (size_t i = population; i > 1; --i) {
    std::swap(by_rank[i - 1], by_rank[rng.NextBelow(i)]);
  }
  shbf::ZipfGenerator zipf(population, alpha, SubSeed(seed, 1));
  RequestRefs out(requests);
  for (auto& request : out) {
    request.resize(keys_per_request);
    for (KeyRef& ref : request) {
      const uint32_t item = by_rank[zipf.Next()];
      ref.member = item < members;
      ref.index = ref.member ? item : static_cast<uint32_t>(item - members);
    }
  }
  return out;
}

std::vector<OpKind> MixedSchedule(uint64_t seed, size_t ops) {
  shbf::Rng rng(SubSeed(seed, 0x5c4ed));
  std::vector<OpKind> schedule;
  schedule.reserve(ops + 10);
  while (schedule.size() < ops) {
    OpKind block[10];
    for (int i = 0; i < 8; ++i) block[i] = OpKind::kQuery;
    block[8] = OpKind::kAdd;
    block[9] = OpKind::kWhichSets;
    for (size_t i = 10; i > 1; --i) {
      std::swap(block[i - 1], block[rng.NextBelow(i)]);
    }
    for (OpKind op : block) schedule.push_back(op);
  }
  schedule.resize(ops);
  return schedule;
}

RoleLayout PlanRoles(const std::vector<int>& cpus, bool with_server) {
  RoleLayout layout;
  const size_t n = cpus.size();
  auto at = [&](size_t i) { return cpus[std::min(i, n - 1)]; };
  const char* client = with_server ? "generator" : "caller";
  if (n >= 4) {
    layout.roles.push_back({"os", {at(0)}});
    if (with_server) layout.roles.push_back({"server", {at(1), at(2)}});
    layout.roles.push_back({client, {at(3)}});
  } else if (n == 3) {
    layout.roles.push_back({"os", {at(0)}});
    if (with_server) layout.roles.push_back({"server", {at(1)}});
    layout.roles.push_back({client, {at(2)}});
  } else {
    // Two cores or one: nothing is left for the OS, and with one core the
    // server and the generator share it.
    if (with_server) layout.roles.push_back({"server", {at(0)}});
    layout.roles.push_back({client, {at(1)}});
  }
  std::vector<int> used;
  for (const Role& role : layout.roles) {
    for (int cpu : role.cpus) {
      if (std::find(used.begin(), used.end(), cpu) != used.end()) {
        layout.shared = true;
      }
      used.push_back(cpu);
    }
  }
  return layout;
}

std::string CheckRoles(const RoleLayout& layout, size_t usable_cpus) {
  // One core per role slot plus one for the OS when it has a role.
  size_t needed = 0;
  for (const Role& role : layout.roles) needed += role.cpus.size();
  std::vector<std::pair<int, std::string>> owners;
  for (const Role& role : layout.roles) {
    if (role.cpus.empty()) return "role " + role.name + " has no core";
    for (int cpu : role.cpus) {
      for (const auto& [owner_cpu, owner] : owners) {
        if (owner_cpu == cpu && usable_cpus >= needed) {
          return "roles " + owner + " and " + role.name + " share core " +
                 std::to_string(cpu) + " although " +
                 std::to_string(usable_cpus) + " cores allow them apart";
        }
      }
      owners.emplace_back(cpu, role.name);
    }
  }
  return "";
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool PinThisThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

IdleSpinners::IdleSpinners(const std::vector<int>& cpus) {
  const pid_t parent = getpid();
  for (int cpu : cpus) {
    const pid_t pid = fork();
    if (pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(0);
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_param param{};
      if (sched_setaffinity(0, sizeof(set), &set) != 0 ||
          sched_setscheduler(0, SCHED_IDLE, &param) != 0) {
        _exit(0);
      }
      for (;;) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    }
    if (pid > 0) pids_.push_back(pid);
  }
}

IdleSpinners::~IdleSpinners() {
  for (pid_t pid : pids_) kill(pid, SIGKILL);
  for (pid_t pid : pids_) {
    while (waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
}

std::string CpuListString(const std::vector<int>& cpus) {
  std::string out;
  for (size_t i = 0; i < cpus.size();) {
    size_t j = i;
    while (j + 1 < cpus.size() && cpus[j + 1] == cpus[j] + 1) ++j;
    if (!out.empty()) out += ',';
    out += std::to_string(cpus[i]);
    if (j > i) {
      out += '-';
      out += std::to_string(cpus[j]);
    }
    i = j + 1;
  }
  return out;
}

namespace {

bool ReadSmallFile(const std::string& path, std::string* out) {
  const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  out->clear();
  char buffer[4096];
  for (;;) {
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out->append(buffer, static_cast<size_t>(n));
  }
  close(fd);
  return true;
}

uint64_t FieldAfter(const std::string& text, const char* label) {
  const size_t at = text.find(label);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + std::strlen(label), nullptr, 10);
}

}  // namespace

bool ReadProcSample(pid_t pid, ProcSample* out, bool with_ctx_switches) {
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = opendir(task_dir.c_str());
  if (dir == nullptr) return false;
  ProcSample sample;
  const long ticks = sysconf(_SC_CLK_TCK);
  std::string text;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const std::string base = task_dir + "/" + entry->d_name;
    if (ReadSmallFile(base + "/schedstat", &text) && !text.empty()) {
      sample.cpu_ns += std::strtoull(text.c_str(), nullptr, 10);
    } else if (ReadSmallFile(base + "/stat", &text)) {
      // Fields 14 and 15 (utime, stime) follow the ")" closing the name.
      const size_t close_paren = text.rfind(')');
      if (close_paren == std::string::npos) continue;
      const char* p = text.c_str() + close_paren + 2;
      unsigned long long utime = 0, stime = 0;
      if (std::sscanf(p,
                      "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                      &utime, &stime) == 2 &&
          ticks > 0) {
        sample.cpu_ns += (utime + stime) * (1000000000ull /
                                            static_cast<uint64_t>(ticks));
      }
    }
    if (with_ctx_switches && ReadSmallFile(base + "/status", &text)) {
      sample.ctx_switches += FieldAfter(text, "voluntary_ctxt_switches:");
      sample.ctx_switches += FieldAfter(text, "nonvoluntary_ctxt_switches:");
    }
  }
  closedir(dir);
  *out = sample;
  return true;
}

std::string ServerProcess::Start(const std::string& binary,
                                 const std::vector<std::string>& args,
                                 const std::vector<int>& cpus,
                                 int timeout_ms) {
  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) return "pipe failed";
  std::vector<std::string> argv_strings = {binary, "--port=0"};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return "fork failed";
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus) CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0) _exit(126);
    dup2(pipe_fds[1], STDOUT_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(pipe_fds[1]);
  pid_ = pid;
  stdout_fd_ = pipe_fds[0];
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(timeout_ms) * 1000000ull;
  char buffer[4096];
  for (;;) {
    const size_t line_at = output_.find("serving ");
    const size_t on_at =
        line_at == std::string::npos ? line_at : output_.find(" on ", line_at);
    const size_t eol =
        on_at == std::string::npos ? on_at : output_.find('\n', on_at);
    if (eol != std::string::npos) {
      const size_t colon = output_.find(':', on_at + 4);
      if (colon == std::string::npos || colon > eol) {
        return "no port in: " + output_;
      }
      port_ = static_cast<uint16_t>(std::atoi(output_.c_str() + colon + 1));
      return port_ != 0 ? "" : "bad port in: " + output_;
    }
    const uint64_t now = NowNs();
    if (now >= deadline) return "server did not start in time: " + output_;
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready =
        poll(&pfd, 1, static_cast<int>((deadline - now) / 1000000ull) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    const ssize_t n = read(stdout_fd_, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return "server exited before serving: " + output_;
    output_.append(buffer, static_cast<size_t>(n));
  }
}

bool ServerProcess::Stop() {
  if (pid_ < 0) return exited_cleanly_;
  kill(pid_, SIGTERM);
  int status = 0;
  bool reaped = false;
  const uint64_t deadline = NowNs() + 10ull * 1000000000ull;
  while (!reaped) {
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      reaped = true;
      break;
    }
    if (r < 0 && errno != EINTR) break;
    if (NowNs() >= deadline) {
      kill(pid_, SIGKILL);
      while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      status = -1;
      reaped = true;
      break;
    }
    usleep(2000);
  }
  if (stdout_fd_ >= 0) {
    char buffer[4096];
    ssize_t n;
    while ((n = read(stdout_fd_, buffer, sizeof(buffer))) > 0) {
      output_.append(buffer, static_cast<size_t>(n));
    }
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
  exited_cleanly_ = reaped && status >= 0 && WIFEXITED(status) &&
                    WEXITSTATUS(status) == 0;
  pid_ = -1;
  return exited_cleanly_;
}

}  // namespace perfbench
