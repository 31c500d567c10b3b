// perfbench — the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1 --out=DIR
//
// (perfbench/run.py builds this binary, and shbf_server next to it, and
// calls it; see perfbench/README.md for the workloads, metrics and pinning
// layout.)
//
// Workloads, all over split_block_shbf_m at 12 bits/key, k = 8, with
// 13-byte flow keys from TraceGenerator::DistinctFlowKeys:
//   inproc_membership  one pinned caller, 1024-key batches through
//                      BatchQueryEngine on an 8M-key (12 MB) filter
//   wire_membership    the same filter served from an mmap'd image by a
//                      pinned shbf_server child (--threads=1); 2 closed-loop
//                      connections of 64-key QUERY frames
//   wire_mixed         a heap-built 4-shard filter plus a 64-set catalog
//                      (--threads=2); 3 closed-loop connections following
//                      seeded 80/10/10 QUERY/ADD/WHICH_SETS schedules
//
// Every run is sized by operation count (rate constants × --seconds), so a
// run's work, and with it fpr and bytes_per_key, never depends on speed.
// Every answer is checked; a failed check fails the run. The last stdout
// line is the JSON result: end-to-end metrics with --trace=0, the per-layer
// ladder metrics with --trace=1.
#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/filter_registry.h"
#include "api/set_catalog.h"
#include "bench_util/json_report.h"
#include "bench_util/timer.h"
#include "core/file_io.h"
#include "core/rng.h"
#include "core/serde.h"
#include "engine/batch_query_engine.h"
#include "engine/sharded_filter.h"
#include "harness.h"
#include "hash/hash_family.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/net.h"
#include "server/protocol.h"
#include "shbf/split_block_shbf_membership.h"

namespace perfbench {
namespace {

using shbf::BatchQueryEngine;
using shbf::FilterRegistry;
using shbf::FilterSpec;
using shbf::MembershipFilter;

// ------------------------------------------------------- configuration ----

constexpr const char* kFilterName = "split_block_shbf_m";
constexpr double kBitsPerKey = 12.0;
constexpr uint32_t kHashes = 8;
/// Engine group size: the server's default --batch, used in process too so
/// the in-process and wire engines do identical work per key.
constexpr size_t kEngineBatch = 32;

/// inproc_membership / wire_membership: 8M members is a 12 MB filter, six
/// times a core's 2 MB L2, so every probe misses L2 as it would at scale.
constexpr size_t kMembers = size_t{8} << 20;
/// Non-members: half of every request, and the fixed fpr probe set.
constexpr size_t kNonMembers = size_t{2} << 20;
constexpr size_t kInprocRequestKeys = 1024;
constexpr size_t kInprocPool = 512;
constexpr size_t kWireFrameKeys = 64;
constexpr size_t kWirePool = 4096;
constexpr size_t kMembershipConnections = 2;

/// wire_mixed: a 2M-key (3 MB) build over 4 shards, plus every ADD.
constexpr size_t kMixedBuildKeys = size_t{2} << 20;
constexpr uint32_t kMixedShards = 4;
constexpr size_t kMixedConnections = 3;
constexpr size_t kMixedQueryKeys = 1024;
constexpr size_t kMixedAddKeys = 256;
constexpr size_t kMixedWhichKeys = 256;
constexpr size_t kMixedQueryPool = 512;
constexpr size_t kMixedWhichPool = 256;
constexpr double kMixedZipfAlpha = 0.99;
constexpr size_t kCatalogSets = 64;
constexpr size_t kCatalogKeys = kCatalogSets * 8192;

/// Operations per second of --seconds. Chosen so a run lasts about
/// --seconds on a 4-core Xeon host; the count, not the clock, ends a run.
constexpr double kInprocBatchesPerSecond = 12000;
constexpr double kMembershipFramesPerSecond = 32000;
constexpr double kMixedOpsPerSecond = 4500;
/// The traced ladder runs each pass at this share of an untraced run.
constexpr double kTracedPassShare = 0.1;

constexpr int kSetupRepeats = 3;
/// A timed window is cut into slices of this many requests (the last one
/// takes the remainder): the fewest that give a p99 with ten samples beyond.
constexpr size_t kSliceRequests = 1000;
constexpr int kResponseTimeoutMs = 30000;
constexpr int kServerStartTimeoutMs = 60000;

// Sub-seed streams of the workload seed.
constexpr uint64_t kStreamKeys = 1;
constexpr uint64_t kStreamRequests = 2;
constexpr uint64_t kStreamWire = 3;
constexpr uint64_t kStreamCatalog = 4;
constexpr uint64_t kStreamSchedule = 5;
constexpr uint64_t kStreamWhich = 6;

/// A failed correctness check: ends the run without a metric.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void Require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

void RequireOk(const shbf::Status& status, const std::string& what) {
  if (!status.ok()) throw CheckFailure(what + ": " + status.ToString());
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string server;  ///< shbf_server, built next to this binary
};

/// Requests attempted and failed across the run (the result's counts).
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

FilterSpec MakeSpec(size_t keys, uint32_t shards) {
  FilterSpec spec = FilterSpec::ForKeys(keys, kBitsPerKey, kHashes);
  spec.batch_size = kEngineBatch;
  spec.shards = shards;
  return spec;
}

std::unique_ptr<MembershipFilter> CreateFilter(size_t keys, uint32_t shards) {
  std::unique_ptr<MembershipFilter> filter;
  RequireOk(FilterRegistry::Global().Create(kFilterName, MakeSpec(keys, shards),
                                            &filter),
            "create filter");
  return filter;
}

std::vector<std::vector<std::string>> Materialize(
    const RequestRefs& refs, const std::vector<std::string>& keys,
    size_t non_member_offset) {
  std::vector<std::vector<std::string>> out(refs.size());
  for (size_t r = 0; r < refs.size(); ++r) {
    out[r].reserve(refs[r].size());
    for (const KeyRef& ref : refs[r]) {
      out[r].push_back(
          keys[ref.member ? ref.index : non_member_offset + ref.index]);
    }
  }
  return out;
}

uint64_t FingerprintPool(const std::vector<std::vector<std::string>>& pool,
                         uint64_t basis) {
  for (const auto& request : pool) basis = Fingerprint(request, basis);
  return basis;
}

// ---------------------------------------------------------- inputs ----

/// Inputs of inproc_membership and wire_membership.
struct MembershipInputs {
  std::unique_ptr<MembershipFilter> filter;
  /// The same members over 4 shards; built only for the traced ladder.
  std::unique_ptr<MembershipFilter> sharded;
  std::vector<std::vector<std::string>> requests;
  std::vector<std::vector<uint8_t>> member_flags;
  std::vector<std::string> probes;  ///< every non-member: the fpr probe set
  uint64_t fingerprint = 0;
};

MembershipInputs MakeMembershipInputs(uint64_t seed, size_t keys_per_request,
                                      size_t pool, bool with_sharded) {
  MembershipInputs in;
  std::vector<std::string> keys =
      FlowKeys(SubSeed(seed, kStreamKeys), kMembers + kNonMembers);
  in.filter = CreateFilter(kMembers, 1);
  for (size_t i = 0; i < kMembers; ++i) in.filter->Add(keys[i]);
  if (with_sharded) {
    in.sharded = CreateFilter(kMembers, kMixedShards);
    for (size_t i = 0; i < kMembers; ++i) in.sharded->Add(keys[i]);
  }
  const RequestRefs refs =
      HalfMemberRequests(SubSeed(seed, kStreamRequests), kMembers, kNonMembers,
                         pool, keys_per_request);
  in.requests = Materialize(refs, keys, kMembers);
  in.member_flags.resize(refs.size());
  for (size_t r = 0; r < refs.size(); ++r) {
    for (const KeyRef& ref : refs[r]) {
      in.member_flags[r].push_back(ref.member ? 1 : 0);
    }
  }
  in.probes.assign(std::make_move_iterator(keys.begin() + kMembers),
                   std::make_move_iterator(keys.end()));
  return in;
}

/// Fingerprint of what a membership run feeds the program: the request
/// pool, the probe set and the filter's bytes (which fix the members).
uint64_t MembershipFingerprint(const MembershipInputs& in) {
  uint64_t h = FingerprintPool(in.requests, 0xcbf29ce484222325ull);
  h = Fingerprint(in.probes, h);
  return Fingerprint({in.filter->ToBytes()}, h);
}

/// Zero false negatives: every member position answered 1.
void CheckMembers(const std::vector<uint8_t>& answers,
                  const std::vector<uint8_t>& member_flags,
                  const char* where) {
  Require(answers.size() == member_flags.size(),
          std::string(where) + ": answer count mismatch");
  uint8_t missing = 0;
  for (size_t i = 0; i < answers.size(); ++i) {
    missing |= static_cast<uint8_t>(member_flags[i] & ~answers[i]);
  }
  Require((missing & 1) == 0, std::string(where) + ": false negative");
}

std::vector<std::vector<uint8_t>> LocalAnswers(
    const MembershipFilter& filter,
    const std::vector<std::vector<std::string>>& pool) {
  const BatchQueryEngine engine(shbf::BatchOptions{kEngineBatch});
  std::vector<std::vector<uint8_t>> out(pool.size());
  for (size_t r = 0; r < pool.size(); ++r) {
    engine.ContainsBatch(filter, pool[r], &out[r]);
  }
  return out;
}

/// Inputs of wire_mixed.
struct MixedInputs {
  std::unique_ptr<MembershipFilter> filter;  ///< local twin, final state
  std::string filter_blob;   ///< the initial state, served from the heap
  std::string catalog_blob;  ///< 64 sets behind --catalog
  std::vector<std::vector<std::string>> queries;
  std::vector<std::vector<uint8_t>> query_initial;  ///< answers before ADDs
  std::vector<std::vector<uint8_t>> query_final;    ///< answers after ADDs
  std::vector<std::vector<uint32_t>> query_shard_keys;  ///< per frame/shard
  std::vector<std::vector<std::string>> which;
  std::vector<std::vector<uint64_t>> which_truth;  ///< true-set bitmask
  std::vector<std::vector<std::string>> adds;      ///< one frame per ADD op
  std::vector<std::vector<OpKind>> schedules;      ///< per connection
  std::vector<std::vector<uint32_t>> op_items;     ///< pool / add index
  std::vector<std::string> probes;
  std::vector<uint8_t> probe_final;
  size_t keys_inserted = 0;
  uint64_t fingerprint = 0;
};

MixedInputs MakeMixedInputs(uint64_t seed, size_t ops_per_connection) {
  MixedInputs in;
  in.schedules.resize(kMixedConnections);
  in.op_items.resize(kMixedConnections);
  size_t add_ops = 0;
  for (size_t c = 0; c < kMixedConnections; ++c) {
    in.schedules[c] =
        MixedSchedule(SubSeed(seed, kStreamSchedule + 100 * c),
                      ops_per_connection);
    shbf::Rng rng(SubSeed(seed, kStreamSchedule + 100 * c + 1));
    for (OpKind op : in.schedules[c]) {
      switch (op) {
        case OpKind::kQuery:
          in.op_items[c].push_back(
              static_cast<uint32_t>(rng.NextBelow(kMixedQueryPool)));
          break;
        case OpKind::kWhichSets:
          in.op_items[c].push_back(
              static_cast<uint32_t>(rng.NextBelow(kMixedWhichPool)));
          break;
        case OpKind::kAdd:
          in.op_items[c].push_back(static_cast<uint32_t>(add_ops++));
          break;
      }
    }
  }
  const size_t fresh = add_ops * kMixedAddKeys;
  std::vector<std::string> keys = FlowKeys(
      SubSeed(seed, kStreamKeys), kMixedBuildKeys + kNonMembers + fresh);

  in.filter = CreateFilter(kMixedBuildKeys + fresh, kMixedShards);
  for (size_t i = 0; i < kMixedBuildKeys; ++i) in.filter->Add(keys[i]);
  in.filter_blob = FilterRegistry::Serialize(*in.filter);

  // Catalog: every catalog key joins one seeded set, a quarter a second.
  shbf::Rng set_rng(SubSeed(seed, kStreamCatalog));
  std::vector<uint64_t> truth(kCatalogKeys);
  std::vector<std::vector<size_t>> members_of(kCatalogSets);
  for (size_t i = 0; i < kCatalogKeys; ++i) {
    const size_t primary = set_rng.NextBelow(kCatalogSets);
    truth[i] = uint64_t{1} << primary;
    members_of[primary].push_back(i);
    if (set_rng.NextBelow(4) == 0) {
      const size_t second =
          (primary + 1 + set_rng.NextBelow(kCatalogSets - 1)) % kCatalogSets;
      truth[i] |= uint64_t{1} << second;
      members_of[second].push_back(i);
    }
  }
  shbf::SetCatalog catalog;
  for (size_t s = 0; s < kCatalogSets; ++s) {
    auto set = CreateFilter(members_of[s].size(), 1);
    for (size_t i : members_of[s]) set->Add(keys[i]);
    char name[16];
    std::snprintf(name, sizeof(name), "set-%02zu", s);
    uint32_t id = 0;
    RequireOk(catalog.AddSet(name, std::move(set), &id), "catalog AddSet");
    Require(id == s, "catalog ids are assigned in order");
  }
  in.catalog_blob = catalog.Serialize();

  const RequestRefs query_refs = ZipfRequests(
      SubSeed(seed, kStreamRequests), kMixedBuildKeys, kNonMembers,
      kMixedQueryPool, kMixedQueryKeys, kMixedZipfAlpha);
  in.queries = Materialize(query_refs, keys, kMixedBuildKeys);
  const RequestRefs which_refs =
      HalfMemberRequests(SubSeed(seed, kStreamWhich), kCatalogKeys,
                         kNonMembers, kMixedWhichPool, kMixedWhichKeys);
  in.which = Materialize(which_refs, keys, kMixedBuildKeys);
  in.which_truth.resize(which_refs.size());
  for (size_t r = 0; r < which_refs.size(); ++r) {
    for (const KeyRef& ref : which_refs[r]) {
      in.which_truth[r].push_back(ref.member ? truth[ref.index] : 0);
    }
  }
  for (size_t a = 0; a < add_ops; ++a) {
    const size_t first = kMixedBuildKeys + kNonMembers + a * kMixedAddKeys;
    in.adds.emplace_back(keys.begin() + first,
                         keys.begin() + first + kMixedAddKeys);
  }
  in.probes.assign(keys.begin() + kMixedBuildKeys,
                   keys.begin() + kMixedBuildKeys + kNonMembers);
  keys.clear();
  keys.shrink_to_fit();

  const auto& sharded =
      static_cast<const shbf::ShardedMembershipFilter&>(*in.filter).sharded();
  for (const auto& frame : in.queries) {
    std::vector<uint32_t> per_shard(kMixedShards, 0);
    for (const std::string& key : frame) per_shard[sharded.ShardOf(key)] += 1;
    in.query_shard_keys.push_back(std::move(per_shard));
  }

  // Expected answers from a local engine over the same spec and seed:
  // before any ADD, and after all of them.
  in.query_initial = LocalAnswers(*in.filter, in.queries);
  for (const auto& frame : in.adds) {
    for (const std::string& key : frame) in.filter->Add(key);
  }
  in.keys_inserted = kMixedBuildKeys + fresh;
  in.query_final = LocalAnswers(*in.filter, in.queries);
  in.probe_final = LocalAnswers(*in.filter, {in.probes}).front();
  return in;
}

uint64_t MixedFingerprint(const MixedInputs& in) {
  uint64_t h = FingerprintPool(in.queries, 0xcbf29ce484222325ull);
  h = FingerprintPool(in.which, h);
  h = FingerprintPool(in.adds, h);
  h = Fingerprint(in.probes, h);
  for (size_t c = 0; c < in.schedules.size(); ++c) {
    std::string ops(in.schedules[c].size(), '\0');
    for (size_t i = 0; i < ops.size(); ++i) {
      ops[i] = static_cast<char>(in.schedules[c][i]);
    }
    std::string items(reinterpret_cast<const char*>(in.op_items[c].data()),
                      in.op_items[c].size() * sizeof(uint32_t));
    h = Fingerprint({ops, items}, h);
  }
  return Fingerprint({in.filter_blob, in.catalog_blob}, h);
}

// ------------------------------------------------------------- passes ----

/// One measured pass: latencies, per-slice rates and CPU, totals.
struct PassResult {
  std::vector<double> latencies_us;
  std::vector<double> slice_keys_per_s;
  std::vector<double> slice_cpu_ns_per_key;
  std::vector<size_t> slice_ends;  ///< latencies_us index ending each slice
  uint64_t keys = 0;
  uint64_t requests = 0;
  uint64_t wall_ns = 0;
  uint64_t client_cpu_ns = 0;
  ProcSample server_before;
  ProcSample server_after;

  double KeysPerSecond() const {
    return wall_ns == 0 ? 0 : static_cast<double>(keys) / Seconds(wall_ns);
  }
};

/// Splits a pass of `total` requests into slices and records, at each
/// boundary, the rate and the serving side's CPU per key since the last.
class SliceClock {
 public:
  /// `server_pid` < 0 measures the calling thread's CPU instead.
  SliceClock(size_t total, pid_t server_pid, PassResult* result)
      : total_(total),
        slices_(std::max<size_t>(1, total / kSliceRequests)),
        server_pid_(server_pid),
        result_(result) {
    start_ns_ = slice_ns_ = NowNs();
    client_cpu_start_ = ThreadCpuNs();
    slice_cpu_ = ServingCpu(&result_->server_before);
  }

  /// Call after each completed request with its key count.
  void Completed(uint64_t keys) {
    ++done_;
    slice_keys_ += keys;
    result_->keys += keys;
    result_->requests += 1;
    if (done_ * slices_ < total_ * (slice_ + 1) && done_ != total_) return;
    const uint64_t now = NowNs();
    ProcSample sample;
    const uint64_t cpu = ServingCpu(&sample, done_ == total_);
    if (slice_keys_ > 0 && now > slice_ns_) {
      result_->slice_keys_per_s.push_back(static_cast<double>(slice_keys_) /
                                          Seconds(now - slice_ns_));
      result_->slice_cpu_ns_per_key.push_back(
          static_cast<double>(cpu - slice_cpu_) /
          static_cast<double>(slice_keys_));
      result_->slice_ends.push_back(result_->latencies_us.size());
    }
    slice_ns_ = now;
    slice_cpu_ = cpu;
    slice_keys_ = 0;
    ++slice_;
    if (done_ == total_) {
      result_->wall_ns = now - start_ns_;
      result_->client_cpu_ns = ThreadCpuNs() - client_cpu_start_;
      result_->server_after = sample;
    }
  }

 private:
  /// Context switches are read only at the window's ends (`full`).
  uint64_t ServingCpu(ProcSample* sample, bool full = true) {
    if (server_pid_ < 0) return ThreadCpuNs();
    Require(ReadProcSample(server_pid_, sample, full),
            "read /proc of the server");
    return sample->cpu_ns;
  }

  size_t total_;
  size_t slices_;
  pid_t server_pid_;
  PassResult* result_;
  size_t done_ = 0;
  size_t slice_ = 0;
  uint64_t slice_keys_ = 0;
  uint64_t start_ns_ = 0;
  uint64_t slice_ns_ = 0;
  uint64_t slice_cpu_ = 0;
  uint64_t client_cpu_start_ = 0;
};

/// `batches` engine calls over the request pool, each answer checked.
PassResult InprocPass(const MembershipInputs& in, size_t batches,
                      SpanLog* spans, Tally* tally) {
  const BatchQueryEngine engine(shbf::BatchOptions{kEngineBatch});
  PassResult result;
  result.latencies_us.reserve(batches);
  std::vector<uint8_t> answers;
  SliceClock clock(batches, -1, &result);
  for (size_t i = 0; i < batches; ++i) {
    const size_t r = i % in.requests.size();
    const size_t keys = in.requests[r].size();
    const int64_t root = spans ? spans->Begin("request", -1, i, keys) : -1;
    const uint64_t t0 = NowNs();
    engine.ContainsBatch(*in.filter, in.requests[r], &answers);
    const uint64_t t1 = NowNs();
    if (spans) spans->Add(Span{"engine", t0, t1, root, i, keys});
    tally->attempted += 1;
    result.latencies_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    CheckMembers(answers, in.member_flags[r], "inproc batch");
    if (spans) spans->End(root);
    clock.Completed(keys);
  }
  return result;
}

// ---------------------------------------------------------------- wire ----

/// The requests one wire workload sends and how to check the answers.
class WireTraffic {
 public:
  virtual ~WireTraffic() = default;
  /// Requests connection `conn` sends, in order.
  virtual size_t Ops(size_t conn) const = 0;
  /// Builds request `op` of `conn`; returns its key count.
  virtual size_t Build(size_t conn, size_t op, std::string* frame) = 0;
  /// Decodes an OK payload into the connection's scratch answers.
  virtual void Decode(size_t conn, size_t op, std::string_view payload) = 0;
  /// Checks the decoded answers.
  virtual void Verify(size_t conn, size_t op) = 0;
};

std::vector<uint8_t> DecodeQueryPayload(std::string_view payload,
                                        size_t expected_keys) {
  shbf::ByteReader reader(payload);
  uint8_t mode = 0;
  uint64_t count = 0;
  constexpr auto kMembership =
      static_cast<uint8_t>(shbf::wire::QueryMode::kMembership);
  Require(reader.GetU8(&mode) && reader.GetU64(&count) &&
              mode == kMembership && count == expected_keys &&
              reader.remaining() == count,
          "malformed QUERY response");
  std::vector<uint8_t> answers(count);
  Require(reader.GetBytes(answers.data(), count), "malformed QUERY response");
  return answers;
}

/// Connects and completes the HELLO handshake; returns the fd.
int OpenConnection(uint16_t port) {
  shbf::Status status;
  const int fd = shbf::net::ConnectTcp("127.0.0.1", port, &status);
  RequireOk(status, "connect");
  Require(fd >= 0, "connect");
  Require(shbf::net::SendFrame(fd, shbf::wire::BuildHello()), "send HELLO");
  std::string body;
  Require(shbf::net::ReadFrame(fd, shbf::wire::kMaxFrameBytes, &body) ==
              shbf::net::FrameRead::kOk,
          "read HELLO response");
  shbf::wire::WireStatus wire_status;
  std::string_view payload;
  std::string message;
  Require(shbf::wire::ParseResponse(body, &wire_status, &payload, &message) &&
              wire_status == shbf::wire::WireStatus::kOk,
          "HELLO refused: " + message);
  return fd;
}

/// Drives every connection as a closed loop (pipeline 1) from this one
/// thread until each has sent its Ops(). Traced passes record a root span
/// per request with protocol.build / net.send / net.recv / protocol.parse
/// children.
PassResult RunWire(const std::vector<int>& fds, WireTraffic* traffic,
                   pid_t server_pid, SpanLog* spans, Tally* tally) {
  struct Conn {
    size_t next = 0;
    size_t op = 0;
    size_t keys = 0;
    uint64_t sent_ns = 0;
    int64_t root = -1;
    std::string frame;
    std::string body;
  };
  std::vector<Conn> conns(fds.size());
  size_t total = 0;
  for (size_t c = 0; c < fds.size(); ++c) total += traffic->Ops(c);
  PassResult result;
  result.latencies_us.reserve(total);
  if (total == 0) return result;
  uint64_t request_id = 0;

  auto send = [&](size_t c) {
    Conn& conn = conns[c];
    conn.op = conn.next++;
    const uint64_t id = request_id++;
    conn.root = spans ? spans->Begin("request", -1, id, 0) : -1;
    const uint64_t b0 = NowNs();
    conn.keys = traffic->Build(c, conn.op, &conn.frame);
    const uint64_t b1 = NowNs();
    const bool sent = shbf::net::SendAll(fds[c], conn.frame.data(),
                                         conn.frame.size());
    const uint64_t b2 = NowNs();
    if (spans) {
      spans->SetKeys(conn.root, conn.keys);
      spans->Add(Span{"protocol.build", b0, b1, conn.root, id, conn.keys});
      spans->Add(Span{"net.send", b1, b2, conn.root, id, conn.keys});
    }
    conn.sent_ns = b1;
    tally->attempted += 1;
    if (!sent) {
      tally->failed += 1;
      throw CheckFailure("send failed");
    }
  };

  std::vector<pollfd> pfds(fds.size());
  size_t in_flight = 0;
  SliceClock clock(total, server_pid, &result);
  for (size_t c = 0; c < fds.size(); ++c) {
    pfds[c] = pollfd{fds[c], POLLIN, 0};
    if (traffic->Ops(c) > 0) {
      send(c);
      ++in_flight;
    }
  }
  while (in_flight > 0) {
    const int ready = poll(pfds.data(), pfds.size(), kResponseTimeoutMs);
    if (ready < 0 && errno == EINTR) continue;
    Require(ready > 0, "no response within the timeout");
    for (size_t c = 0; c < fds.size(); ++c) {
      if (pfds[c].revents == 0) continue;
      pfds[c].revents = 0;
      Conn& conn = conns[c];
      const uint64_t id =
          conn.root >= 0 ? spans->spans()[conn.root].request_id : 0;
      const uint64_t r0 = NowNs();
      const auto read =
          shbf::net::ReadFrame(fds[c], shbf::wire::kMaxFrameBytes, &conn.body);
      const uint64_t r1 = NowNs();
      if (read != shbf::net::FrameRead::kOk) {
        tally->failed += 1;
        throw CheckFailure("connection lost before a response");
      }
      shbf::wire::WireStatus status;
      std::string_view payload;
      std::string message;
      const bool parsed =
          shbf::wire::ParseResponse(conn.body, &status, &payload, &message);
      if (!parsed || status != shbf::wire::WireStatus::kOk) {
        tally->failed += 1;
        throw CheckFailure("request refused: " + message);
      }
      traffic->Decode(c, conn.op, payload);
      const uint64_t r2 = NowNs();
      if (spans) {
        spans->Add(Span{"net.recv", r0, r1, conn.root, id, conn.keys});
        spans->Add(Span{"protocol.parse", r1, r2, conn.root, id, conn.keys});
      }
      result.latencies_us.push_back(static_cast<double>(r1 - conn.sent_ns) /
                                    1e3);
      traffic->Verify(c, conn.op);
      if (spans) spans->End(conn.root);
      clock.Completed(conn.keys);
      --in_flight;
      if (conn.next < traffic->Ops(c)) {
        send(c);
        ++in_flight;
      }
    }
  }
  return result;
}

/// Read-only 64-key frames; answers must equal the local engine's exactly.
class MembershipTraffic : public WireTraffic {
 public:
  MembershipTraffic(const std::vector<std::vector<std::string>>& frames,
                    const std::vector<std::vector<uint8_t>>& expected,
                    size_t ops_per_connection, size_t connections,
                    uint64_t seed)
      : frames_(frames),
        expected_(expected),
        ops_(ops_per_connection),
        answers_(connections) {
    shbf::Rng rng(SubSeed(seed, kStreamWire));
    for (size_t c = 0; c < connections; ++c) {
      offsets_.push_back(rng.NextBelow(frames_.size()));
    }
  }
  size_t Ops(size_t) const override { return ops_; }
  size_t Build(size_t conn, size_t op, std::string* frame) override {
    const auto& keys = frames_[Index(conn, op)];
    *frame = shbf::wire::BuildQuery("m", shbf::wire::QueryMode::kMembership,
                                    keys);
    return keys.size();
  }
  void Decode(size_t conn, size_t op, std::string_view payload) override {
    answers_[conn] =
        DecodeQueryPayload(payload, frames_[Index(conn, op)].size());
  }
  void Verify(size_t conn, size_t op) override {
    Require(answers_[conn] == expected_[Index(conn, op)],
            "wire answers differ from the local engine");
  }

 private:
  size_t Index(size_t conn, size_t op) const {
    return (offsets_[conn] + op) % frames_.size();
  }
  const std::vector<std::vector<std::string>>& frames_;
  const std::vector<std::vector<uint8_t>>& expected_;
  size_t ops_;
  std::vector<uint64_t> offsets_;
  std::vector<std::vector<uint8_t>> answers_;
};

/// The wire_mixed schedules. QUERY answers are bounded by the local
/// engine's answers before and after all ADDs (bits only ever turn on);
/// ADD counts must match; WHICH_SETS must cover each key's true sets.
class MixedTraffic : public WireTraffic {
 public:
  /// `ops_limit` caps the ops per connection (0 = the whole schedule);
  /// `queries_only` sends only the schedule's QUERY ops (warm-up).
  MixedTraffic(const MixedInputs& in, size_t ops_limit, bool queries_only)
      : in_(in), scratch_(kMixedConnections) {
    for (size_t c = 0; c < kMixedConnections; ++c) {
      std::vector<size_t> ops;
      for (size_t i = 0; i < in.schedules[c].size(); ++i) {
        if (queries_only && in.schedules[c][i] != OpKind::kQuery) continue;
        if (ops_limit > 0 && ops.size() == ops_limit) break;
        ops.push_back(i);
      }
      ops_.push_back(std::move(ops));
    }
  }
  size_t Ops(size_t conn) const override { return ops_[conn].size(); }
  size_t Build(size_t conn, size_t op, std::string* frame) override {
    const size_t i = ops_[conn][op];
    const uint32_t item = in_.op_items[conn][i];
    switch (in_.schedules[conn][i]) {
      case OpKind::kQuery:
        *frame = shbf::wire::BuildQuery(
            "mixed", shbf::wire::QueryMode::kMembership, in_.queries[item]);
        return in_.queries[item].size();
      case OpKind::kAdd:
        *frame = shbf::wire::BuildKeysRequest(shbf::wire::Opcode::kAdd,
                                              "mixed", in_.adds[item]);
        return in_.adds[item].size();
      case OpKind::kWhichSets:
        *frame = shbf::wire::BuildWhichSets(in_.which[item]);
        return in_.which[item].size();
    }
    return 0;
  }
  void Decode(size_t conn, size_t op, std::string_view payload) override {
    const size_t i = ops_[conn][op];
    const uint32_t item = in_.op_items[conn][i];
    Scratch& s = scratch_[conn];
    switch (in_.schedules[conn][i]) {
      case OpKind::kQuery:
        s.answers = DecodeQueryPayload(payload, in_.queries[item].size());
        return;
      case OpKind::kAdd: {
        shbf::ByteReader reader(payload);
        Require(reader.GetU64(&s.added) && reader.AtEnd(),
                "malformed ADD response");
        return;
      }
      case OpKind::kWhichSets: {
        shbf::ByteReader reader(payload);
        uint64_t count = 0;
        Require(reader.GetU64(&count) && count == in_.which[item].size(),
                "malformed WHICH_SETS response");
        s.sets.assign(count, 0);
        for (uint64_t k = 0; k < count; ++k) {
          uint32_t ids = 0;
          Require(reader.GetU32(&ids) && ids <= reader.remaining() / 4,
                  "malformed WHICH_SETS response");
          for (uint32_t j = 0; j < ids; ++j) {
            uint32_t id = 0;
            reader.GetU32(&id);
            Require(id < kCatalogSets, "WHICH_SETS returned an unknown set");
            s.sets[k] |= uint64_t{1} << id;
          }
        }
        Require(reader.AtEnd(), "malformed WHICH_SETS response");
        return;
      }
    }
  }
  void Verify(size_t conn, size_t op) override {
    const size_t i = ops_[conn][op];
    const uint32_t item = in_.op_items[conn][i];
    const Scratch& s = scratch_[conn];
    switch (in_.schedules[conn][i]) {
      case OpKind::kQuery: {
        const auto& lo = in_.query_initial[item];
        const auto& hi = in_.query_final[item];
        uint8_t bad = 0;
        for (size_t k = 0; k < s.answers.size(); ++k) {
          bad |= static_cast<uint8_t>((lo[k] & ~s.answers[k]) |
                                      (s.answers[k] & ~hi[k]));
        }
        Require((bad & 1) == 0,
                "QUERY answer outside the local engine's before/after bounds");
        return;
      }
      case OpKind::kAdd:
        Require(s.added == in_.adds[item].size(),
                "ADD count differs from the keys sent");
        return;
      case OpKind::kWhichSets: {
        const auto& truth = in_.which_truth[item];
        for (size_t k = 0; k < truth.size(); ++k) {
          Require((s.sets[k] & truth[k]) == truth[k],
                  "WHICH_SETS missed a true set");
        }
        return;
      }
    }
  }

  /// Keys of the WHICH_SETS ops this traffic sends.
  uint64_t WhichKeys() const {
    uint64_t keys = 0;
    for (size_t c = 0; c < ops_.size(); ++c) {
      for (size_t i : ops_[c]) {
        if (in_.schedules[c][i] == OpKind::kWhichSets) keys += kMixedWhichKeys;
      }
    }
    return keys;
  }

  /// max ÷ mean of the per-shard sub-batch sizes of the QUERY frames sent
  /// (the samples the server's sharded.shard_batch_keys records).
  double ShardSkew() const {
    double max = 0, sum = 0, n = 0;
    for (size_t c = 0; c < ops_.size(); ++c) {
      for (size_t i : ops_[c]) {
        if (in_.schedules[c][i] != OpKind::kQuery) continue;
        for (uint32_t keys : in_.query_shard_keys[in_.op_items[c][i]]) {
          if (keys == 0) continue;
          max = std::max(max, static_cast<double>(keys));
          sum += keys;
          n += 1;
        }
      }
    }
    return sum == 0 ? 0 : max / (sum / n);
  }

 private:
  struct Scratch {
    std::vector<uint8_t> answers;
    std::vector<uint64_t> sets;
    uint64_t added = 0;
  };
  const MixedInputs& in_;
  std::vector<std::vector<size_t>> ops_;
  std::vector<Scratch> scratch_;
};

/// A served workload: the pinned server child, its load connections and a
/// control connection for METRICS / STATS.
struct WireSession {
  ServerProcess server;
  std::vector<int> fds;
  shbf::ShbfClient control;
  std::unique_ptr<IdleSpinners> server_spinners;

  ~WireSession() {
    for (int fd : fds) shbf::net::CloseFd(fd);
    control.Close();
    server.Stop();
  }

  /// `keep_awake` puts an idle spinner on each server core for the
  /// session. That steadies a wake-up-bound server with one frame worker;
  /// a server whose frame and fan-out threads must share both cores runs
  /// without, since with spinners the scheduler at times packed all of
  /// its threads onto one core for a whole run (README.md, pinning).
  void Open(const Args& args, const std::vector<std::string>& server_args,
            const std::vector<int>& server_cpus, size_t connections,
            bool keep_awake) {
    if (keep_awake) {
      server_spinners = std::make_unique<IdleSpinners>(server_cpus);
    }
    const std::string error = server.Start(args.server, server_args,
                                           server_cpus, kServerStartTimeoutMs);
    Require(error.empty(), "start shbf_server: " + error);
    for (size_t c = 0; c < connections; ++c) {
      fds.push_back(OpenConnection(server.port()));
    }
    RequireOk(control.Connect("127.0.0.1", server.port()),
              "control connection");
  }

  shbf::obs::MetricsSnapshot Metrics() {
    shbf::ShbfClient::ServerMetrics metrics;
    RequireOk(control.Metrics(&metrics), "METRICS");
    return metrics.snapshot;
  }

  /// Ends the session; the server must exit cleanly.
  void Close() {
    for (int fd : fds) shbf::net::CloseFd(fd);
    fds.clear();
    control.Close();
    const bool clean = server.Stop();
    server_spinners.reset();
    Require(clean, "shbf_server did not shut down cleanly: " + server.output());
  }
};

/// Queries `keys` over the control connection in 1024-key frames.
std::vector<uint8_t> WireQueryAll(shbf::ShbfClient* client,
                                  const std::string& filter,
                                  const std::vector<std::string>& keys) {
  std::vector<uint8_t> out;
  out.reserve(keys.size());
  std::vector<uint8_t> part;
  for (size_t i = 0; i < keys.size(); i += 1024) {
    const std::vector<std::string> frame(
        keys.begin() + i, keys.begin() + std::min(keys.size(), i + 1024));
    RequireOk(client->Query(filter, frame, &part), "verification QUERY");
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

double Fpr(const std::vector<uint8_t>& answers) {
  size_t positives = 0;
  for (uint8_t a : answers) positives += a;
  return static_cast<double>(positives) / static_cast<double>(answers.size());
}

void RequireNoProtocolErrors(const shbf::obs::MetricsSnapshot& delta) {
  Require(delta.CounterValue("server.protocol_errors_total", 0) == 0,
          "server.protocol_errors_total moved");
}

size_t OpCount(double per_second, double seconds, double share, size_t round) {
  size_t ops = static_cast<size_t>(per_second * seconds * share);
  ops = std::max(round, ops / round * round);
  return ops;
}

// ----------------------------------------------------------- runtime ----

struct Run {
  Args args;
  RoleLayout layout;
  std::vector<int> cpus;
  Tally tally;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;  ///< report fields
  std::string tmp_dir;

  const std::vector<int>& RoleCpus(const std::string& name) const {
    for (const Role& role : layout.roles) {
      if (role.name == name) return role.cpus;
    }
    throw CheckFailure("no role " + name);
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void Note(std::string key, std::string value) {
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
    notes.emplace_back(std::move(key), std::move(value));
  }
};

/// End-to-end timings of a pass. Latency percentiles are taken per slice
/// and reported as their median over the slices, like the rates: a burst
/// of interference from outside the benchmark then moves one slice, not
/// the result. Every slice must support a p99 (ten samples beyond it).
void AddTimings(Run* run, const PassResult& pass) {
  std::vector<double> p50s, p99s;
  size_t begin = 0;
  for (size_t end : pass.slice_ends) {
    std::vector<double> slice(pass.latencies_us.begin() + begin,
                              pass.latencies_us.begin() + end);
    begin = end;
    Require(TailPercentile(slice.size()) >= 99,
            "too few requests in a slice for a p99 with ten samples beyond");
    std::sort(slice.begin(), slice.end());
    p50s.push_back(PercentileOfSorted(slice, 50));
    p99s.push_back(PercentileOfSorted(slice, 99));
  }
  run->Add("request_p50_us", Median(p50s), "us");
  run->Add("request_p99_us", Median(p99s), "us");
  run->Add("keys_per_s", Median(pass.slice_keys_per_s), "1/s");
  run->Add("cpu_ns_per_key", Median(pass.slice_cpu_ns_per_key), "ns");
  const TimingSummary t = Summarize(pass.latencies_us);
  std::vector<double> sorted = pass.latencies_us;
  std::sort(sorted.begin(), sorted.end());
  char line[200];
  std::snprintf(line, sizeof(line),
                "%zu samples in %zu slices; whole run: p50 %.3f us, p99 %.3f "
                "us, p%g %.3f us",
                t.count, p50s.size(), t.p50, PercentileOfSorted(sorted, 99),
                t.tail_percentile, t.tail);
  run->Note("request_latency", line);
  const auto [lo, hi] = std::minmax_element(pass.slice_keys_per_s.begin(),
                                            pass.slice_keys_per_s.end());
  std::snprintf(line, sizeof(line),
                "%" PRIu64 " keys in %.3f s (%.0f keys/s overall; slices "
                "%.0f..%.0f keys/s)",
                pass.keys, Seconds(pass.wall_ns), pass.KeysPerSecond(), *lo,
                *hi);
  run->Note("window", line);
}

void AddSetup(Run* run, const std::vector<double>& setup_s) {
  run->Add("setup_s", Median(setup_s), "s");
  std::string all;
  for (double s : setup_s) all += (all.empty() ? "" : ", ") + std::to_string(s);
  run->Note("setup_s_samples", all);
}

void RequireSameInputs(const std::vector<uint64_t>& fingerprints) {
  for (uint64_t f : fingerprints) {
    Require(f == fingerprints.front(),
            "the same seed produced different inputs across set-ups");
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, fingerprints.front());
  std::printf("# input fingerprint: %s\n", hex);
}

// ---------------------------------------------------------- workloads ----

void RunInprocMembership(Run* run) {
  const size_t batches =
      OpCount(kInprocBatchesPerSecond, run->args.seconds, 1.0, 1);
  std::vector<double> setup_s;
  std::vector<uint64_t> fingerprints;
  MembershipInputs in;
  for (int r = 0; r < kSetupRepeats; ++r) {
    in = MembershipInputs();
    const uint64_t t0 = NowNs();
    in = MakeMembershipInputs(run->args.seed, kInprocRequestKeys, kInprocPool,
                              false);
    Tally warmup;
    InprocPass(in, in.requests.size(), nullptr, &warmup);
    setup_s.push_back(Seconds(NowNs() - t0));
    fingerprints.push_back(MembershipFingerprint(in));
  }
  RequireSameInputs(fingerprints);
  const PassResult pass = InprocPass(in, batches, nullptr, &run->tally);
  AddTimings(run, pass);
  std::vector<uint8_t> probe_answers;
  BatchQueryEngine(shbf::BatchOptions{kEngineBatch})
      .ContainsBatch(*in.filter, in.probes, &probe_answers);
  run->Add("fpr", Fpr(probe_answers), "ratio");
  run->Add("bytes_per_key",
           static_cast<double>(in.filter->memory_bytes()) / kMembers, "B");
  AddSetup(run, setup_s);
}

std::vector<std::string> MembershipServerArgs(const std::string& image) {
  return {"--threads=1", "--load=m=mmap:" + image};
}

/// Writes the image, starts the server on it, connects and warms up.
void OpenMembershipSession(Run* run, const MembershipInputs& in,
                           const std::vector<std::vector<uint8_t>>& expected,
                           WireSession* session) {
  const std::string image = run->tmp_dir + "/membership.shbi";
  RequireOk(FilterRegistry::Global().SaveMapped(*in.filter, image),
            "write SHBI image");
  session->Open(run->args, MembershipServerArgs(image),
                run->RoleCpus("server"), kMembershipConnections, true);
  MembershipTraffic warmup(in.requests, expected, 250, kMembershipConnections,
                           run->args.seed);
  Tally tally;
  RunWire(session->fds, &warmup, session->server.pid(), nullptr, &tally);
}

/// Post-window checks shared by the membership runs: the fpr probe set
/// over the wire equals the local engine bit for bit.
double MembershipWireFpr(WireSession* session, const MembershipInputs& in) {
  const std::vector<uint8_t> wire =
      WireQueryAll(&session->control, "m", in.probes);
  std::vector<uint8_t> local;
  BatchQueryEngine(shbf::BatchOptions{kEngineBatch})
      .ContainsBatch(*in.filter, in.probes, &local);
  Require(wire == local, "probe answers differ from the local engine");
  return Fpr(wire);
}

void RunWireMembership(Run* run) {
  const size_t frames = OpCount(kMembershipFramesPerSecond, run->args.seconds,
                                1.0, kMembershipConnections);
  std::vector<double> setup_s;
  std::vector<uint64_t> fingerprints;
  MembershipInputs in;
  std::vector<std::vector<uint8_t>> expected;
  std::unique_ptr<WireSession> session;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (session) session->Close();
    session.reset();
    in = MembershipInputs();
    const uint64_t t0 = NowNs();
    in = MakeMembershipInputs(run->args.seed, kWireFrameKeys, kWirePool, false);
    expected = LocalAnswers(*in.filter, in.requests);
    session = std::make_unique<WireSession>();
    OpenMembershipSession(run, in, expected, session.get());
    setup_s.push_back(Seconds(NowNs() - t0));
    fingerprints.push_back(MembershipFingerprint(in));
  }
  RequireSameInputs(fingerprints);
  MembershipTraffic traffic(in.requests, expected,
                            frames / kMembershipConnections,
                            kMembershipConnections, run->args.seed);
  const auto before = session->Metrics();
  const PassResult pass = RunWire(session->fds, &traffic,
                                  session->server.pid(), nullptr, &run->tally);
  RequireNoProtocolErrors(MetricsDelta(before, session->Metrics()));
  AddTimings(run, pass);
  run->Add("fpr", MembershipWireFpr(session.get(), in), "ratio");
  shbf::ShbfClient::FilterInfo info;
  RequireOk(session->control.Stats("m", &info), "STATS");
  Require(info.elements == kMembers, "served element count differs");
  run->Add("bytes_per_key", static_cast<double>(info.memory_bytes) / kMembers,
           "B");
  AddSetup(run, setup_s);
  session->Close();
}

std::vector<std::string> MixedServerArgs(const std::string& blob,
                                         const std::string& catalog) {
  return {"--threads=2", "--load=mixed=" + blob, "--catalog=" + catalog};
}

void OpenMixedSession(Run* run, const MixedInputs& in, WireSession* session) {
  const std::string blob = run->tmp_dir + "/mixed.shbf";
  const std::string catalog = run->tmp_dir + "/catalog.shbc";
  RequireOk(shbf::WriteStringToFile(blob, in.filter_blob), "write filter blob");
  RequireOk(shbf::WriteStringToFile(catalog, in.catalog_blob),
            "write catalog blob");
  session->Open(run->args, MixedServerArgs(blob, catalog),
                run->RoleCpus("server"), kMixedConnections, false);
  MixedTraffic warmup(in, 20, true);
  Tally tally;
  RunWire(session->fds, &warmup, session->server.pid(), nullptr, &tally);
}

/// After every scheduled ADD: each added key answers 1, the probe set
/// equals the local final filter bit for bit, and the served element count
/// is build keys plus ADDs. Returns the fpr.
double MixedFinalChecks(WireSession* session, const MixedInputs& in,
                        uint64_t expected_elements, size_t* memory_bytes) {
  std::vector<std::string> added;
  for (const auto& frame : in.adds) {
    added.insert(added.end(), frame.begin(), frame.end());
  }
  const std::vector<uint8_t> added_answers =
      WireQueryAll(&session->control, "mixed", added);
  for (uint8_t a : added_answers) Require(a == 1, "an ADDed key answers 0");
  const std::vector<uint8_t> probes =
      WireQueryAll(&session->control, "mixed", in.probes);
  Require(probes == in.probe_final,
          "probe answers differ from the local engine after all ADDs");
  shbf::ShbfClient::FilterInfo info;
  RequireOk(session->control.Stats("mixed", &info), "STATS");
  Require(info.elements == expected_elements,
          "served element count differs from build keys + ADDs");
  *memory_bytes = info.memory_bytes;
  return Fpr(probes);
}

size_t MixedOpsPerConnection(double seconds, double share) {
  return OpCount(kMixedOpsPerSecond, seconds, share, 10 * kMixedConnections) /
         kMixedConnections;
}

void RunWireMixed(Run* run) {
  const size_t per_conn = MixedOpsPerConnection(run->args.seconds, 1.0);
  std::vector<double> setup_s;
  std::vector<uint64_t> fingerprints;
  MixedInputs in;
  std::unique_ptr<WireSession> session;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (session) session->Close();
    session.reset();
    in = MixedInputs();
    const uint64_t t0 = NowNs();
    in = MakeMixedInputs(run->args.seed, per_conn);
    session = std::make_unique<WireSession>();
    OpenMixedSession(run, in, session.get());
    setup_s.push_back(Seconds(NowNs() - t0));
    fingerprints.push_back(MixedFingerprint(in));
  }
  RequireSameInputs(fingerprints);
  MixedTraffic traffic(in, 0, false);
  const auto before = session->Metrics();
  const PassResult pass = RunWire(session->fds, &traffic,
                                  session->server.pid(), nullptr, &run->tally);
  RequireNoProtocolErrors(MetricsDelta(before, session->Metrics()));
  AddTimings(run, pass);
  size_t memory_bytes = 0;
  run->Add("fpr",
           MixedFinalChecks(session.get(), in, in.keys_inserted, &memory_bytes),
           "ratio");
  run->Add("bytes_per_key",
           static_cast<double>(memory_bytes) /
               static_cast<double>(in.keys_inserted),
           "B");
  AddSetup(run, setup_s);
  session->Close();
}

// ------------------------------------------------------- traced ladder ----

double HistQuantile(const shbf::obs::MetricsSnapshot& snapshot,
                    const std::string& name, double q) {
  const auto* h = snapshot.FindHistogram(name);
  Require(h != nullptr && h->count > 0, "METRICS has no samples in " + name);
  return h->Quantile(q);
}

/// Writes one workload's spans with the self-time summary and the tracing
/// overhead, and prints the summary.
void WriteSpans(Run* run, const std::string& workload, const SpanLog& spans,
                double untraced_keys_per_s, double traced_keys_per_s) {
  const auto self = SelfTimes(spans.spans());
  std::string summary = "{";
  std::printf("# spans %s: %zu spans; self time per key of each layer:\n",
              workload.c_str(), spans.spans().size());
  for (const auto& [name, t] : self) {
    const double per_key =
        t.keys == 0 ? 0
                    : static_cast<double>(t.self_ns) /
                          static_cast<double>(t.keys);
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"count\": %" PRIu64 ", \"keys\": %" PRIu64
                  ", \"total_ns\": %" PRIu64 ", \"self_ns\": %" PRIu64
                  ", \"self_ns_per_key\": %.3f}",
                  summary.size() > 1 ? ", " : "", name.c_str(), t.count, t.keys,
                  t.total_ns, t.self_ns, per_key);
    summary += entry;
    std::printf("#   %-16s %10.3f ns/key  (%" PRIu64 " spans, %" PRIu64
                " keys)\n",
                name.c_str(), per_key, t.count, t.keys);
  }
  summary += "}";
  char overhead[256];
  std::snprintf(overhead, sizeof(overhead),
                "{\"untraced_keys_per_s\": %.3f, \"traced_keys_per_s\": %.3f, "
                "\"traced_minus_untraced_keys_per_s\": %.3f}",
                untraced_keys_per_s, traced_keys_per_s,
                traced_keys_per_s - untraced_keys_per_s);
  std::printf("#   tracing overhead: untraced %.0f keys/s, traced %.0f keys/s, "
              "traced - untraced = %.0f keys/s\n",
              untraced_keys_per_s, traced_keys_per_s,
              traced_keys_per_s - untraced_keys_per_s);
  const uint64_t epoch =
      spans.spans().empty() ? 0 : spans.spans().front().start_ns;
  // One file per workload, replaced by the next traced run.
  const std::string path = run->args.out + "/spans-" + workload + ".json";
  const std::string json = "{\"workload\": \"" + workload +
                           "\", \"tracing_overhead\": " + overhead +
                           ",\n\"self_time\": " + summary + ",\n\"spans\": " +
                           SpansToJson(spans.spans(), epoch) + "}\n";
  RequireOk(shbf::WriteStringToFile(path, json), "write " + path);
  run->Note("spans_" + workload, path);
}

/// ns per key of one timed loop over the request pool.
template <typename Fn>
double LadderPass(const MembershipInputs& in, SpanLog* spans,
                  const char* rung, const char* layer, Fn&& fn) {
  const int64_t root = spans->Begin(rung, -1, 0, 0);
  uint64_t layer_ns = 0, keys = 0;
  for (size_t r = 0; r < in.requests.size(); ++r) {
    const uint64_t t0 = NowNs();
    fn(in.requests[r], in.member_flags[r]);
    const uint64_t t1 = NowNs();
    spans->Add(Span{layer, t0, t1, root, r, in.requests[r].size()});
    layer_ns += t1 - t0;
    keys += in.requests[r].size();
  }
  spans->End(root);
  return static_cast<double>(layer_ns) / static_cast<double>(keys);
}

/// L0-L4 over the inproc pool, five interleaved rounds; medians.
void RunLadder(Run* run, const MembershipInputs& in, SpanLog* spans) {
  const auto fast = in.filter->batch_fast_path();
  Require(fast.kind == shbf::BatchFastPath::Kind::kSplitBlockShbfM,
          "registry filter is not split_block_shbf_m");
  const auto* concrete = static_cast<const shbf::SplitBlockShbfM*>(fast.impl);
  const shbf::HashFamily family(shbf::HashAlgorithm::kMurmur3, 1,
                                concrete->seed());
  const BatchQueryEngine engine(shbf::BatchOptions{kEngineBatch});
  std::vector<uint8_t> answers;
  uint64_t sink = 0;
  std::vector<double> l0, l1, l2, l3, l4;
  uint64_t engine_batches = 0, fastpath_batches = 0;
  for (int round = 0; round < 5; ++round) {
    l0.push_back(LadderPass(in, spans, "ladder.L0", "hash",
                            [&](const auto& keys, const auto&) {
                              for (const std::string& key : keys) {
                                const auto h = family.HashPair(0, key);
                                sink += h.first ^ h.second;
                              }
                            }));
    l1.push_back(LadderPass(in, spans, "ladder.L1", "shbf.contains",
                            [&](const auto& keys, const auto& flags) {
                              answers.resize(keys.size());
                              for (size_t i = 0; i < keys.size(); ++i) {
                                answers[i] = concrete->Contains(keys[i]);
                              }
                              CheckMembers(answers, flags, "L1");
                            }));
    l2.push_back(LadderPass(in, spans, "ladder.L2", "shbf.batch",
                            [&](const auto& keys, const auto& flags) {
                              concrete->ContainsBatch(keys, &answers);
                              CheckMembers(answers, flags, "L2");
                            }));
    const auto before = shbf::obs::MetricsRegistry::Global().Snapshot();
    l3.push_back(LadderPass(in, spans, "ladder.L3", "engine",
                            [&](const auto& keys, const auto& flags) {
                              engine.ContainsBatch(*in.filter, keys, &answers);
                              CheckMembers(answers, flags, "L3");
                            }));
    const auto delta =
        MetricsDelta(before, shbf::obs::MetricsRegistry::Global().Snapshot());
    engine_batches += delta.CounterValue("engine.batches_total", 0);
    fastpath_batches += delta.CounterValue("engine.fastpath_batches_total", 0);
    l4.push_back(LadderPass(in, spans, "ladder.L4", "sharded",
                            [&](const auto& keys, const auto& flags) {
                              in.sharded->ContainsBatch(keys, &answers);
                              CheckMembers(answers, flags, "L4");
                            }));
  }
  shbf::DoNotOptimize(sink);
  Require(engine_batches > 0, "engine.batches_total did not move");
  run->Add("hash.ns_per_key", Median(l0), "ns");
  run->Add("shbf.contains_ns_per_key", Median(l1), "ns");
  run->Add("shbf.batch_ns_per_key", Median(l2), "ns");
  run->Add("engine.ns_per_key", Median(l3), "ns");
  run->Add("engine.fastpath_ratio",
           static_cast<double>(fastpath_batches) /
               static_cast<double>(engine_batches),
           "ratio");
  run->Add("sharded.ns_per_key", Median(l4), "ns");
}

/// The traced run: every layer, whatever --workload names. In-process
/// rungs L0-L4 over the inproc inputs, then the wire_membership and
/// wire_mixed servers, each with an untraced pass (server METRICS delta,
/// /proc, client CPU) and a traced pass (spans). --workload picks whose
/// traced-minus-untraced rate is reported as tracing.overhead_ratio.
void RunTracedLadder(Run* run) {
  const std::string& workload = run->args.workload;
  double overhead = 0;
  auto record_overhead = [&](const std::string& phase, double untraced,
                             double traced) {
    if (phase == workload) overhead = (untraced - traced) / untraced;
  };
  {
    MembershipInputs in = MakeMembershipInputs(
        run->args.seed, kInprocRequestKeys, kInprocPool, true);
    SpanLog spans;
    RunLadder(run, in, &spans);
    const size_t batches = OpCount(kInprocBatchesPerSecond, run->args.seconds,
                                   kTracedPassShare, 1);
    const PassResult untraced = InprocPass(in, batches, nullptr, &run->tally);
    const PassResult traced = InprocPass(in, batches, &spans, &run->tally);
    record_overhead("inproc_membership", untraced.KeysPerSecond(),
                    traced.KeysPerSecond());
    WriteSpans(run, "inproc_membership", spans, untraced.KeysPerSecond(),
               traced.KeysPerSecond());
  }
  {
    MembershipInputs in = MakeMembershipInputs(run->args.seed, kWireFrameKeys,
                                               kWirePool, false);
    const auto expected = LocalAnswers(*in.filter, in.requests);
    WireSession session;
    OpenMembershipSession(run, in, expected, &session);
    const size_t frames =
        OpCount(kMembershipFramesPerSecond, run->args.seconds,
                kTracedPassShare, kMembershipConnections);
    MembershipTraffic traffic(in.requests, expected,
                              frames / kMembershipConnections,
                              kMembershipConnections, run->args.seed);
    const auto before = session.Metrics();
    const PassResult untraced = RunWire(session.fds, &traffic,
                                        session.server.pid(), nullptr,
                                        &run->tally);
    const auto after = session.Metrics();
    const auto delta = MetricsDelta(before, after);
    RequireNoProtocolErrors(delta);
    const double rtt_p50 = Summarize(untraced.latencies_us).p50;
    const double queue_p50 = HistQuantile(delta, "server.queue_wait_us", 0.5);
    const double handle_p50 =
        HistQuantile(delta, "server.handle_us.query", 0.5);
    run->Add("server.queue_wait_us.p50", queue_p50, "us");
    run->Add("server.queue_wait_us.p99",
             HistQuantile(delta, "server.queue_wait_us", 0.99), "us");
    run->Add("server.handle_us.query.p50", handle_p50, "us");
    run->Add("server.handle_us.query.p99",
             HistQuantile(delta, "server.handle_us.query", 0.99), "us");
    run->Add("server.transit_us.p50", rtt_p50 - queue_p50 - handle_p50, "us");
    run->Add("server.ctx_switches_per_frame",
             static_cast<double>(untraced.server_after.ctx_switches -
                                 untraced.server_before.ctx_switches) /
                 static_cast<double>(untraced.requests),
             "count");
    run->Add("client.cpu_ns_per_key",
             static_cast<double>(untraced.client_cpu_ns) /
                 static_cast<double>(untraced.keys),
             "ns");
    const auto* open = after.FindHistogram("storage.mapped_open_us");
    Require(open != nullptr && open->count > 0,
            "METRICS has no storage.mapped_open_us");
    run->Add("storage.mapped_open_us",
             static_cast<double>(open->sum) / static_cast<double>(open->count),
             "us");
    SpanLog spans;
    spans.Reserve(frames * 5);
    const PassResult traced = RunWire(session.fds, &traffic,
                                      session.server.pid(), &spans,
                                      &run->tally);
    const auto self = SelfTimes(spans.spans());
    for (const char* layer : {"protocol.build", "protocol.parse"}) {
      const SelfTime& t = self.at(layer);
      run->Add(std::string(layer) + "_ns_per_key",
               static_cast<double>(t.self_ns) / static_cast<double>(t.keys),
               "ns");
    }
    record_overhead("wire_membership", untraced.KeysPerSecond(),
                    traced.KeysPerSecond());
    WriteSpans(run, "wire_membership", spans, untraced.KeysPerSecond(),
               traced.KeysPerSecond());
    MembershipWireFpr(&session, in);
    session.Close();
  }
  {
    const size_t per_conn =
        MixedOpsPerConnection(run->args.seconds, kTracedPassShare);
    MixedInputs in = MakeMixedInputs(run->args.seed, per_conn);
    WireSession session;
    OpenMixedSession(run, in, &session);
    MixedTraffic traffic(in, 0, false);
    const auto before = session.Metrics();
    const PassResult untraced = RunWire(session.fds, &traffic,
                                        session.server.pid(), nullptr,
                                        &run->tally);
    const auto delta = MetricsDelta(before, session.Metrics());
    RequireNoProtocolErrors(delta);
    run->Add("sharded.shard_skew", traffic.ShardSkew(), "ratio");
    run->Add("server.handle_us.add.p50",
             HistQuantile(delta, "server.handle_us.add", 0.5), "us");
    run->Add("server.handle_us.add.p99",
             HistQuantile(delta, "server.handle_us.add", 0.99), "us");
    run->Add("server.handle_us.which_sets.p50",
             HistQuantile(delta, "server.handle_us.which_sets", 0.5), "us");
    const double probes = static_cast<double>(
        delta.CounterValue("multiset.probes_total", 0));
    const double pruned = static_cast<double>(
        delta.CounterValue("multiset.pruned_keys_total", 0));
    Require(probes > 0, "multiset.probes_total did not move");
    run->Add("multiset.probes_per_key",
             probes / static_cast<double>(traffic.WhichKeys()), "count");
    run->Add("multiset.pruned_ratio", pruned / probes, "ratio");
    // The second pass re-sends the same ADDs: the bits are already set, so
    // every bound and count check still holds.
    SpanLog spans;
    spans.Reserve(per_conn * kMixedConnections * 5);
    const PassResult traced = RunWire(session.fds, &traffic,
                                      session.server.pid(), &spans,
                                      &run->tally);
    record_overhead("wire_mixed", untraced.KeysPerSecond(),
                    traced.KeysPerSecond());
    WriteSpans(run, "wire_mixed", spans, untraced.KeysPerSecond(),
               traced.KeysPerSecond());
    size_t memory_bytes = 0;
    MixedFinalChecks(&session, in,
                     in.keys_inserted + in.adds.size() * kMixedAddKeys,
                     &memory_bytes);
    session.Close();
  }
  run->Add("tracing.overhead_ratio", overhead, "ratio");
}

// ---------------------------------------------------------------- main ----

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    }
    char* end = nullptr;
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return *error = "bad --seed", false;
    } else if (arg == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0) ||
          args->seconds > 600) {
        return *error = "bad --seconds", false;
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return *error = "bad --trace", false;
      args->trace = value == "1";
    } else if (arg == "--out") {
      args->out = value;
    } else {
      return *error = "unknown argument " + arg, false;
    }
  }
  if (args->workload != "inproc_membership" &&
      args->workload != "wire_membership" && args->workload != "wire_mixed") {
    return *error = "unknown --workload '" + args->workload + "'", false;
  }
  if (args->out.empty()) return *error = "--out is required", false;
  char self[4096];
  const ssize_t n = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) return *error = "cannot locate the perfbench binary", false;
  std::string dir(self, static_cast<size_t>(n));
  dir = dir.substr(0, dir.rfind('/'));
  args->server = dir + "/shbf/shbf_server";
  if (access(args->server.c_str(), X_OK) != 0) {
    return *error = "missing " + args->server, false;
  }
  return true;
}

std::string ResultLine(const Run& run, bool correct) {
  std::string out = correct ? "{\"correct\": true" : "{\"correct\": false";
  out += ", \"attempted\": " +
         std::to_string(std::max<uint64_t>(1, run.tally.attempted));
  out += ", \"failed\": " + std::to_string(run.tally.failed);
  out += ", \"metrics\": {";
  if (correct) {
    for (size_t i = 0; i < run.metrics.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", run.metrics[i].value);
      out += (i ? ", \"" : "\"") + run.metrics[i].name + "\": {\"value\": " +
             value + ", \"unit\": \"" + run.metrics[i].unit + "\"}";
    }
  }
  return out + "}}";
}

void WriteReport(const Run& run) {
  shbf::JsonReport report("perfbench");
  shbf::JsonRow& row = report.AddRow();
  row.Set("workload", run.args.workload)
      .Set("seed", run.args.seed)
      .Set("seconds", run.args.seconds)
      .Set("trace", static_cast<uint64_t>(run.args.trace))
      .Set("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Set("allowed_cpus", CpuListString(run.cpus));
  for (const Role& role : run.layout.roles) {
    row.Set("cores." + role.name, CpuListString(role.cpus));
  }
  for (const auto& [key, value] : run.notes) row.Set(key, value);
  for (const Metric& m : run.metrics) {
    row.Set(m.name + " (" + m.unit + ")", m.value);
  }
  const std::string path = run.args.out + "/" + run.args.workload + "-seed" +
                           std::to_string(run.args.seed) +
                           (run.args.trace ? "-trace" : "") + ".json";
  const shbf::Status s = report.WriteToFile(path);
  if (!s.ok()) std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
  std::printf("# report: %s\n", path.c_str());
}

int Main(int argc, char** argv) {
  Run run;
  std::string error;
  if (!ParseArgs(argc, argv, &run.args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  mkdir(run.args.out.c_str(), 0755);
  run.tmp_dir = run.args.out + "/tmp-" + std::to_string(getpid());
  if (mkdir(run.tmp_dir.c_str(), 0755) != 0) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", run.tmp_dir.c_str());
    return 2;
  }
  run.cpus = AllowedCpus();
  const bool with_server =
      run.args.trace || run.args.workload != "inproc_membership";
  run.layout = PlanRoles(run.cpus, with_server);
  const std::string refused = CheckRoles(run.layout, run.cpus.size());
  if (!refused.empty()) {
    std::fprintf(stderr, "perfbench: refusing the role layout: %s\n",
                 refused.c_str());
    return 2;
  }
  const size_t connections =
      (with_server ? std::max(kMembershipConnections, kMixedConnections) : 0) +
      1;
  if (with_server && connections > run.cpus.size()) {
    std::fprintf(stderr, "perfbench: %zu connections exceed %zu cores\n",
                 connections, run.cpus.size());
    return 2;
  }
  const std::vector<int>& client_cpus =
      run.RoleCpus(with_server ? "generator" : "caller");
  if (!PinThisThread(client_cpus)) {
    std::fprintf(stderr, "perfbench: sched_setaffinity failed\n");
    return 2;
  }
  run.Note("workload",
           run.args.workload + (run.args.trace ? " (traced ladder)" : ""));
  run.Note("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                        ", allowed cores " + CpuListString(run.cpus));
  for (const Role& role : run.layout.roles) {
    run.Note("cores." + role.name, CpuListString(role.cpus));
  }
  if (run.layout.shared) {
    run.Note("cores.shared", "too few cores: some roles share a core");
  }
  // Served workloads keep the generator's core awake, so a wake-up never
  // waits on the hypervisor (see IdleSpinners); WireSession decides for
  // the server's cores.
  std::unique_ptr<IdleSpinners> spinners;
  if (with_server) spinners = std::make_unique<IdleSpinners>(client_cpus);
  bool correct = true;
  try {
    if (run.args.trace) {
      RunTracedLadder(&run);
    } else if (run.args.workload == "inproc_membership") {
      RunInprocMembership(&run);
    } else if (run.args.workload == "wire_membership") {
      RunWireMembership(&run);
    } else {
      RunWireMixed(&run);
    }
  } catch (const CheckFailure& failure) {
    std::fprintf(stderr, "perfbench: correctness check failed: %s\n",
                 failure.what());
    if (run.tally.failed == 0) run.tally.failed = 1;
    correct = false;
  }
  std::string rm = run.tmp_dir;
  for (const char* name :
       {"/membership.shbi", "/mixed.shbf", "/catalog.shbc"}) {
    std::remove((rm + name).c_str());
  }
  rmdir(run.tmp_dir.c_str());
  if (correct) {
    run.Note("error_rate",
             std::to_string(run.tally.failed) + " failed of " +
                 std::to_string(run.tally.attempted) + " attempted");
    for (const Metric& m : run.metrics) {
      std::printf("%-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    WriteReport(run);
  }
  std::printf("%s\n", ResultLine(run, correct).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
