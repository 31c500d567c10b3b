#include "engine/sharded_filter.h"

#include <utility>

#include "api/filter_registry.h"
#include "core/serde.h"

namespace shbf {

ShardedMembershipFilter::ShardedMembershipFilter(
    std::string base_name, size_t batch_size,
    std::vector<std::unique_ptr<MembershipFilter>> shards)
    : name_(std::string(kNamePrefix) + base_name),
      batch_size_(batch_size < 1 ? 1 : batch_size),
      engine_(BatchOptions{.batch_size = batch_size_}),
      sharded_(shards.size(), [&shards](size_t i) {
        return std::move(shards[i]);
      }) {
  // Route each shard's sub-batch through the engine so each shard's probe
  // loop runs at the spec's group size and counts in the engine metrics.
  sharded_.SetBatchFn([this](const MembershipFilter& filter,
                             const std::vector<std::string_view>& keys,
                             std::vector<uint8_t>* results) {
    engine_.ContainsBatch(filter, keys, results);
  });
  // The ensemble supports what every shard supports; kMergeable is masked
  // because merging sharded ensembles is not implemented at this level.
  capabilities_ = ~0u;
  sharded_.ForEachShard([this](size_t, const MembershipFilter& filter) {
    capabilities_ &= filter.capabilities();
  });
  capabilities_ &= static_cast<uint32_t>(~kMergeable);
}

size_t ShardedMembershipFilter::memory_bytes() const {
  size_t total = 0;
  sharded_.ForEachShard([&total](size_t, const MembershipFilter& filter) {
    total += filter.memory_bytes();
  });
  return total;
}

std::string ShardedMembershipFilter::ToBytes() const {
  // Payload: batch_size u32, shard count u32, then each shard's
  // self-describing registry envelope, length-prefixed.
  ByteWriter writer;
  writer.PutU32(static_cast<uint32_t>(batch_size_));
  writer.PutU32(static_cast<uint32_t>(sharded_.num_shards()));
  sharded_.ForEachShard([&writer](size_t, const MembershipFilter& filter) {
    std::string blob = FilterRegistry::Serialize(filter);
    writer.PutU64(blob.size());
    writer.PutBytes(blob.data(), blob.size());
  });
  return writer.Take();
}

Status ShardedMembershipFilter::Deserialize(
    std::string_view envelope_name, std::string_view payload,
    const FilterRegistry& registry, std::unique_ptr<MembershipFilter>* out) {
  if (envelope_name.substr(0, kNamePrefix.size()) != kNamePrefix) {
    return Status::InvalidArgument("sharded: envelope name lacks prefix");
  }
  const std::string base_name(envelope_name.substr(kNamePrefix.size()));
  ByteReader reader(payload);
  uint32_t batch_size = 0;
  uint32_t num_shards = 0;
  if (!reader.GetU32(&batch_size) || !reader.GetU32(&num_shards) ||
      num_shards == 0 || num_shards > reader.remaining()) {
    return Status::InvalidArgument("sharded: bad payload framing");
  }
  std::vector<std::unique_ptr<MembershipFilter>> shards;
  shards.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    uint64_t blob_size = 0;
    if (!reader.GetU64(&blob_size) || blob_size > reader.remaining()) {
      return Status::InvalidArgument("sharded: truncated shard blob");
    }
    std::string blob(blob_size, '\0');
    if (!reader.GetBytes(blob.data(), blob_size)) {
      return Status::InvalidArgument("sharded: truncated shard blob");
    }
    std::unique_ptr<MembershipFilter> shard;
    Status st = registry.Deserialize(blob, &shard);
    if (!st.ok()) return st;
    if (shard->name() != base_name) {
      return Status::InvalidArgument(
          "sharded: shard blob names \"" + std::string(shard->name()) +
          "\", envelope says \"" + base_name + "\"");
    }
    shards.push_back(std::move(shard));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("sharded: trailing bytes");
  }
  *out = std::make_unique<ShardedMembershipFilter>(base_name, batch_size,
                                                   std::move(shards));
  return Status::Ok();
}

}  // namespace shbf
