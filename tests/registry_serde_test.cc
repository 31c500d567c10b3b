// Registry-driven serde round trips: for EVERY registered filter name,
// build → insert → Serialize → Deserialize must reproduce a filter that
// answers identically — membership answers for all entries, counts for
// multiplicity entries, outcomes for association entries.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/filter_registry.h"
#include "core/file_io.h"
#include "storage/filter_image.h"
#include "trace/trace_generator.h"

namespace shbf {
namespace {

FilterSpec TestSpec() {
  FilterSpec spec;
  spec.num_cells = 30000;
  spec.num_hashes = 6;
  spec.expected_keys = 1000;
  spec.seed = 0xfeedf00d;
  return spec;
}

struct Workload {
  std::vector<std::string> members;  // inserted
  std::vector<std::string> probes;   // never inserted
};

Workload MakeWorkload() {
  TraceGenerator gen(0x5e44);
  auto keys = gen.DistinctFlowKeys(3000);
  Workload w;
  w.members.assign(keys.begin(), keys.begin() + 1000);
  w.probes.assign(keys.begin() + 1000, keys.end());
  return w;
}

/// Populates `filter` according to its family: association splits members
/// between S1/S2, multiplicity inserts every third key twice.
void Populate(const FilterRegistry::Entry& entry, MembershipFilter* filter,
              const std::vector<std::string>& members) {
  if (entry.family == FilterFamily::kAssociation) {
    auto* assoc = dynamic_cast<AssociationFilter*>(filter);
    ASSERT_NE(assoc, nullptr);
    for (size_t i = 0; i < members.size(); ++i) {
      if (i % 3 == 0) {
        assoc->AddToS1(members[i]);
      } else if (i % 3 == 1) {
        assoc->AddToS2(members[i]);
      } else {
        assoc->AddToS1(members[i]);
        assoc->AddToS2(members[i]);
      }
    }
    return;
  }
  for (size_t i = 0; i < members.size(); ++i) {
    filter->Add(members[i]);
    if (entry.family == FilterFamily::kMultiplicity && i % 3 == 0) {
      filter->Add(members[i]);
    }
  }
}

TEST(RegistrySerdeTest, EveryFilterRoundTripsThroughBytes) {
  const auto& registry = FilterRegistry::Global();
  const Workload w = MakeWorkload();
  for (const auto& name : registry.Names()) {
    SCOPED_TRACE(name);
    const auto* entry = registry.Find(name);
    ASSERT_NE(entry, nullptr);

    std::unique_ptr<MembershipFilter> original;
    ASSERT_TRUE(registry.Create(name, TestSpec(), &original).ok());
    Populate(*entry, original.get(), w.members);

    std::string blob = FilterRegistry::Serialize(*original);
    ASSERT_FALSE(blob.empty());

    std::unique_ptr<MembershipFilter> restored;
    Status s = registry.Deserialize(blob, &restored);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->name(), name);

    // Identical membership answers on members (all true) and probes
    // (identical false-positive pattern, not merely a similar rate).
    for (const auto& key : w.members) {
      ASSERT_TRUE(restored->Contains(key)) << "false negative after reload";
    }
    for (const auto& key : w.probes) {
      ASSERT_EQ(original->Contains(key), restored->Contains(key))
          << "answer drift on probe key";
    }

    if (entry->family == FilterFamily::kMultiplicity) {
      auto* original_counts = dynamic_cast<MultiplicityFilter*>(original.get());
      auto* restored_counts = dynamic_cast<MultiplicityFilter*>(restored.get());
      ASSERT_NE(original_counts, nullptr);
      ASSERT_NE(restored_counts, nullptr);
      for (const auto& key : w.members) {
        ASSERT_EQ(original_counts->QueryCount(key),
                  restored_counts->QueryCount(key));
      }
    }

    if (entry->family == FilterFamily::kAssociation) {
      auto* original_assoc = dynamic_cast<AssociationFilter*>(original.get());
      auto* restored_assoc = dynamic_cast<AssociationFilter*>(restored.get());
      ASSERT_NE(original_assoc, nullptr);
      ASSERT_NE(restored_assoc, nullptr);
      for (const auto& key : w.members) {
        ASSERT_EQ(original_assoc->Query(key), restored_assoc->Query(key));
      }
    }
  }
}

TEST(RegistrySerdeTest, RestoredFilterKeepsAccepting) {
  // Add-after-reload must keep working for incremental filters.
  const auto& registry = FilterRegistry::Global();
  const Workload w = MakeWorkload();
  for (const auto& name : registry.Names()) {
    SCOPED_TRACE(name);
    std::unique_ptr<MembershipFilter> filter;
    ASSERT_TRUE(registry.Create(name, TestSpec(), &filter).ok());
    for (size_t i = 0; i < 100; ++i) filter->Add(w.members[i]);

    std::unique_ptr<MembershipFilter> restored;
    ASSERT_TRUE(
        registry.Deserialize(FilterRegistry::Serialize(*filter), &restored)
            .ok());
    for (size_t i = 100; i < 200; ++i) restored->Add(w.members[i]);
    for (size_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(restored->Contains(w.members[i]))
          << "lost key " << i << " after reload+add";
    }
  }
}

TEST(RegistrySerdeTest, GarbageAndTruncationAreRejected) {
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MembershipFilter> out;
  EXPECT_FALSE(registry.Deserialize("", &out).ok());
  EXPECT_FALSE(registry.Deserialize("not a filter blob", &out).ok());

  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(registry.Create("shbf_m", TestSpec(), &filter).ok());
  filter->Add("payload");
  std::string blob = FilterRegistry::Serialize(*filter);
  for (size_t cut : {blob.size() / 4, blob.size() / 2, blob.size() - 1}) {
    EXPECT_FALSE(registry.Deserialize(blob.substr(0, cut), &out).ok())
        << "accepted a blob truncated to " << cut << " bytes";
  }
}

TEST(RegistrySerdeTest, NumElementsSurvivesRoundTrip) {
  const auto& registry = FilterRegistry::Global();
  const Workload w = MakeWorkload();
  for (const auto& name : registry.Names()) {
    SCOPED_TRACE(name);
    std::unique_ptr<MembershipFilter> filter;
    ASSERT_TRUE(registry.Create(name, TestSpec(), &filter).ok());
    for (size_t i = 0; i < 100; ++i) filter->Add(w.members[i]);
    std::unique_ptr<MembershipFilter> restored;
    ASSERT_TRUE(
        registry.Deserialize(FilterRegistry::Serialize(*filter), &restored)
            .ok());
    EXPECT_EQ(restored->num_elements(), filter->num_elements());
  }
}

TEST(RegistrySerdeTest, ReplayPayloadWithOversizedCountIsRejected) {
  // A counting_shbf_x table entry above max_count must yield a Status, not
  // a CHECK abort during replay.
  const auto& registry = FilterRegistry::Global();
  const auto* entry = registry.Find("counting_shbf_x");
  ASSERT_NE(entry, nullptr);
  FilterSpec spec = TestSpec();
  spec.max_count = 8;
  ByteWriter writer;
  spec_serde::WriteSpec(&writer, spec);
  writer.PutU64(1);  // one table entry
  writer.PutU32(3);
  writer.PutBytes("key", 3);
  writer.PutU64(100000);  // way past max_count
  std::unique_ptr<MembershipFilter> out;
  Status s = entry->deserializer(writer.Take(), &out);
  EXPECT_FALSE(s.ok());

  // A shbf_x multiset repeating one key past max_count is legal state (the
  // live adapter saturates at the cap); it must round-trip, not abort.
  const auto* lazy_entry = registry.Find("shbf_x");
  ASSERT_NE(lazy_entry, nullptr);
  ByteWriter lazy_writer;
  spec_serde::WriteSpec(&lazy_writer, spec);
  lazy_writer.PutU64(spec.max_count + 1);
  for (uint32_t i = 0; i <= spec.max_count; ++i) {
    lazy_writer.PutU32(3);
    lazy_writer.PutBytes("key", 3);
  }
  ASSERT_TRUE(lazy_entry->deserializer(lazy_writer.Take(), &out).ok());
  auto* counts = dynamic_cast<MultiplicityFilter*>(out.get());
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->QueryCount("key"), spec.max_count);
}

TEST(RegistrySerdeTest, MultiplicityAddSaturatesAtMaxCount) {
  // Adding one key past max_count through the uniform interface must
  // saturate (like every counting structure here), never abort.
  const auto& registry = FilterRegistry::Global();
  FilterSpec spec = TestSpec();
  spec.max_count = 4;
  for (const char* name : {"counting_shbf_x", "shbf_x"}) {
    SCOPED_TRACE(name);
    std::unique_ptr<MultiplicityFilter> filter;
    ASSERT_TRUE(registry.CreateMultiplicity(name, spec, &filter).ok());
    for (int i = 0; i < 20; ++i) filter->Add("hot-key");
    EXPECT_EQ(filter->QueryCount("hot-key"), 4u);
    // And the saturated state round-trips.
    std::unique_ptr<MembershipFilter> restored;
    ASSERT_TRUE(
        registry.Deserialize(FilterRegistry::Serialize(*filter), &restored)
            .ok());
    auto* restored_counts = dynamic_cast<MultiplicityFilter*>(restored.get());
    ASSERT_NE(restored_counts, nullptr);
    EXPECT_EQ(restored_counts->QueryCount("hot-key"), 4u);
  }
}

TEST(RegistrySerdeTest, OverfullCuckooKeepsNoFalseNegativesAcrossReload) {
  // A cuckoo filter sized far below the key count must spill to the exact
  // side list rather than silently dropping keys, and the spill must
  // survive serialization.
  const auto& registry = FilterRegistry::Global();
  FilterSpec spec;
  spec.num_cells = 96;  // 2 buckets × 4 slots of 12-bit fingerprints
  spec.num_hashes = 8;
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(registry.Create("cuckoo", spec, &filter).ok());
  TraceGenerator gen(0xcafe);
  const auto keys = gen.DistinctFlowKeys(50);
  for (const auto& key : keys) filter->Add(key);
  for (const auto& key : keys) {
    ASSERT_TRUE(filter->Contains(key)) << "overfull cuckoo lost a key";
  }
  std::unique_ptr<MembershipFilter> restored;
  ASSERT_TRUE(
      registry.Deserialize(FilterRegistry::Serialize(*filter), &restored)
          .ok());
  for (const auto& key : keys) {
    ASSERT_TRUE(restored->Contains(key)) << "reload dropped a spilled key";
  }
}

TEST(RegistrySerdeTest, VersionMismatchNamesVersionsAndFilter) {
  // A pre-bump blob must fail loudly: the error names the found and the
  // supported envelope version AND the filter the blob carries, so an
  // operator staring at a failed `shbf_cli query` knows what to rebuild.
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(registry.Create("shbf_m", TestSpec(), &filter).ok());
  filter->Add("payload");
  std::string blob = FilterRegistry::Serialize(*filter);
  // Envelope layout: magic u32, version u8, name... — fake an old version.
  blob[4] = 2;
  std::unique_ptr<MembershipFilter> out;
  Status s = registry.Deserialize(blob, &out);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version 2"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("supported: 4"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("\"shbf_m\""), std::string::npos)
      << s.ToString();

  // A version byte from the future fails the same way.
  blob[4] = 9;
  s = registry.Deserialize(blob, &out);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version 9"), std::string::npos) << s.ToString();
}

TEST(RegistrySerdeTest, WrapperEnvelopesRoundTripThroughTheRegistry) {
  // Envelope-level check for every wrapper nesting Create can produce (the
  // behavioural deep-dives live in dynamic_filter_test.cc).
  const auto& registry = FilterRegistry::Global();
  const Workload w = MakeWorkload();
  struct Case {
    uint32_t shards;
    size_t delta;
    bool auto_scale;
    const char* expected_name;
  };
  for (const Case& c : {Case{1, 64, false, "dynamic/shbf_m"},
                        Case{1, 0, true, "scaling/shbf_m"},
                        Case{1, 64, true, "dynamic/scaling/shbf_m"},
                        Case{3, 96, false, "sharded/dynamic/shbf_m"},
                        Case{3, 96, true, "sharded/dynamic/scaling/shbf_m"}}) {
    SCOPED_TRACE(c.expected_name);
    FilterSpec spec = TestSpec();
    spec.shards = c.shards;
    spec.delta_capacity = c.delta;
    spec.auto_scale = c.auto_scale;
    std::unique_ptr<MembershipFilter> filter;
    ASSERT_TRUE(registry.Create("shbf_m", spec, &filter).ok());
    EXPECT_EQ(filter->name(), c.expected_name);
    for (const auto& key : w.members) filter->Add(key);

    std::unique_ptr<MembershipFilter> restored;
    Status s =
        registry.Deserialize(FilterRegistry::Serialize(*filter), &restored);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(restored->name(), c.expected_name);
    EXPECT_EQ(restored->capabilities(), filter->capabilities());
    for (const auto& key : w.members) {
      ASSERT_TRUE(restored->Contains(key)) << "false negative after reload";
    }
    for (const auto& key : w.probes) {
      ASSERT_EQ(filter->Contains(key), restored->Contains(key))
          << "answer drift on probe key";
    }
  }
}

/// Decodes a hex literal (two digits per byte).
std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

TEST(RegistrySerdeTest, EnvelopeNamesUnknownFilter) {
  // An envelope naming an unregistered filter must fail cleanly, not crash.
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(registry.Create("bloom", TestSpec(), &filter).ok());
  std::string blob = FilterRegistry::Serialize(*filter);
  // Rewrite the embedded name "bloom" → "blooz".
  size_t pos = blob.find("bloom");
  ASSERT_NE(pos, std::string::npos);
  blob[pos + 4] = 'z';
  std::unique_ptr<MembershipFilter> out;
  Status s = registry.Deserialize(blob, &out);
  EXPECT_FALSE(s.ok());

  // Envelopes of the retired cache-blocked layouts, recorded from the last
  // build that still registered them (one key added, 512 cells, k = 4).
  // They must fail cleanly and say which filter is gone.
  const struct {
    const char* retired;
    const char* hex;
  } retired_blobs[] = {
      {"blocked_bloom",
      "53484252050d000000626c6f636b65645f626c6f6f6d01000000000000005348"
      "4246010f00020000000000000400000000020000000700000000000000010000"
      "0000000000000000000002000000000000000000000000000000200080000000"
      "0000000000000000000000000000000000000000000000000000010000000000"
      "0000000000"},
      {"blocked_shbf_m",
      "53484252050e000000626c6f636b65645f736862665f6d010000000000000053"
      "4842460110000200000000000004000000390000000002000000070000000000"
      "0000010000000000000000000000002200000000000000000000000000000000"
      "0000000000000000000000000011000000000000000000000000000000000000"
      "00000000000000000000"},
      // A 2-shard wrapper: the base name is checked before any shard.
      {"blocked_bloom",
      "534842520515000000736861726465642f626c6f636b65645f626c6f6f6d1000"
      "000002000000850000000000000053484252050d000000626c6f636b65645f62"
      "6c6f6f6d010000000000000053484246010f0002000000000000040000000002"
      "0000000700000000000000010000000000000000000000000200000000000000"
      "0000000000000000200080000000000000000000000000000000000000000000"
      "0000000000000000010000000000000000000085000000000000005348425205"
      "0d000000626c6f636b65645f626c6f6f6d000000000000000053484246010f00"
      "0200000000000004000000000200000007000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"},
  };
  for (const auto& [retired, hex] : retired_blobs) {
    SCOPED_TRACE(retired);
    Status retired_status = registry.Deserialize(FromHex(hex), &out);
    EXPECT_EQ(retired_status.code(), Status::Code::kNotFound);
    EXPECT_NE(retired_status.ToString().find(std::string("\"") + retired +
                                             "\""),
              std::string::npos)
        << retired_status.ToString();
  }
}

/// Forges a registry envelope carrying `name` over `payload` (the layout
/// Serialize writes: SHBR magic, version 4, length-prefixed name, payload).
std::string ForgeEnvelope(std::string_view name, std::string_view payload) {
  ByteWriter writer;
  writer.PutU32(0x52424853);  // "SHBR"
  writer.PutU8(4);
  writer.PutU32(static_cast<uint32_t>(name.size()));
  writer.PutBytes(name.data(), name.size());
  writer.PutBytes(payload.data(), payload.size());
  return writer.Take();
}

TEST(RegistrySerdeTest, CorruptWrapperPrefixBlobsReturnStatusNeverCrash) {
  // Wrapper envelopes dispatch structurally on their name prefix; hostile
  // names and garbage payloads must all come back as Status.
  const auto& registry = FilterRegistry::Global();
  std::unique_ptr<MembershipFilter> out;

  // Unknown base behind every wrapper prefix (and nested ones).
  for (const char* name :
       {"sharded/nope", "dynamic/nope", "scaling/nope",
        "sharded/dynamic/scaling/nope", "dynamic/sharded/nope"}) {
    Status s = registry.Deserialize(ForgeEnvelope(name, "junkpayload"), &out);
    EXPECT_FALSE(s.ok()) << name;
    EXPECT_EQ(s.code(), Status::Code::kNotFound) << name;
    EXPECT_NE(s.ToString().find("nope"), std::string::npos)
        << "error must name the unknown base: " << s.ToString();
  }

  // A bare wrapper prefix with no base at all ("sharded/" strips to "").
  EXPECT_FALSE(
      registry.Deserialize(ForgeEnvelope("sharded/", "junk"), &out).ok());

  // Known base, garbage wrapper payload: the structural deserializers must
  // reject it (count bombs, truncated nested envelopes) without crashing.
  for (const char* name :
       {"sharded/shbf_m", "dynamic/shbf_m", "scaling/shbf_m",
        "sharded/dynamic/shbf_m"}) {
    EXPECT_FALSE(
        registry.Deserialize(ForgeEnvelope(name, "garbage"), &out).ok())
        << name;
    EXPECT_FALSE(registry.Deserialize(ForgeEnvelope(name, ""), &out).ok())
        << name;
    // A forged huge count/length prefix must not allocate its way to OOM.
    ByteWriter bomb;
    bomb.PutU32(0xffffffffu);
    bomb.PutU64(0xffffffffffffffffull);
    EXPECT_FALSE(
        registry.Deserialize(ForgeEnvelope(name, bomb.Take()), &out).ok())
        << name;
  }
}

TEST(RegistrySerdeTest, TruncatedWrapperBlobsAreRejectedAtEveryLength) {
  // Every proper prefix of a real nested wrapper blob (sharded over
  // dynamic shards — the deepest envelope nesting Create produces) must
  // fail with a Status, never crash; same for the nested multiset catalog
  // envelope that embeds such blobs (set_catalog_test covers its own
  // layout; here the nested filter blob inside it is the one truncated).
  const auto& registry = FilterRegistry::Global();
  FilterSpec spec = TestSpec();
  spec.shards = 2;
  spec.delta_capacity = 32;
  std::unique_ptr<MembershipFilter> filter;
  ASSERT_TRUE(registry.Create("shbf_m", spec, &filter).ok());
  for (int i = 0; i < 200; ++i) filter->Add("key-" + std::to_string(i));
  const std::string blob = FilterRegistry::Serialize(*filter);
  ASSERT_EQ(filter->name(), "sharded/dynamic/shbf_m");

  std::unique_ptr<MembershipFilter> out;
  for (size_t len = 0; len < blob.size(); ++len) {
    Status s = registry.Deserialize(std::string_view(blob).substr(0, len),
                                    &out);
    EXPECT_FALSE(s.ok()) << "prefix of " << len << " bytes was accepted";
  }
  // The intact blob still round-trips (the sweep didn't test a broken
  // serializer).
  ASSERT_TRUE(registry.Deserialize(blob, &out).ok());
  EXPECT_EQ(out->name(), "sharded/dynamic/shbf_m");
}

// ---------------------------------------------------------------------
// Mapped-image rejection cases: every failure mode an operator will
// actually hit (a stale build, a mismatched geometry record, flipped
// payload bits) must come back as a Status naming the file AND the field —
// the difference between a fixable incident and a mystery.
// ---------------------------------------------------------------------

/// Saves a populated shbf_m image and returns its raw bytes + path.
std::string SaveMappedImage(const std::string& path) {
  FilterSpec spec = TestSpec();
  std::unique_ptr<MembershipFilter> filter;
  EXPECT_TRUE(FilterRegistry::Global().Create("shbf_m", spec, &filter).ok());
  for (int i = 0; i < 500; ++i) filter->Add("key-" + std::to_string(i));
  EXPECT_TRUE(FilterRegistry::Global().SaveMapped(*filter, path, 1).ok());
  std::string image;
  EXPECT_TRUE(ReadFileToString(path, &image).ok());
  return image;
}

TEST(RegistrySerdeTest, MappedImageStaleVersionNamesFileAndField) {
  const std::string path =
      ::testing::TempDir() + "/serde_stale_version.shbi";
  std::string image = SaveMappedImage(path);
  // The version field is the u32 at offset 4 (after the magic); a future
  // build's image must be refused BY VERSION, before the checksum verdict,
  // so the message says "upgrade" rather than "corrupt".
  image[4] = static_cast<char>(storage::kImageVersion + 9);
  ASSERT_TRUE(WriteStringToFile(path, image).ok());

  std::unique_ptr<MembershipFilter> out;
  Status s = FilterRegistry::Global().OpenMapped(path, &out);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find(path), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("field version"), std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

TEST(RegistrySerdeTest, MappedImageGeometryMismatchNamesFileAndField) {
  const std::string path = ::testing::TempDir() + "/serde_geometry.shbi";
  std::string image = SaveMappedImage(path);

  // Decode, lie about the geometry, re-encode (recomputing the header
  // checksum — this is a *consistent* header describing the wrong filter),
  // and splice the forged page back in. Only the opener's cross-checks can
  // catch this class of mismatch.
  storage::ImageHeader header;
  ASSERT_TRUE(storage::DecodeImageHeader(
                  reinterpret_cast<const uint8_t*>(image.data()),
                  image.size(), &header)
                  .ok());
  header.geometry.num_bits += 64;  // no longer matches array_total_bits
  const std::string forged = storage::EncodeImageHeader(header);
  ASSERT_EQ(forged.size(), storage::kImagePageBytes);
  image.replace(0, forged.size(), forged);
  ASSERT_TRUE(WriteStringToFile(path, image).ok());

  std::unique_ptr<MembershipFilter> out;
  Status s = FilterRegistry::Global().OpenMapped(path, &out);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find(path), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("field array_total_bits"), std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

TEST(RegistrySerdeTest, MappedImageChecksumFlipNamesFileAndField) {
  const std::string path = ::testing::TempDir() + "/serde_checksum.shbi";
  std::string image = SaveMappedImage(path);
  // Flip one payload bit. The default open doesn't read the payload at
  // all; the verifying open must name the region checksum.
  image[storage::kImagePageBytes + 1234] ^= 0x10;
  ASSERT_TRUE(WriteStringToFile(path, image).ok());

  std::unique_ptr<MembershipFilter> out;
  Status s = FilterRegistry::Global().OpenMapped(
      path, &out, storage::OpenOptions{.verify_payload = true});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find(path), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("checksum"), std::string::npos) << s.ToString();

  // Same image, header-only open: succeeds by design (the documented
  // trade-off behind the O(1) open).
  EXPECT_TRUE(FilterRegistry::Global().OpenMapped(path, &out).ok());
  std::remove(path.c_str());
}

TEST(RegistrySerdeTest, MappedImageUnknownFilterNameIsNamed) {
  const std::string path = ::testing::TempDir() + "/serde_unknown.shbi";
  std::string image = SaveMappedImage(path);
  storage::ImageHeader header;
  ASSERT_TRUE(storage::DecodeImageHeader(
                  reinterpret_cast<const uint8_t*>(image.data()),
                  image.size(), &header)
                  .ok());
  header.filter_name = "filter_from_the_future";
  const std::string forged = storage::EncodeImageHeader(header);
  image.replace(0, forged.size(), forged);
  ASSERT_TRUE(WriteStringToFile(path, image).ok());

  std::unique_ptr<MembershipFilter> out;
  Status s = FilterRegistry::Global().OpenMapped(path, &out);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("filter_from_the_future"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("field name"), std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace shbf
