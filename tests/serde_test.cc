#include "core/serde.h"

#include <gtest/gtest.h>

#include "baselines/bloom_filter.h"
#include "shbf/shbf_association.h"
#include "shbf/shbf_membership.h"
#include "shbf/shbf_multiplicity.h"
#include "trace/workload.h"

namespace shbf {
namespace {

// --- primitives -----------------------------------------------------------------

TEST(ByteWriterReaderTest, RoundTripAllWidths) {
  ByteWriter writer;
  writer.PutU8(0xab);
  writer.PutU32(0xdeadbeef);
  writer.PutU64(0x0123456789abcdefull);
  writer.PutBytes("xyz", 3);
  std::string blob = writer.Take();
  EXPECT_EQ(blob.size(), 1u + 4u + 8u + 3u);

  ByteReader reader(blob);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  char buf[3];
  EXPECT_TRUE(reader.GetU8(&u8));
  EXPECT_TRUE(reader.GetU32(&u32));
  EXPECT_TRUE(reader.GetU64(&u64));
  EXPECT_TRUE(reader.GetBytes(buf, 3));
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(std::string_view(buf, 3), "xyz");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteReaderTest, TruncationFailsAndSticks) {
  ByteReader reader("ab");
  uint32_t v = 0;
  EXPECT_FALSE(reader.GetU32(&v));
  EXPECT_TRUE(reader.failed());
  uint8_t b = 0;
  EXPECT_FALSE(reader.GetU8(&b));  // failure is sticky
  EXPECT_FALSE(reader.AtEnd());
}

TEST(ByteReaderTest, TakeLeavesWriterEmpty) {
  ByteWriter writer;
  writer.PutU8(1);
  EXPECT_EQ(writer.Take().size(), 1u);
  EXPECT_EQ(writer.size(), 0u);
}

TEST(SerdeHeaderTest, RoundTripAndMismatches) {
  ByteWriter writer;
  serde::WriteHeader(&writer, serde::StructureTag::kShbfM);
  std::string blob = writer.Take();
  {
    ByteReader reader(blob);
    EXPECT_TRUE(serde::ReadHeader(&reader, serde::StructureTag::kShbfM).ok());
  }
  {
    ByteReader reader(blob);
    Status s = serde::ReadHeader(&reader, serde::StructureTag::kShbfX);
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.message().find("tag mismatch"), std::string::npos);
  }
  {
    std::string corrupt = blob;
    corrupt[0] = 'X';
    ByteReader reader(corrupt);
    EXPECT_FALSE(serde::ReadHeader(&reader, serde::StructureTag::kShbfM).ok());
  }
}

// --- filter round trips -----------------------------------------------------------

// ReadKeyList (owning) and ReadKeyViews (views into the input) decode the
// same record to the same keys; the views really point into the input.
TEST(KeyListSerdeTest, ListAndViewsDecodeIdentically) {
  const std::vector<std::string> keys = {"alpha", "", std::string("\0b\xff", 3),
                                         std::string(300, 'k')};
  ByteWriter writer;
  serde::WriteKeyList(&writer, keys);
  const std::string blob = writer.Take();

  ByteReader list_reader(blob);
  std::vector<std::string> owned;
  ASSERT_TRUE(serde::ReadKeyList(&list_reader, &owned));
  EXPECT_TRUE(list_reader.AtEnd());
  EXPECT_EQ(owned, keys);

  ByteReader view_reader(blob);
  std::vector<std::string_view> views;
  ASSERT_TRUE(serde::ReadKeyViews(&view_reader, &views));
  EXPECT_TRUE(view_reader.AtEnd());
  ASSERT_EQ(views.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(views[i], keys[i]) << "key " << i;
    EXPECT_GE(views[i].data(), blob.data());
    EXPECT_LE(views[i].data() + views[i].size(), blob.data() + blob.size());
  }
}

// Every proper prefix of a key-list record is a truncation both decoders
// must reject — never a shorter list, never an out-of-bounds read.
TEST(KeyListSerdeTest, TruncationAtEveryByteFails) {
  ByteWriter writer;
  serde::WriteKeyList(&writer, {"one", "", "three", "fourteen-bytes"});
  const std::string blob = writer.Take();
  for (size_t cut = 0; cut < blob.size(); ++cut) {
    const std::string_view prefix(blob.data(), cut);
    ByteReader list_reader(prefix);
    std::vector<std::string> owned;
    EXPECT_FALSE(serde::ReadKeyList(&list_reader, &owned)) << "cut " << cut;
    ByteReader view_reader(prefix);
    std::vector<std::string_view> views;
    EXPECT_FALSE(serde::ReadKeyViews(&view_reader, &views)) << "cut " << cut;
  }
}

// A count the remaining bytes cannot satisfy is refused before reserve():
// a 12-byte record claiming 2^40 keys must not allocate anything big.
TEST(KeyListSerdeTest, CountBombIsRejected) {
  ByteWriter writer;
  writer.PutU64(uint64_t{1} << 40);
  writer.PutU32(0);
  const std::string blob = writer.Take();
  ByteReader list_reader(blob);
  std::vector<std::string> owned;
  EXPECT_FALSE(serde::ReadKeyList(&list_reader, &owned));
  ByteReader view_reader(blob);
  std::vector<std::string_view> views;
  EXPECT_FALSE(serde::ReadKeyViews(&view_reader, &views));
  EXPECT_EQ(views.capacity(), 0u);
}

TEST(FilterSerdeTest, BloomFilterRoundTripAnswersIdentically) {
  auto w = MakeMembershipWorkload(1000, 20000, 81);
  BloomFilter original({.num_bits = 12000, .num_hashes = 6, .seed = 77});
  for (const auto& key : w.members) original.Add(key);

  std::optional<BloomFilter> restored;
  ASSERT_TRUE(BloomFilter::FromBytes(original.ToBytes(), &restored).ok());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->num_bits(), original.num_bits());
  EXPECT_EQ(restored->num_elements(), original.num_elements());
  for (const auto& key : w.members) ASSERT_TRUE(restored->Contains(key));
  for (const auto& key : w.non_members) {
    ASSERT_EQ(restored->Contains(key), original.Contains(key));
  }
}

TEST(FilterSerdeTest, ShbfMRoundTripAnswersIdentically) {
  auto w = MakeMembershipWorkload(1000, 20000, 83);
  ShbfM original({.num_bits = 12000, .num_hashes = 8, .seed = 99});
  for (const auto& key : w.members) original.Add(key);

  std::optional<ShbfM> restored;
  ASSERT_TRUE(ShbfM::FromBytes(original.ToBytes(), &restored).ok());
  ASSERT_TRUE(restored.has_value());
  for (const auto& key : w.members) ASSERT_TRUE(restored->Contains(key));
  for (const auto& key : w.non_members) {
    ASSERT_EQ(restored->Contains(key), original.Contains(key));
  }
  // The restored filter remains usable for further inserts.
  restored->Add("new-element");
  EXPECT_TRUE(restored->Contains("new-element"));
}

TEST(FilterSerdeTest, ShbfARoundTripPreservesOutcomes) {
  auto w = MakeAssociationWorkload(2000, 2000, 500, 8000, 85);
  ShbfA original(ShbfAParams::Optimal(2000, 2000, 500, 8));
  original.Build(w.s1, w.s2);

  std::optional<ShbfA> restored;
  ASSERT_TRUE(ShbfA::FromBytes(original.ToBytes(), &restored).ok());
  ASSERT_TRUE(restored.has_value());
  for (const auto& q : w.queries) {
    ASSERT_EQ(restored->Query(q.key), original.Query(q.key));
  }
}

TEST(FilterSerdeTest, ShbfXRoundTripPreservesCounts) {
  auto w = MakeMultiplicityWorkload(2000, 40, 2000, 87);
  ShbfX original({.num_bits = 40000, .num_hashes = 8, .max_count = 40});
  for (size_t i = 0; i < w.keys.size(); ++i) {
    original.InsertWithCount(w.keys[i], w.counts[i]);
  }

  std::optional<ShbfX> restored;
  ASSERT_TRUE(ShbfX::FromBytes(original.ToBytes(), &restored).ok());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->num_distinct(), original.num_distinct());
  for (size_t i = 0; i < w.keys.size(); ++i) {
    ASSERT_EQ(restored->QueryCount(w.keys[i]), original.QueryCount(w.keys[i]));
  }
  for (const auto& key : w.non_members) {
    ASSERT_EQ(restored->QueryCandidates(key), original.QueryCandidates(key));
  }
}

// --- corruption handling ------------------------------------------------------------

TEST(FilterSerdeTest, RejectsTruncatedBlob) {
  ShbfM original({.num_bits = 4096, .num_hashes = 4});
  original.Add("x");
  std::string blob = original.ToBytes();
  std::optional<ShbfM> restored;
  for (size_t cut : {size_t{0}, size_t{5}, size_t{20}, blob.size() - 1}) {
    EXPECT_FALSE(
        ShbfM::FromBytes(std::string_view(blob).substr(0, cut), &restored)
            .ok())
        << "cut at " << cut;
    EXPECT_FALSE(restored.has_value());
  }
}

TEST(FilterSerdeTest, RejectsTrailingGarbage) {
  ShbfM original({.num_bits = 4096, .num_hashes = 4});
  std::string blob = original.ToBytes() + "extra";
  std::optional<ShbfM> restored;
  EXPECT_FALSE(ShbfM::FromBytes(blob, &restored).ok());
}

TEST(FilterSerdeTest, RejectsCrossStructureBlobs) {
  BloomFilter bloom({.num_bits = 4096, .num_hashes = 4});
  std::optional<ShbfM> restored;
  EXPECT_FALSE(ShbfM::FromBytes(bloom.ToBytes(), &restored).ok());
}

TEST(FilterSerdeTest, RejectsInvalidParameters) {
  // Corrupt num_hashes to an odd value — ShbfM validation must refuse it.
  ShbfM original({.num_bits = 4096, .num_hashes = 4});
  std::string blob = original.ToBytes();
  // Layout: magic(4) version(1) tag(1) num_bits(8) num_hashes(4) ...
  blob[4 + 1 + 1 + 8] = 3;
  std::optional<ShbfM> restored;
  Status s = ShbfM::FromBytes(blob, &restored);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
}

TEST(FilterSerdeTest, BlobSizeIsParamsPlusPayload) {
  ShbfM filter({.num_bits = 8000, .num_hashes = 4});
  // header 6 + params (8+4+4+1+8+8) + ceil((8000+57)/8) payload.
  EXPECT_EQ(filter.ToBytes().size(), 6u + 33u + 1008u);
}

}  // namespace
}  // namespace shbf
