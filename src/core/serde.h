// Byte-level serialization primitives. Filters are routinely shipped across
// machines (the paper's §2.2 cites Summary Cache, where proxies exchange
// their Bloom summaries), so the query-side structures support a compact,
// versioned wire format built on these helpers. Fixed-width little-endian
// integers; no alignment requirements on the reader side.

#ifndef SHBF_CORE_SERDE_H_
#define SHBF_CORE_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/status.h"

namespace shbf {

/// Append-only byte sink.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
  }

  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
  }

  void PutBytes(const void* data, size_t len) {
    buffer_.append(static_cast<const char*>(data), len);
  }

  size_t size() const { return buffer_.size(); }

  /// Moves the accumulated bytes out; the writer is empty afterwards.
  std::string Take() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Bounds-checked byte source. All getters return false (and leave the
/// output untouched) once the input is exhausted or after any failure.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool GetU8(uint8_t* v) {
    if (failed_ || pos_ + 1 > bytes_.size()) return Fail();
    *v = static_cast<uint8_t>(bytes_[pos_++]);
    return true;
  }

  bool GetU32(uint32_t* v) {
    if (failed_ || pos_ + 4 > bytes_.size()) return Fail();
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_++]))
             << (8 * i);
    }
    *v = out;
    return true;
  }

  bool GetU64(uint64_t* v) {
    if (failed_ || pos_ + 8 > bytes_.size()) return Fail();
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_++]))
             << (8 * i);
    }
    *v = out;
    return true;
  }

  bool GetBytes(void* out, size_t len) {
    if (failed_ || pos_ + len > bytes_.size()) return Fail();
    std::memcpy(out, bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  /// Like GetBytes, but returns a view into the input instead of copying;
  /// the view lives as long as the bytes the reader was constructed over.
  bool GetView(size_t len, std::string_view* out) {
    if (failed_ || pos_ + len > bytes_.size()) return Fail();
    *out = bytes_.substr(pos_, len);
    pos_ += len;
    return true;
  }

  bool AtEnd() const { return !failed_ && pos_ == bytes_.size(); }
  bool failed() const { return failed_; }
  size_t remaining() const { return failed_ ? 0 : bytes_.size() - pos_; }

 private:
  bool Fail() {
    failed_ = true;
    return false;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  bool failed_ = false;
};

namespace serde {

/// Shared header for every serialized structure: "SHBF" magic, one format
/// version byte, one structure tag byte.
inline constexpr uint32_t kMagic = 0x46424853;  // "SHBF" little-endian
inline constexpr uint8_t kFormatVersion = 1;

enum class StructureTag : uint8_t {
  kBloomFilter = 1,
  kShbfM = 2,
  kShbfA = 3,
  kShbfX = 4,
  kKmBloomFilter = 5,
  kOneMemBloomFilter = 6,
  kCountingBloomFilter = 7,
  kCuckooFilter = 8,
  kSpectralBloomFilter = 9,
  kCmSketch = 10,
  kScmSketch = 11,
  kDynamicCountFilter = 12,
  kGeneralizedShbfM = 13,
  kCountingShbfM = 14,
  // 15 and 16 belonged to the retired cache-blocked Bloom and ShBF_M
  // layouts. They stay reserved so an old blob can never be read as some
  // other structure; never reuse them.
  kSplitBlockBloomFilter = 17,
  kSplitBlockShbfM = 18,
};

/// Writes the common header.
void WriteHeader(ByteWriter* writer, StructureTag tag);

/// Reads and checks the common header against `expected`.
Status ReadHeader(ByteReader* reader, StructureTag expected);

/// Length-prefixed key list (count u64, then per key: length u32 + bytes).
/// Shared by the replay-style adapter serde and the dynamic-filter wrappers.
void WriteKeyList(ByteWriter* writer, const std::vector<std::string>& keys);

/// Reads a WriteKeyList() record. Rejects counts the remaining input cannot
/// satisfy before reserve() can amplify a small crafted blob into a huge
/// allocation. Returns false on any framing error.
bool ReadKeyList(ByteReader* reader, std::vector<std::string>* keys);

/// Zero-copy ReadKeyList: the same record and checks, but each key is a
/// view into the reader's input, so the views are valid only while those
/// bytes are (a request frame's body, for the duration of its handler).
bool ReadKeyViews(ByteReader* reader, std::vector<std::string_view>* keys);

/// Length-prefixed (key, u64 count) table — the multiplicity sibling of
/// WriteKeyList/ReadKeyList.
void WriteKeyCountList(
    ByteWriter* writer,
    const std::vector<std::pair<std::string, uint64_t>>& entries);
bool ReadKeyCountList(
    ByteReader* reader,
    std::vector<std::pair<std::string, uint64_t>>* entries);

}  // namespace serde
}  // namespace shbf

#endif  // SHBF_CORE_SERDE_H_
