// Vector probe kernels with runtime dispatch (scalar / NEON / AVX2 /
// AVX-512).
//
// Five primitives cover the hot loops of the batched query engine and the
// packed counter substrate:
//
//   MaskTestMany      lane i: (words[i] & needs[i]) == needs[i]
//                     — the ShBF pair test across a whole probe group. Each
//                     64-bit lane carries one window whose `need` pattern
//                     holds two bits (base | base+offset), so one AVX2 op
//                     resolves 4 windows = 8 probed bits (NEON: 2 = 4).
//   BlockSubsetTest   (block & mask) == mask over a whole cache-line block
//                     — the blocked-Bloom resolve, 256 bits per AVX2 op
//                     (one 512-bit op on AVX-512F parts).
//   MaskFromShifts    lane i: pattern << shifts[i] — fused mask
//                     construction for the split-block layouts, where every
//                     probe owns its own sub-word: one AVX2 `vpsllvq`
//                     (NEON `vshlq`) turns 4 (2) probe positions into 4 (2)
//                     finished mask words with no scatter conflicts.
//   ExtractFieldMany  lane i: ((lo[i] >> s[i]) | (hi[i] << (64 − s[i])))
//                     & field_mask — packed-counter extraction across a
//                     gather of counters, straddle word included.
//   BlockSubsetFilter BlockSubsetTest over a frontier of block probes,
//                     compacting it to the hits — one dispatch per
//                     frontier, so the per-key test inlines into the loop.
//
// The AVX2/AVX-512 bodies are compiled per-function (`target("avx2")`,
// `target("avx512f")`), so no global -mavx2 flag is needed and the binary
// stays runnable on pre-AVX2 parts; simd::ActiveLevel()
// (core/cpu_features.h) picks the widest path at runtime and
// SHBF_FORCE_SCALAR / ForceScalar(true) demote every kernel to the scalar
// reference, which the vector bodies must match bit for bit
// (tests/simd_kernel_test.cc sweeps random inputs under both settings).
// Kernels without a 512-bit body dispatch kAvx512 to their AVX2 one.

#ifndef SHBF_CORE_SIMD_H_
#define SHBF_CORE_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "core/bits.h"
#include "core/cpu_features.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SHBF_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define SHBF_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace shbf {
namespace simd {

// ------------------------------------------------------------------------
// Scalar reference implementations (the semantic ground truth)
// ------------------------------------------------------------------------

inline void MaskTestManyScalar(const uint64_t* words, const uint64_t* needs,
                               size_t n, uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = (words[i] & needs[i]) == needs[i] ? 1 : 0;
  }
}

inline bool BlockSubsetTestScalar(const uint8_t* block, const uint64_t* mask,
                                  size_t num_words) {
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t word;
    __builtin_memcpy(&word, block + w * 8, sizeof(word));
    if ((word & mask[w]) != mask[w]) return false;
  }
  return true;
}

inline void MaskFromShiftsScalar(const uint64_t* shifts, uint64_t pattern,
                                 size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = pattern << shifts[i];
  }
}

inline void ExtractFieldManyScalar(const uint64_t* lo, const uint64_t* hi,
                                   const uint64_t* shifts, uint64_t field_mask,
                                   size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t s = shifts[i];
    uint64_t value = lo[i] >> s;
    // The straddle word contributes nothing when s == 0 (and << 64 would be
    // UB), so guard it here; the AVX2 shift instructions yield 0 for counts
    // >= 64 and need no guard.
    if (s != 0) value |= hi[i] << (64 - s);
    out[i] = value & field_mask;
  }
}

// ------------------------------------------------------------------------
// AVX2 bodies (per-function target attribute; callable after a runtime
// AVX2 check only)
// ------------------------------------------------------------------------

#if SHBF_SIMD_X86

__attribute__((target("avx2"))) inline void MaskTestManyAvx2(
    const uint64_t* words, const uint64_t* needs, size_t n, uint8_t* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i w = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(words + i));
    const __m256i need = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(needs + i));
    const __m256i eq = _mm256_cmpeq_epi64(_mm256_and_si256(w, need), need);
    // One sign bit per 64-bit lane: bit j of `hits` is lane j's verdict.
    const int hits = _mm256_movemask_pd(_mm256_castsi256_pd(eq));
    out[i + 0] = hits & 1;
    out[i + 1] = (hits >> 1) & 1;
    out[i + 2] = (hits >> 2) & 1;
    out[i + 3] = (hits >> 3) & 1;
  }
  MaskTestManyScalar(words + i, needs + i, n - i, out + i);
}

__attribute__((target("avx2"))) inline bool BlockSubsetTestAvx2(
    const uint8_t* block, const uint64_t* mask, size_t num_words) {
  size_t w = 0;
  for (; w + 4 <= num_words; w += 4) {
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(block + w * 8));
    const __m256i m = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(mask + w));
    // testc: 1 iff (~b & m) == 0, i.e. every mask bit is set in the block.
    if (!_mm256_testc_si256(b, m)) return false;
  }
  return BlockSubsetTestScalar(block + w * 8, mask + w, num_words - w);
}

__attribute__((target("avx2"))) inline void MaskFromShiftsAvx2(
    const uint64_t* shifts, uint64_t pattern, size_t n, uint64_t* out) {
  const __m256i p = _mm256_set1_epi64x(static_cast<long long>(pattern));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i s = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(shifts + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_sllv_epi64(p, s));
  }
  MaskFromShiftsScalar(shifts + i, pattern, n - i, out + i);
}

// ---- AVX-512F bodies (one 512-bit op per cache-line block; dispatched
// only when __builtin_cpu_supports("avx512f") said yes) ----

__attribute__((target("avx512f"))) inline bool BlockSubsetTestAvx512(
    const uint8_t* block, const uint64_t* mask, size_t num_words) {
  size_t w = 0;
  for (; w + 8 <= num_words; w += 8) {
    const __m512i b = _mm512_loadu_si512(block + w * 8);
    const __m512i m = _mm512_loadu_si512(mask + w);
    // Any lane where (b & m) != m has a missing probe bit.
    if (_mm512_cmpneq_epi64_mask(_mm512_and_si512(b, m), m) != 0) {
      return false;
    }
  }
  return BlockSubsetTestScalar(block + w * 8, mask + w, num_words - w);
}

__attribute__((target("avx512f"))) inline void MaskFromShiftsAvx512(
    const uint64_t* shifts, uint64_t pattern, size_t n, uint64_t* out) {
  const __m512i p = _mm512_set1_epi64(static_cast<long long>(pattern));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i s = _mm512_loadu_si512(shifts + i);
    _mm512_storeu_si512(out + i, _mm512_sllv_epi64(p, s));
  }
  MaskFromShiftsScalar(shifts + i, pattern, n - i, out + i);
}

__attribute__((target("avx2"))) inline void ExtractFieldManyAvx2(
    const uint64_t* lo, const uint64_t* hi, const uint64_t* shifts,
    uint64_t field_mask, size_t n, uint64_t* out) {
  const __m256i mask = _mm256_set1_epi64x(static_cast<long long>(field_mask));
  const __m256i sixty_four = _mm256_set1_epi64x(64);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i lo_v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(lo + i));
    const __m256i hi_v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(hi + i));
    const __m256i s = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(shifts + i));
    // srlv/sllv produce 0 for shift counts >= 64, so the s == 0 lane gets
    // hi << 64 == 0 — exactly the scalar guard, without a branch.
    const __m256i value = _mm256_or_si256(
        _mm256_srlv_epi64(lo_v, s),
        _mm256_sllv_epi64(hi_v, _mm256_sub_epi64(sixty_four, s)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_and_si256(value, mask));
  }
  ExtractFieldManyScalar(lo + i, hi + i, shifts + i, field_mask, n - i,
                         out + i);
}

#endif  // SHBF_SIMD_X86

// ------------------------------------------------------------------------
// NEON bodies (baseline on AArch64, no target attribute needed)
// ------------------------------------------------------------------------

#if SHBF_SIMD_NEON

inline void MaskTestManyNeon(const uint64_t* words, const uint64_t* needs,
                             size_t n, uint8_t* out) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t w = vld1q_u64(words + i);
    const uint64x2_t need = vld1q_u64(needs + i);
    const uint64x2_t eq = vceqq_u64(vandq_u64(w, need), need);
    out[i + 0] = vgetq_lane_u64(eq, 0) != 0;
    out[i + 1] = vgetq_lane_u64(eq, 1) != 0;
  }
  MaskTestManyScalar(words + i, needs + i, n - i, out + i);
}

inline void MaskFromShiftsNeon(const uint64_t* shifts, uint64_t pattern,
                               size_t n, uint64_t* out) {
  const uint64x2_t p = vdupq_n_u64(pattern);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // vshlq_u64 left-shifts by the signed per-lane count; shifts are < 64
    // (the kernel's contract), so no lane wraps to a right shift.
    const int64x2_t s = vreinterpretq_s64_u64(vld1q_u64(shifts + i));
    vst1q_u64(out + i, vshlq_u64(p, s));
  }
  MaskFromShiftsScalar(shifts + i, pattern, n - i, out + i);
}

inline bool BlockSubsetTestNeon(const uint8_t* block, const uint64_t* mask,
                                size_t num_words) {
  size_t w = 0;
  for (; w + 2 <= num_words; w += 2) {
    const uint64x2_t b = vreinterpretq_u64_u8(vld1q_u8(block + w * 8));
    const uint64x2_t m = vld1q_u64(mask + w);
    // (~b & m) must be zero in both lanes for the subset test to pass.
    const uint64x2_t missing = vbicq_u64(m, b);
    if ((vgetq_lane_u64(missing, 0) | vgetq_lane_u64(missing, 1)) != 0) {
      return false;
    }
  }
  return BlockSubsetTestScalar(block + w * 8, mask + w, num_words - w);
}

#endif  // SHBF_SIMD_NEON

// ------------------------------------------------------------------------
// Dispatched entry points
// ------------------------------------------------------------------------

/// out[i] = (words[i] & needs[i]) == needs[i], for i < n.
inline void MaskTestMany(const uint64_t* words, const uint64_t* needs,
                         size_t n, uint8_t* out) {
  switch (ActiveLevel()) {
#if SHBF_SIMD_X86
    case Level::kAvx512:  // no 512-bit body; the AVX2 one is the widest
    case Level::kAvx2:
      MaskTestManyAvx2(words, needs, n, out);
      return;
#endif
#if SHBF_SIMD_NEON
    case Level::kNeon:
      MaskTestManyNeon(words, needs, n, out);
      return;
#endif
    default:
      MaskTestManyScalar(words, needs, n, out);
  }
}

/// True iff every bit of `mask` is set in `block`, over `num_words` words
/// starting at byte `block` (little-endian word slicing, as BitArray lays
/// bits out).
inline bool BlockSubsetTest(const uint8_t* block, const uint64_t* mask,
                            size_t num_words) {
  switch (ActiveLevel()) {
#if SHBF_SIMD_X86
    case Level::kAvx512:
      // A 512-bit block is one op; narrower blocks test faster at 256 bits.
      return num_words >= 8 ? BlockSubsetTestAvx512(block, mask, num_words)
                            : BlockSubsetTestAvx2(block, mask, num_words);
    case Level::kAvx2:
      return BlockSubsetTestAvx2(block, mask, num_words);
#endif
#if SHBF_SIMD_NEON
    case Level::kNeon:
      return BlockSubsetTestNeon(block, mask, num_words);
#endif
    default:
      return BlockSubsetTestScalar(block, mask, num_words);
  }
}

/// out[i] = ((lo[i] >> shifts[i]) | straddle from hi[i]) & field_mask —
/// the packed-counter read (PackedCounterArray::Get) across a gather.
/// Requires shifts[i] < 64. NEON has no per-lane variable 64-bit shift that
/// zeroes out-of-range counts, so AArch64 uses the scalar body.
inline void ExtractFieldMany(const uint64_t* lo, const uint64_t* hi,
                             const uint64_t* shifts, uint64_t field_mask,
                             size_t n, uint64_t* out) {
  switch (ActiveLevel()) {
#if SHBF_SIMD_X86
    case Level::kAvx512:  // no 512-bit body; the AVX2 one is the widest
    case Level::kAvx2:
      ExtractFieldManyAvx2(lo, hi, shifts, field_mask, n, out);
      return;
#endif
    default:
      ExtractFieldManyScalar(lo, hi, shifts, field_mask, n, out);
  }
}

/// out[i] = pattern << shifts[i], for i < n. Requires shifts[i] < 64 and
/// that every set bit of `pattern` stays in-word after the shift — the
/// split-block mask build, where probe i's position inside its own sub-word
/// becomes a finished mask word in one variable-shift op.
inline void MaskFromShifts(const uint64_t* shifts, uint64_t pattern,
                           size_t n, uint64_t* out) {
  switch (ActiveLevel()) {
#if SHBF_SIMD_X86
    case Level::kAvx512:
      MaskFromShiftsAvx512(shifts, pattern, n, out);
      return;
    case Level::kAvx2:
      MaskFromShiftsAvx2(shifts, pattern, n, out);
      return;
#endif
#if SHBF_SIMD_NEON
    case Level::kNeon:
      MaskFromShiftsNeon(shifts, pattern, n, out);
      return;
#endif
    default:
      MaskFromShiftsScalar(shifts, pattern, n, out);
  }
}

// ------------------------------------------------------------------------
// Frontier kernel: one body, instantiated per dispatch level so the
// level's BlockSubsetTest inlines into the loop
// ------------------------------------------------------------------------

using BlockTestFn = bool (*)(const uint8_t*, const uint64_t*, size_t);

template <BlockTestFn Test, typename Probe>
__attribute__((always_inline)) inline size_t BlockSubsetFilterBody(
    const uint8_t* bits, size_t num_blocks, size_t num_words,
    const Probe* probes, uint32_t* idx, size_t n) {
  size_t kept = 0;
  for (size_t j = 0; j < n; ++j) {
    const Probe& probe = probes[idx[j]];
    const uint8_t* block =
        bits + FastRange64(probe.h1, num_blocks) * num_words * 8;
    if (Test(block, probe.mask, num_words)) idx[kept++] = idx[j];
  }
  return kept;
}

#if SHBF_SIMD_X86
template <typename Probe>
__attribute__((target("avx2"))) size_t BlockSubsetFilterAvx2(
    const uint8_t* bits, size_t num_blocks, size_t num_words,
    const Probe* probes, uint32_t* idx, size_t n) {
  return BlockSubsetFilterBody<BlockSubsetTestAvx2>(bits, num_blocks,
                                                    num_words, probes, idx, n);
}

template <typename Probe>
__attribute__((target("avx512f"))) size_t BlockSubsetFilterAvx512(
    const uint8_t* bits, size_t num_blocks, size_t num_words,
    const Probe* probes, uint32_t* idx, size_t n) {
  return BlockSubsetFilterBody<BlockSubsetTestAvx512>(
      bits, num_blocks, num_words, probes, idx, n);
}
#endif

/// BlockSubsetTest over a frontier. `probes[r]` carries `h1` (the block is
/// FastRange64(h1, num_blocks) of `bits`, num_words words per block) and
/// `mask` (num_words words). Keeps, in order, every idx[j] whose mask is a
/// subset of its block, compacted to the front of `idx`; returns how many
/// were kept.
template <typename Probe>
inline size_t BlockSubsetFilter(const uint8_t* bits, size_t num_blocks,
                                size_t num_words, const Probe* probes,
                                uint32_t* idx, size_t n) {
  switch (ActiveLevel()) {
#if SHBF_SIMD_X86
    case Level::kAvx512:
      if (num_words >= 8) {
        return BlockSubsetFilterAvx512(bits, num_blocks, num_words, probes,
                                       idx, n);
      }
      [[fallthrough]];
    case Level::kAvx2:
      return BlockSubsetFilterAvx2(bits, num_blocks, num_words, probes, idx,
                                   n);
#endif
#if SHBF_SIMD_NEON
    case Level::kNeon:
      return BlockSubsetFilterBody<BlockSubsetTestNeon>(
          bits, num_blocks, num_words, probes, idx, n);
#endif
    default:
      return BlockSubsetFilterBody<BlockSubsetTestScalar>(
          bits, num_blocks, num_words, probes, idx, n);
  }
}

}  // namespace simd
}  // namespace shbf

#endif  // SHBF_CORE_SIMD_H_
