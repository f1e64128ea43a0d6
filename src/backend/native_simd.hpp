// HostVec: the uncounted host vector policy the SPE row kernels
// (cellenc/kernels.hpp) instantiate next to the counting cell::Simd.  It
// exposes cell::Simd's method names over SSE2 or NEON registers and charges
// nothing; on other targets it is cell::BasicSimd<false>, the same lane
// loops as the Cell model with the counting compiled out.
//
// Bit-exactness contract (what keeps native == cell byte-for-byte):
//  * madd(a, b, c) is a separate multiply then add — NEVER an IEEE-fused
//    FMA.  cell::Simd::madd computes a*b+c per lane in plain C++ under the
//    project-wide -ffp-contract=off, so the lowering must round the
//    intermediate product the same way.
//  * to_float / to_int_trunc use the hardware converts (cvtdq2ps/cvttps2dq,
//    vcvtq) whose round-to-nearest / truncate semantics match
//    static_cast<float>(int32) and static_cast<int32>(float) for every value
//    these kernels produce.
//  * Integer lane ops wrap mod 2^32 exactly like the model's.
//  * The Q13 widening multiply and the Q16 quantizer have no 4×32-bit
//    lowering in SSE2; they run cell::BasicSimd<false>'s lane loops.
//
// Loads/stores are unaligned (the kernels' stencil operands are only 4-byte
// aligned) and never touch memory past the requested 4 lanes; the kernels
// run scalar tails for the remainder, which is what keeps the
// padded_row_elems pad bytes unread (tests/backend_kernel_test.cpp pins this
// under ASan).
#pragma once

#include <cstdint>
#include <cstring>

#include "cell/simd.hpp"

#if defined(__SSE2__) || (defined(_M_X64) && !defined(_M_ARM64EC))
#include <emmintrin.h>
#define CJ2K_NATIVE_ISA_SSE2 1
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#define CJ2K_NATIVE_ISA_NEON 1
#endif

namespace cj2k::backend {

#if defined(CJ2K_NATIVE_ISA_SSE2) || defined(CJ2K_NATIVE_ISA_NEON)

class HostVec {
 public:
#if defined(CJ2K_NATIVE_ISA_SSE2)
  struct F4 {
    __m128 v;
  };
  struct I4 {
    __m128i v;
  };

  F4 load(const float* p) { return {_mm_loadu_ps(p)}; }
  I4 load(const std::int32_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  void store(float* p, F4 a) { _mm_storeu_ps(p, a.v); }
  void store(std::int32_t* p, I4 a) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), a.v);
  }
  F4 splat(float x) { return {_mm_set1_ps(x)}; }
  I4 splat(std::int32_t x) { return {_mm_set1_epi32(x)}; }

  F4 add(F4 a, F4 b) { return {_mm_add_ps(a.v, b.v)}; }
  F4 sub(F4 a, F4 b) { return {_mm_sub_ps(a.v, b.v)}; }
  F4 mul(F4 a, F4 b) { return {_mm_mul_ps(a.v, b.v)}; }
  F4 madd(F4 a, F4 b, F4 c) { return {_mm_add_ps(_mm_mul_ps(a.v, b.v), c.v)}; }
  /// |a| by clearing the sign bit (float magnitudes only; no NaNs here).
  F4 abs(F4 a) { return {_mm_andnot_ps(_mm_set1_ps(-0.0f), a.v)}; }

  I4 add(I4 a, I4 b) { return {_mm_add_epi32(a.v, b.v)}; }
  I4 sub(I4 a, I4 b) { return {_mm_sub_epi32(a.v, b.v)}; }
  I4 sra(I4 a, int s) { return {_mm_sra_epi32(a.v, _mm_cvtsi32_si128(s))}; }
  I4 sll(I4 a, int s) { return {_mm_sll_epi32(a.v, _mm_cvtsi32_si128(s))}; }
  /// Low 32 bits of each lane product: SSE2 has no 32-bit lane multiply,
  /// so even and odd lanes go through the 32x32->64 multiply.
  I4 mul_emulated(I4 a, I4 b) {
    const __m128i even = _mm_mul_epu32(a.v, b.v);
    const __m128i odd =
        _mm_mul_epu32(_mm_srli_si128(a.v, 4), _mm_srli_si128(b.v, 4));
    return {_mm_unpacklo_epi32(
        _mm_shuffle_epi32(even, _MM_SHUFFLE(0, 0, 2, 0)),
        _mm_shuffle_epi32(odd, _MM_SHUFFLE(0, 0, 2, 0)))};
  }

  F4 to_float(I4 a) { return {_mm_cvtepi32_ps(a.v)}; }
  I4 to_int_trunc(F4 a) { return {_mm_cvttps_epi32(a.v)}; }
  I4 select_neg(I4 cond, I4 a, I4 b) {
    const __m128i m = _mm_srai_epi32(cond.v, 31);
    return {_mm_or_si128(_mm_and_si128(m, a.v), _mm_andnot_si128(m, b.v))};
  }
  I4 neg_mask(F4 a) {
    return {_mm_castps_si128(_mm_cmplt_ps(a.v, _mm_setzero_ps()))};
  }

  F4 even_lanes(F4 a, F4 b) {
    return {_mm_shuffle_ps(a.v, b.v, _MM_SHUFFLE(2, 0, 2, 0))};
  }
  F4 odd_lanes(F4 a, F4 b) {
    return {_mm_shuffle_ps(a.v, b.v, _MM_SHUFFLE(3, 1, 3, 1))};
  }
  I4 even_lanes(I4 a, I4 b) {
    return {_mm_castps_si128(even_lanes(F4{_mm_castsi128_ps(a.v)},
                                        F4{_mm_castsi128_ps(b.v)}).v)};
  }
  I4 odd_lanes(I4 a, I4 b) {
    return {_mm_castps_si128(odd_lanes(F4{_mm_castsi128_ps(a.v)},
                                       F4{_mm_castsi128_ps(b.v)}).v)};
  }
#else  // NEON
  struct F4 {
    float32x4_t v;
  };
  struct I4 {
    int32x4_t v;
  };

  F4 load(const float* p) { return {vld1q_f32(p)}; }
  I4 load(const std::int32_t* p) { return {vld1q_s32(p)}; }
  void store(float* p, F4 a) { vst1q_f32(p, a.v); }
  void store(std::int32_t* p, I4 a) { vst1q_s32(p, a.v); }
  F4 splat(float x) { return {vdupq_n_f32(x)}; }
  I4 splat(std::int32_t x) { return {vdupq_n_s32(x)}; }

  F4 add(F4 a, F4 b) { return {vaddq_f32(a.v, b.v)}; }
  F4 sub(F4 a, F4 b) { return {vsubq_f32(a.v, b.v)}; }
  F4 mul(F4 a, F4 b) { return {vmulq_f32(a.v, b.v)}; }
  /// vmlaq_f32 may fuse on some cores, so the multiply and add stay apart.
  F4 madd(F4 a, F4 b, F4 c) { return {vaddq_f32(vmulq_f32(a.v, b.v), c.v)}; }
  F4 abs(F4 a) { return {vabsq_f32(a.v)}; }

  I4 add(I4 a, I4 b) { return {vaddq_s32(a.v, b.v)}; }
  I4 sub(I4 a, I4 b) { return {vsubq_s32(a.v, b.v)}; }
  I4 sra(I4 a, int s) { return {vshlq_s32(a.v, vdupq_n_s32(-s))}; }
  I4 sll(I4 a, int s) { return {vshlq_s32(a.v, vdupq_n_s32(s))}; }
  I4 mul_emulated(I4 a, I4 b) { return {vmulq_s32(a.v, b.v)}; }

  F4 to_float(I4 a) { return {vcvtq_f32_s32(a.v)}; }
  I4 to_int_trunc(F4 a) { return {vcvtq_s32_f32(a.v)}; }
  I4 select_neg(I4 cond, I4 a, I4 b) {
    return {vbslq_s32(vreinterpretq_u32_s32(vshrq_n_s32(cond.v, 31)), a.v,
                      b.v)};
  }
  I4 neg_mask(F4 a) {
    return {vreinterpretq_s32_u32(vcltq_f32(a.v, vdupq_n_f32(0.0f)))};
  }

  F4 even_lanes(F4 a, F4 b) { return {vuzpq_f32(a.v, b.v).val[0]}; }
  F4 odd_lanes(F4 a, F4 b) { return {vuzpq_f32(a.v, b.v).val[1]}; }
  I4 even_lanes(I4 a, I4 b) { return {vuzpq_s32(a.v, b.v).val[0]}; }
  I4 odd_lanes(I4 a, I4 b) { return {vuzpq_s32(a.v, b.v).val[1]}; }
#endif

  F4 load_shifted(const float* p) { return load(p); }
  I4 load_shifted(const std::int32_t* p) { return load(p); }
  I4 mul_fix_q13(I4 a, I4 b) {
    return load(lanes_.mul_fix_q13(to_lanes(a), to_lanes(b)).lane);
  }
  I4 quant_q16(I4 v, std::int64_t inv_q16) {
    return load(lanes_.quant_q16(to_lanes(v), inv_q16).lane);
  }
  void ls_copy(void* dst, const void* src, std::size_t bytes) {
    std::memcpy(dst, src, bytes);
  }
  void scalar_ops(std::uint64_t) {}

 private:
  cell::VecI4 to_lanes(I4 a) {
    cell::VecI4 r;
    store(r.lane, a);
    return r;
  }
  cell::BasicSimd<false> lanes_;
};

#else

using HostVec = cell::BasicSimd<false>;

#endif

}  // namespace cj2k::backend
