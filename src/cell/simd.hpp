// Instrumented 128-bit SIMD layer — the SPE "vector ISA" the kernels are
// written against.  Every operation performs the real 4-lane arithmetic on
// the host AND increments the owning SPE's OpCounters, which the cost model
// later converts into cycles.  Loads/stores require quad-word alignment,
// exactly like the hardware.
//
// The lane loops are shared with the host scalar fallback: BasicSimd<false>
// runs the same arithmetic with the counting and the alignment rule compiled
// out (backend::HostVec on targets without SSE2/NEON).
#pragma once

#include <cstdint>
#include <cstring>

#include "cell/counters.hpp"
#include "cell/vec.hpp"
#include "common/align.hpp"
#include "common/error.hpp"

namespace cj2k::cell {

template <bool kCounting>
class BasicSimd {
 public:
  BasicSimd() requires(!kCounting) = default;
  explicit BasicSimd(OpCounters& c) requires(kCounting) : c_(&c) {}

  // --- Loads / stores (odd pipe) ------------------------------------------
  VecF4 load(const float* p) {
    check_align(p);
    charge(&OpCounters::v_load);
    VecF4 r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }
  VecI4 load(const std::int32_t* p) {
    check_align(p);
    charge(&OpCounters::v_load);
    VecI4 r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }
  void store(float* p, VecF4 v) {
    check_align(p);
    charge(&OpCounters::v_store);
    std::memcpy(p, v.lane, sizeof(v.lane));
  }
  void store(std::int32_t* p, VecI4 v) {
    check_align(p);
    charge(&OpCounters::v_store);
    std::memcpy(p, v.lane, sizeof(v.lane));
  }

  // --- Float arithmetic (even pipe) ---------------------------------------
  VecF4 add(VecF4 a, VecF4 b) {
    charge(&OpCounters::v_add);
    VecF4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = a.lane[i] + b.lane[i];
    return r;
  }
  VecF4 sub(VecF4 a, VecF4 b) {
    charge(&OpCounters::v_add);
    VecF4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = a.lane[i] - b.lane[i];
    return r;
  }
  VecF4 mul(VecF4 a, VecF4 b) {
    charge(&OpCounters::v_mul_f);
    VecF4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = a.lane[i] * b.lane[i];
    return r;
  }
  /// Fused multiply-add a*b + c — one fm-class instruction on the SPE.
  VecF4 madd(VecF4 a, VecF4 b, VecF4 c) {
    charge(&OpCounters::v_mul_f);
    VecF4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = a.lane[i] * b.lane[i] + c.lane[i];
    return r;
  }
  VecF4 splat(float v) {
    charge(&OpCounters::v_shuffle);
    return VecF4{{v, v, v, v}};
  }

  // --- Integer arithmetic --------------------------------------------------
  VecI4 add(VecI4 a, VecI4 b) {
    charge(&OpCounters::v_add);
    VecI4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = a.lane[i] + b.lane[i];
    return r;
  }
  VecI4 sub(VecI4 a, VecI4 b) {
    charge(&OpCounters::v_add);
    VecI4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = a.lane[i] - b.lane[i];
    return r;
  }
  /// Arithmetic shift right (word).
  VecI4 sra(VecI4 a, int s) {
    charge(&OpCounters::v_shift);
    VecI4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = a.lane[i] >> s;
    return r;
  }
  VecI4 sll(VecI4 a, int s) {
    charge(&OpCounters::v_shift);
    VecI4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = a.lane[i] << s;
    return r;
  }
  VecI4 splat(std::int32_t v) {
    charge(&OpCounters::v_shuffle);
    return VecI4{{v, v, v, v}};
  }
  /// 32-bit integer multiply: the SPE has no 4-byte multiply, so this is
  /// the mpyh/mpyh/mpyu/a emulation sequence — counted as such.
  VecI4 mul_emulated(VecI4 a, VecI4 b) {
    charge(&OpCounters::v_mul_i_emul);
    VecI4 r;
    for (int i = 0; i < 4; ++i) {
      r.lane[i] = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(a.lane[i]) *
          static_cast<std::uint32_t>(b.lane[i]));
    }
    return r;
  }
  /// Q13 fixed-point multiply (widening) — also emulated-integer class.
  VecI4 mul_fix_q13(VecI4 a, VecI4 b) {
    charge(&OpCounters::v_mul_i_emul);
    charge(&OpCounters::v_shift);
    VecI4 r;
    for (int i = 0; i < 4; ++i) {
      r.lane[i] = static_cast<std::int32_t>(
          (static_cast<std::int64_t>(a.lane[i]) * b.lane[i]) >> 13);
    }
    return r;
  }
  /// Dead-zone quantization by a Q16 reciprocal, sign-magnitude per lane:
  /// sign(v) * ((|v| * inv_q16) >> 29).  The 64-bit product is two emulated
  /// multiplies plus the shift; abs and the sign restore are two selects.
  VecI4 quant_q16(VecI4 v, std::int64_t inv_q16) {
    charge(&OpCounters::v_mul_i_emul, 2);
    charge(&OpCounters::v_shift);
    charge(&OpCounters::v_cmp_sel, 2);
    VecI4 r;
    for (int i = 0; i < 4; ++i) {
      const std::int64_t a = v.lane[i] < 0
                                 ? -static_cast<std::int64_t>(v.lane[i])
                                 : v.lane[i];
      const auto q = static_cast<std::int32_t>((a * inv_q16) >> 29);
      r.lane[i] = v.lane[i] < 0 ? -q : q;
    }
    return r;
  }

  // --- Conversions / select -------------------------------------------------
  VecF4 to_float(VecI4 a) {
    charge(&OpCounters::v_cvt);
    VecF4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = static_cast<float>(a.lane[i]);
    return r;
  }
  VecI4 to_int_trunc(VecF4 a) {
    charge(&OpCounters::v_cvt);
    VecI4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = static_cast<std::int32_t>(a.lane[i]);
    return r;
  }
  /// Branch-free select: mask lanes from a where cond lane < 0 else b.
  VecI4 select_neg(VecI4 cond, VecI4 a, VecI4 b) {
    charge(&OpCounters::v_cmp_sel);
    VecI4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = cond.lane[i] < 0 ? a.lane[i] : b.lane[i];
    return r;
  }
  /// Sign mask (fcmgt): -1 where the float lane is strictly negative (-0.0f
  /// excluded), else 0.
  VecI4 neg_mask(VecF4 a) {
    charge(&OpCounters::v_cmp_sel);
    VecI4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = a.lane[i] < 0 ? -1 : 0;
    return r;
  }
  VecF4 abs(VecF4 a) {
    charge(&OpCounters::v_cmp_sel);
    VecF4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = a.lane[i] < 0 ? -a.lane[i] : a.lane[i];
    return r;
  }

  // --- Shuffles -------------------------------------------------------------
  /// Even-indexed lanes of the 8-element sequence a|b: {a0, a2, b0, b2}.
  template <class Vec>
  Vec even_lanes(Vec a, Vec b) {
    charge(&OpCounters::v_shuffle);
    return Vec{{a.lane[0], a.lane[2], b.lane[0], b.lane[2]}};
  }
  /// Odd-indexed lanes of a|b: {a1, a3, b1, b3}.
  template <class Vec>
  Vec odd_lanes(Vec a, Vec b) {
    charge(&OpCounters::v_shuffle);
    return Vec{{a.lane[1], a.lane[3], b.lane[1], b.lane[3]}};
  }

  /// Loads 4 consecutive elements from an address that is only 4-byte
  /// aligned — on the SPU this is two quad-word loads plus a shuffle, and
  /// is charged as such.  Used for the x[i±1] stencil operands.
  VecF4 load_shifted(const float* p) {
    charge(&OpCounters::v_load, 2);
    charge(&OpCounters::v_shuffle);
    VecF4 r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }
  VecI4 load_shifted(const std::int32_t* p) {
    charge(&OpCounters::v_load, 2);
    charge(&OpCounters::v_shuffle);
    VecI4 r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }

  /// Local-Store to Local-Store copy with arbitrary 4-byte alignment: quad
  /// loads, realignment shuffles and quad stores.
  void ls_copy(void* dst, const void* src, std::size_t bytes) {
    std::memcpy(dst, src, bytes);
    const std::uint64_t quads = (bytes + 15) / 16;
    charge(&OpCounters::v_load, quads);
    charge(&OpCounters::v_store, quads);
    charge(&OpCounters::v_shuffle, quads);
  }

  /// Scalar integer work around the vector ops: loop bookkeeping and the
  /// per-element scalar tails.
  void scalar_ops(std::uint64_t n) { charge(&OpCounters::s_int, n); }

 private:
  void charge(std::uint64_t OpCounters::*op, std::uint64_t n = 1) {
    if constexpr (kCounting) c_->*op += n;
  }
  static void check_align(const void* p) {
    if (kCounting && !is_aligned(p, kQuadWordBytes)) {
      throw CellHardwareError("SIMD load/store requires 16-byte alignment");
    }
  }
  OpCounters* c_ = nullptr;
};

/// Per-SPE SIMD handle.  Cheap to copy; references the SPE's counters.
using Simd = BasicSimd<true>;

}  // namespace cj2k::cell
