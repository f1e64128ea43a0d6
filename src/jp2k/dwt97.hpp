// Irreversible 9/7 (CDF) lifting constants, in two arithmetic flavours:
//   * single-precision float — what the paper uses on the Cell SPE, where
//     `fm` (6 cycles) beats the emulated 4-byte integer multiply
//     (mpyh+mpyu+a = 16 cycles, Table 1);
//   * Q13 fixed point — Jasper's original representation, kept for the
//     Pentium-IV comparison condition and the Table-1 bench.
//
// Convention: after analysis the low band has unit DC gain (samples are
// divided by K) and the high band is multiplied by K.
#pragma once

#include <cstdint>

namespace cj2k::jp2k::dwt97 {

inline constexpr float kAlpha = -1.586134342059924f;
inline constexpr float kBeta = -0.052980118572961f;
inline constexpr float kGamma = 0.882911075530934f;
inline constexpr float kDelta = 0.443506852043971f;
inline constexpr float kK = 1.230174104914001f;

// ---------------------------------------------------------------------------
// Q13 fixed-point flavour (Jasper-style).  Values are int32 with 13
// fractional bits; multiplies widen to 64 bits, matching what a 32-bit
// integer pipeline must emulate.
// ---------------------------------------------------------------------------

inline constexpr int kFixShift = 13;
using Fix = std::int32_t;

/// Converts integer sample -> Q13.
constexpr Fix fix_from_int(std::int32_t v) { return v << kFixShift; }
/// Converts Q13 -> nearest integer.
constexpr std::int32_t fix_round(Fix v) {
  return (v + (1 << (kFixShift - 1))) >> kFixShift;
}
/// Q13 multiply.
constexpr Fix fix_mul(Fix a, Fix b) {
  return static_cast<Fix>((static_cast<std::int64_t>(a) * b) >> kFixShift);
}

/// Q13 encoding of a lifting constant (round-half-away-from-zero).
constexpr Fix fix_const(float v) {
  return static_cast<Fix>(v * (1 << kFixShift) + (v >= 0 ? 0.5f : -0.5f));
}

// The lifting constants in Q13, shared by the host lifting core and the
// Cell SIMD kernels (both must use the exact same values for bit equality).
inline constexpr Fix kFxAlpha = fix_const(kAlpha);
inline constexpr Fix kFxBeta = fix_const(kBeta);
inline constexpr Fix kFxGamma = fix_const(kGamma);
inline constexpr Fix kFxDelta = fix_const(kDelta);
inline constexpr Fix kFxK = fix_const(kK);
inline constexpr Fix kFxInvK = fix_const(1.0f / kK);

}  // namespace cj2k::jp2k::dwt97
