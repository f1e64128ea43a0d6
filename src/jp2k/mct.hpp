// Level shift and inter-component transforms (ISO/IEC 15444-1 Annex G).
//
// The paper merges the level-shift and inter-component stages into one
// kernel to halve their DMA traffic; the row-wise entry points here are the
// primitives that kernel (and the serial encoder) share.
#pragma once

#include <cstddef>

#include "image/image.hpp"

namespace cj2k::jp2k {

/// Reversible color transform (RCT), used with the 5/3 wavelet.
/// In place on three rows of equal length: (R,G,B) -> (Y,U,V).
void rct_forward_row(Sample* r, Sample* g, Sample* b, std::size_t n);

/// Inverse RCT: (Y,U,V) -> (R,G,B).
void rct_inverse_row(Sample* y, Sample* u, Sample* v, std::size_t n);

/// Level shift: x -= 2^(depth-1), in place (forward).
void level_shift_row(Sample* x, std::size_t n, unsigned depth);

/// Inverse level shift with clamping to [0, 2^depth).
void level_unshift_row(Sample* x, std::size_t n, unsigned depth);

/// Irreversible color transform (ICT), float path for the 9/7 wavelet.
/// Converts level-shifted integer rows to float (Y, Cb, Cr).
void ict_forward_row(const Sample* r, const Sample* g, const Sample* b,
                     float* y, float* cb, float* cr, std::size_t n);

/// Rounds v to the nearest integer, halves away from zero, saturated to
/// [lo, hi]: v is clamped before it is converted, so a value past either
/// bound (an infinity included) gives that bound and NaN gives lo.  For
/// |v| < 2^31 the result is clamp(lroundf(v), lo, hi).  lo and hi must be
/// integral and inside [-2^31, 2^31 - 128], the floats a Sample holds.
inline Sample round_clamp(float v, float lo, float hi) {
  v = v > lo ? v : lo;  // false for NaN
  v = v < hi ? v : hi;
  const Sample t = static_cast<Sample>(v);  // truncates toward zero
  const float frac = v - static_cast<float>(t);  // exact
  return t + (frac >= 0.5f) - (frac <= -0.5f);
}

/// Inverse ICT and inverse level shift: float (Y,Cb,Cr) rows to unsigned
/// depth-bit (R,G,B) rows.  Each value is rounded (round_clamp) to
/// [-2^(depth-1), 2^(depth-1)) and then shifted up by 2^(depth-1), so
/// values outside the sample range saturate and NaN gives 0.
void ict_inverse_row(const float* y, const float* cb, const float* cr,
                     Sample* r, Sample* g, Sample* b, std::size_t n,
                     unsigned depth);

/// Inverse level shift of a float row (a component outside the colour
/// transform): out = round_clamp(x + 2^(depth-1), 0, 2^depth - 1).
void unshift_float_row(const float* x, Sample* out, std::size_t n,
                       unsigned depth);

/// Merged level-shift + RCT forward on three rows (the paper's fused
/// kernel for the lossless path).
void shift_rct_forward_row(Sample* r, Sample* g, Sample* b, std::size_t n,
                           unsigned depth);

/// Level shift to float (lossy path without the colour transform):
/// out = x - 2^(depth-1).
void shift_to_float_row(const Sample* x, float* out, std::size_t n,
                        unsigned depth);

/// Merged level-shift + ICT forward (lossy path): integer unshifted RGB
/// rows to float YCbCr rows.
void shift_ict_forward_row(const Sample* r, const Sample* g, const Sample* b,
                           float* y, float* cb, float* cr, std::size_t n,
                           unsigned depth);

// ---------------------------------------------------------------------------
// Q13 fixed-point ICT — Jasper's original "fixed point representation for
// the real numbers" (paper §4).  Outputs are Q13 (13 fractional bits).
// ---------------------------------------------------------------------------

/// Forward ICT coefficients in Q13 (the Y row sums to exactly 1.0 so grey
/// stays grey).  Shared by the scalar and the Cell SIMD kernels.
inline constexpr Sample kIctFxYr = 2449, kIctFxYg = 4809, kIctFxYb = 934;
inline constexpr Sample kIctFxBr = -1382, kIctFxBg = -2714, kIctFxBb = 4096;
inline constexpr Sample kIctFxRr = 4096, kIctFxRg = -3430, kIctFxRb = -666;

/// Merged level-shift + ICT forward, fixed point: integer RGB rows to Q13
/// YCbCr rows.
void shift_ict_forward_row_fixed(const Sample* r, const Sample* g,
                                 const Sample* b, Sample* y, Sample* cb,
                                 Sample* cr, std::size_t n, unsigned depth);

/// Inverse fixed-point ICT: Q13 (Y,Cb,Cr) -> integer (R,G,B), rounded,
/// not yet level-unshifted.  Each output depends only on the inputs at its
/// own index, so the rows may be transformed in place (r == y, g == cb,
/// b == cr).
void ict_inverse_row_fixed(const Sample* y, const Sample* cb,
                           const Sample* cr, Sample* r, Sample* g, Sample* b,
                           std::size_t n);

/// Level shift to Q13 (non-color fixed path): out = (x - 2^(depth-1)) << 13.
void shift_to_fixed_row(const Sample* x, Sample* out, std::size_t n,
                        unsigned depth);

/// Q13 -> integer sample with rounding (in may equal out).
void fixed_to_int_row(const Sample* in, Sample* out, std::size_t n);

}  // namespace cj2k::jp2k
