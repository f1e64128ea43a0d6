// Dead-zone scalar quantizer for the irreversible (9/7) path
// (ISO/IEC 15444-1 Annex E).
#pragma once

#include <cstddef>

#include "image/image.hpp"
#include "jp2k/dwt2d.hpp"
#include "jp2k/tile.hpp"

namespace cj2k::jp2k {

/// Per-subband quantization step chosen so image-domain distortion per unit
/// coefficient error is equalized: step = base_step / synthesis_gain(band).
double quant_step_for_band(double base_step, WaveletKind kind, int level,
                           SubbandOrient orient, int total_levels);

/// Quantizes a float coefficient rectangle into signed integer indices:
/// q = sign(v) * floor(|v| / step).
void quantize_row(const float* in, Sample* out, std::size_t n, double step);

/// Dequantizes with midpoint reconstruction:
/// v = sign(q) * (|q| + 0.5) * step, 0 stays 0.
void dequantize_row(const Sample* in, float* out, std::size_t n, double step);

// ---------------------------------------------------------------------------
// Q13 fixed-point flavour (paper §4 / Jasper): quantization by fixed-point
// reciprocal multiply — the 32-bit multiplies the SPE must emulate.
// ---------------------------------------------------------------------------

/// Quantizes a Q13 coefficient row: q = sign(v) * floor(|v| / step).
void quantize_fixed_row(const Sample* in_q13, Sample* out, std::size_t n,
                        double step);

/// Dequantizes into Q13 with midpoint reconstruction.
void dequantize_fixed_row(const Sample* in, Sample* out_q13, std::size_t n,
                          double step);

/// Whether the integer inverse transform of a w×h tile component — 5/3, or
/// 9/7 in Q13 for kIrreversible97 — stays inside the Sample range, with
/// room for the inverse colour transform after it, for every coefficient
/// set the component's QCD admits: band magnitudes below 2^band_numbps,
/// dequantized (Q13) with quant_step.  The decoder refuses a tile that
/// fails it; validate refuses the parameters of any encode that could
/// emit one.
bool inverse_fits(const TileComponent& tc, WaveletKind kind, std::size_t w,
                  std::size_t h, int levels);

}  // namespace cj2k::jp2k
