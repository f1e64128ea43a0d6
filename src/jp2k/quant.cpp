#include "jp2k/quant.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace cj2k::jp2k {

double quant_step_for_band(double base_step, WaveletKind kind, int level,
                           SubbandOrient orient, int total_levels) {
  CJ2K_CHECK_MSG(base_step > 0, "quantizer step must be positive");
  const double gain =
      subband_synthesis_gain(kind, level, orient, total_levels);
  return base_step / gain;
}

void quantize_row(const float* in, Sample* out, std::size_t n, double step) {
  const float inv = static_cast<float>(1.0 / step);
  for (std::size_t i = 0; i < n; ++i) {
    const float v = in[i];
    const float a = std::fabs(v) * inv;
    const Sample q = static_cast<Sample>(a);  // trunc == floor for a >= 0
    out[i] = v < 0 ? -q : q;
  }
}

void dequantize_row(const Sample* in, float* out, std::size_t n,
                    double step) {
  // (|q| + 0.5) * s, its sign bit set from q's and all bits cleared for
  // q == 0.  Rounding is symmetric, so a negative q gives exactly the
  // negation of (|q| + 0.5) * s, as (q - 0.5) * s does.
  const float s = static_cast<float>(step);
  for (std::size_t i = 0; i < n; ++i) {
    const auto q = static_cast<std::uint32_t>(in[i]);
    const std::uint32_t neg = 0u - (q >> 31);
    const float m = (static_cast<float>((q ^ neg) - neg) + 0.5f) * s;
    const std::uint32_t keep = 0u - static_cast<std::uint32_t>(q != 0);
    out[i] = std::bit_cast<float>(
        (std::bit_cast<std::uint32_t>(m) | (neg & 0x80000000u)) & keep);
  }
}

void quantize_fixed_row(const Sample* in_q13, Sample* out, std::size_t n,
                        double step) {
  // Reciprocal in Q16 against the Q13 input: q = v_q13 * inv >> 29.
  CJ2K_CHECK_MSG(step > 0, "quantizer step must be positive");
  const std::int64_t inv =
      static_cast<std::int64_t>((65536.0 / step) + 0.5);
  for (std::size_t i = 0; i < n; ++i) {
    const Sample v = in_q13[i];
    const std::int64_t a = v < 0 ? -static_cast<std::int64_t>(v) : v;
    const Sample q = static_cast<Sample>((a * inv) >> 29);
    out[i] = v < 0 ? -q : q;
  }
}

namespace {

/// Fraction bits of the band step in dequantize_fixed_row.  The smallest
/// band step validate admits is about 2^-24 (0 levels: below it the
/// indices of 8-bit Q13 coefficients need more than Tier-1's 31 bit
/// planes, which inverse_fits refuses), where 44 bits still carry the step
/// to within 2^-21 of itself; at 14 bits a 7-level LL step (~2^-12) was
/// off by up to 9%.  The product stays below 2^62: inverse_fits admits a
/// band only while (2|q| + 1) * step * 2^13 < 2^31.
constexpr int kStepFracBits = 44;

}  // namespace

void dequantize_fixed_row(const Sample* in, Sample* out_q13, std::size_t n,
                          double step) {
  // (|q| + 0.5) * step in Q13 as (2|q| + 1) * step / 2 in Q13: one extra
  // fraction bit keeps the half-step offset integral.
  const auto step_fx =
      static_cast<std::int64_t>(std::ldexp(step, kStepFracBits) + 0.5);
  for (std::size_t i = 0; i < n; ++i) {
    const Sample q = in[i];
    if (q == 0) {
      out_q13[i] = 0;
      continue;
    }
    const std::int64_t a = q < 0 ? -static_cast<std::int64_t>(q) : q;
    const std::int64_t v = ((2 * a + 1) * step_fx) >> (kStepFracBits - 12);
    out_q13[i] = static_cast<Sample>(q < 0 ? -v : v);
  }
}

bool inverse_fits(const TileComponent& tc, WaveletKind kind, std::size_t w,
                  std::size_t h, int levels) {
  const bool rev = kind == WaveletKind::kReversible53;
  std::vector<double> peaks;
  for (const Subband& sb : tc.subbands) {
    // Magnitudes below 2^Mb, and Mb within a Sample's 31 magnitude bits;
    // Q13 dequantizes |q| to (|q| + 0.5) × step with the step rounded to
    // kStepFracBits fraction bits (dequantize_fixed_row).
    if (sb.band_numbps > 31) return false;
    const double mag = std::ldexp(1.0, sb.band_numbps);
    peaks.push_back(
        rev ? mag - 1
            : (mag - 0.5) * (sb.quant_step * 8192 +
                             std::ldexp(1.0, 12 - kStepFracBits)));
  }
  // The inverse RCT reaches 2.5× its inputs in 32 bits; the Q13 lifting
  // sums and inverse ICT run in 64 bits, but a lifting product
  // (the difference of two values) must fit 32.
  return inverse_peak(kind, w, h, levels, peaks) < (rev ? 0x1p29 : 0x1p30);
}

}  // namespace cj2k::jp2k
