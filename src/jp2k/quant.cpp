#include "jp2k/quant.hpp"

#include <cmath>

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
  const float s = static_cast<float>(step);
  for (std::size_t i = 0; i < n; ++i) {
    const Sample q = in[i];
    if (q == 0) {
      out[i] = 0.0f;
    } else if (q > 0) {
      out[i] = (static_cast<float>(q) + 0.5f) * s;
    } else {
      out[i] = (static_cast<float>(q) - 0.5f) * s;
    }
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

void dequantize_fixed_row(const Sample* in, Sample* out_q13, std::size_t n,
                          double step) {
  // (|q| + 0.5) * step in Q13: step_q14 carries one extra fractional bit
  // so the half-step offset stays integral.
  const std::int64_t step_q14 =
      static_cast<std::int64_t>(step * 16384.0 + 0.5);
  for (std::size_t i = 0; i < n; ++i) {
    const Sample q = in[i];
    if (q == 0) {
      out_q13[i] = 0;
      continue;
    }
    const std::int64_t a = q < 0 ? -static_cast<std::int64_t>(q) : q;
    const std::int64_t v = ((2 * a + 1) * step_q14) >> 2;  // Q13
    out_q13[i] = static_cast<Sample>(q < 0 ? -v : v);
  }
}

bool inverse_fits(const TileComponent& tc, WaveletKind kind, std::size_t w,
                  std::size_t h, int levels) {
  const bool rev = kind == WaveletKind::kReversible53;
  std::vector<double> peaks;
  for (const Subband& sb : tc.subbands) {
    // Magnitudes below 2^Mb; Q13 dequantizes |q| to (|q| + 0.5) × step with
    // the step rounded to 14 fraction bits (dequantize_fixed_row).
    const double mag = std::ldexp(1.0, sb.band_numbps);
    peaks.push_back(rev ? mag - 1
                        : (mag - 0.5) * (sb.quant_step * 8192 + 0.25));
  }
  // The inverse RCT reaches 2.5× its inputs in 32 bits; the Q13 lifting
  // sums and inverse ICT run in 64 bits, but a lifting product
  // (the difference of two values) must fit 32.
  return inverse_peak(kind, w, h, levels, peaks) < (rev ? 0x1p29 : 0x1p30);
}

}  // namespace cj2k::jp2k
