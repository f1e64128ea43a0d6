#include "jp2k/mct.hpp"

#include <algorithm>

namespace cj2k::jp2k {

void rct_forward_row(Sample* r, Sample* g, Sample* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const Sample rr = r[i], gg = g[i], bb = b[i];
    // Floor division by 4 (operands may be negative after level shift).
    const Sample y = (rr + 2 * gg + bb) >> 2;
    r[i] = y;
    g[i] = bb - gg;  // U
    b[i] = rr - gg;  // V
  }
}

void rct_inverse_row(Sample* y, Sample* u, Sample* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const Sample yy = y[i], uu = u[i], vv = v[i];
    const Sample g = yy - ((uu + vv) >> 2);
    y[i] = vv + g;  // R
    u[i] = g;       // G
    v[i] = uu + g;  // B
  }
}

void level_shift_row(Sample* x, std::size_t n, unsigned depth) {
  const Sample off = Sample{1} << (depth - 1);
  for (std::size_t i = 0; i < n; ++i) x[i] -= off;
}

void level_unshift_row(Sample* x, std::size_t n, unsigned depth) {
  const Sample off = Sample{1} << (depth - 1);
  const Sample hi = (Sample{1} << depth) - 1;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::clamp<Sample>(x[i] + off, 0, hi);
  }
}

void ict_forward_row(const Sample* r, const Sample* g, const Sample* b,
                     float* y, float* cb, float* cr, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float rr = static_cast<float>(r[i]);
    const float gg = static_cast<float>(g[i]);
    const float bb = static_cast<float>(b[i]);
    y[i] = 0.299f * rr + 0.587f * gg + 0.114f * bb;
    cb[i] = -0.168736f * rr - 0.331264f * gg + 0.5f * bb;
    cr[i] = 0.5f * rr - 0.418688f * gg - 0.081312f * bb;
  }
}

void ict_inverse_row(const float* y, const float* cb, const float* cr,
                     Sample* r, Sample* g, Sample* b, std::size_t n,
                     unsigned depth) {
  const Sample off = Sample{1} << (depth - 1);
  const float lo = static_cast<float>(-off);
  const float hi = static_cast<float>(off - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const float yy = y[i], u = cb[i], v = cr[i];
    r[i] = round_clamp(yy + 1.402f * v, lo, hi) + off;
    g[i] = round_clamp(yy - 0.344136f * u - 0.714136f * v, lo, hi) + off;
    b[i] = round_clamp(yy + 1.772f * u, lo, hi) + off;
  }
}

void unshift_float_row(const float* x, Sample* out, std::size_t n,
                       unsigned depth) {
  const float off = static_cast<float>(Sample{1} << (depth - 1));
  const float hi = static_cast<float>((Sample{1} << depth) - 1);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = round_clamp(x[i] + off, 0.0f, hi);
  }
}

void shift_rct_forward_row(Sample* r, Sample* g, Sample* b, std::size_t n,
                           unsigned depth) {
  const Sample off = Sample{1} << (depth - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const Sample rr = r[i] - off, gg = g[i] - off, bb = b[i] - off;
    r[i] = (rr + 2 * gg + bb) >> 2;
    g[i] = bb - gg;
    b[i] = rr - gg;
  }
}

void shift_ict_forward_row(const Sample* r, const Sample* g, const Sample* b,
                           float* y, float* cb, float* cr, std::size_t n,
                           unsigned depth) {
  const float off = static_cast<float>(Sample{1} << (depth - 1));
  for (std::size_t i = 0; i < n; ++i) {
    const float rr = static_cast<float>(r[i]) - off;
    const float gg = static_cast<float>(g[i]) - off;
    const float bb = static_cast<float>(b[i]) - off;
    y[i] = 0.299f * rr + 0.587f * gg + 0.114f * bb;
    cb[i] = -0.168736f * rr - 0.331264f * gg + 0.5f * bb;
    cr[i] = 0.5f * rr - 0.418688f * gg - 0.081312f * bb;
  }
}

namespace {

constexpr Sample kFxInvRv = 11485;   // 1.402
constexpr Sample kFxInvGu = -2819;   // -0.344136
constexpr Sample kFxInvGv = -5850;   // -0.714136
constexpr Sample kFxInvBu = 14516;   // 1.772

constexpr int kQ = 13;

inline std::int64_t fxmul(Sample a_q13, Sample b_q13) {
  return (static_cast<std::int64_t>(a_q13) * b_q13) >> kQ;
}

}  // namespace

void shift_ict_forward_row_fixed(const Sample* r, const Sample* g,
                                 const Sample* b, Sample* y, Sample* cb,
                                 Sample* cr, std::size_t n, unsigned depth) {
  const Sample off = Sample{1} << (depth - 1);
  for (std::size_t i = 0; i < n; ++i) {
    // Integer sample x Q13 coefficient = Q13 result, no shift needed.
    const Sample rr = r[i] - off, gg = g[i] - off, bb = b[i] - off;
    y[i] = kIctFxYr * rr + kIctFxYg * gg + kIctFxYb * bb;
    cb[i] = kIctFxBr * rr + kIctFxBg * gg + kIctFxBb * bb;
    cr[i] = kIctFxRr * rr + kIctFxRg * gg + kIctFxRb * bb;
  }
}

void ict_inverse_row_fixed(const Sample* y, const Sample* cb,
                           const Sample* cr, Sample* r, Sample* g, Sample* b,
                           std::size_t n) {
  // 64-bit sums: the inputs may use all of the headroom inverse_fits grants.
  constexpr std::int64_t half = std::int64_t{1} << (kQ - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t yy = y[i];
    const Sample u = cb[i], v = cr[i];
    r[i] = static_cast<Sample>((yy + fxmul(kFxInvRv, v) + half) >> kQ);
    g[i] = static_cast<Sample>(
        (yy + fxmul(kFxInvGu, u) + fxmul(kFxInvGv, v) + half) >> kQ);
    b[i] = static_cast<Sample>((yy + fxmul(kFxInvBu, u) + half) >> kQ);
  }
}

void shift_to_float_row(const Sample* x, float* out, std::size_t n,
                        unsigned depth) {
  const float off = static_cast<float>(Sample{1} << (depth - 1));
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<float>(x[i]) - off;
}

void shift_to_fixed_row(const Sample* x, Sample* out, std::size_t n,
                        unsigned depth) {
  const Sample off = Sample{1} << (depth - 1);
  for (std::size_t i = 0; i < n; ++i) out[i] = (x[i] - off) << kQ;
}

void fixed_to_int_row(const Sample* in, Sample* out, std::size_t n) {
  const Sample half = Sample{1} << (kQ - 1);
  for (std::size_t i = 0; i < n; ++i) out[i] = (in[i] + half) >> kQ;
}

}  // namespace cj2k::jp2k
