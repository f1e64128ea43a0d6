// Level shift, RCT/ICT and quantizer tests.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "jp2k/mct.hpp"
#include "jp2k/quant.hpp"

namespace cj2k::jp2k {
namespace {

TEST(Rct, RoundtripIsExactForAllByteTriples) {
  // Exhaustive-ish: sweep a lattice plus random triples.
  std::vector<Sample> r, g, b;
  for (Sample rr = 0; rr < 256; rr += 15) {
    for (Sample gg = 0; gg < 256; gg += 15) {
      for (Sample bb = 0; bb < 256; bb += 15) {
        r.push_back(rr);
        g.push_back(gg);
        b.push_back(bb);
      }
    }
  }
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    r.push_back(static_cast<Sample>(rng.next_below(256)));
    g.push_back(static_cast<Sample>(rng.next_below(256)));
    b.push_back(static_cast<Sample>(rng.next_below(256)));
  }
  auto r0 = r, g0 = g, b0 = b;
  const std::size_t n = r.size();
  level_shift_row(r.data(), n, 8);
  level_shift_row(g.data(), n, 8);
  level_shift_row(b.data(), n, 8);
  rct_forward_row(r.data(), g.data(), b.data(), n);
  rct_inverse_row(r.data(), g.data(), b.data(), n);
  level_unshift_row(r.data(), n, 8);
  level_unshift_row(g.data(), n, 8);
  level_unshift_row(b.data(), n, 8);
  EXPECT_EQ(r, r0);
  EXPECT_EQ(g, g0);
  EXPECT_EQ(b, b0);
}

TEST(Rct, MergedShiftRctMatchesSeparateSteps) {
  Rng rng(4);
  const std::size_t n = 1000;
  std::vector<Sample> r(n), g(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = static_cast<Sample>(rng.next_below(256));
    g[i] = static_cast<Sample>(rng.next_below(256));
    b[i] = static_cast<Sample>(rng.next_below(256));
  }
  auto r2 = r, g2 = g, b2 = b;
  level_shift_row(r.data(), n, 8);
  level_shift_row(g.data(), n, 8);
  level_shift_row(b.data(), n, 8);
  rct_forward_row(r.data(), g.data(), b.data(), n);
  shift_rct_forward_row(r2.data(), g2.data(), b2.data(), n, 8);
  EXPECT_EQ(r, r2);
  EXPECT_EQ(g, g2);
  EXPECT_EQ(b, b2);
}

TEST(Rct, LumaApproximatesMeanAndChromaDecorrelate) {
  // Grey input: U = V = 0, Y = grey value.
  std::vector<Sample> r{100}, g{100}, b{100};
  rct_forward_row(r.data(), g.data(), b.data(), 1);
  EXPECT_EQ(r[0], 100);
  EXPECT_EQ(g[0], 0);
  EXPECT_EQ(b[0], 0);
}

TEST(Ict, RoundtripWithinOneCodeValue) {
  Rng rng(5);
  const std::size_t n = 4096;
  std::vector<Sample> r(n), g(n), b(n), r2(n), g2(n), b2(n);
  std::vector<float> y(n), cb(n), cr(n);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = static_cast<Sample>(rng.next_below(256)) - 128;
    g[i] = static_cast<Sample>(rng.next_below(256)) - 128;
    b[i] = static_cast<Sample>(rng.next_below(256)) - 128;
  }
  ict_forward_row(r.data(), g.data(), b.data(), y.data(), cb.data(),
                  cr.data(), n);
  ict_inverse_row(y.data(), cb.data(), cr.data(), r2.data(), g2.data(),
                  b2.data(), n, 8);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(r2[i] - 128, r[i], 1);
    EXPECT_NEAR(g2[i] - 128, g[i], 1);
    EXPECT_NEAR(b2[i] - 128, b[i], 1);
  }
}

// The floats a Sample holds: round_clamp's widest legal bounds.
constexpr float kSampleLo = -0x1p31f;
constexpr float kSampleHi = 0x1p31f - 128;

TEST(Ict, RoundClampMatchesLroundInRange) {
  const auto expect_lround = [](float v) {
    EXPECT_EQ(round_clamp(v, kSampleLo, kSampleHi), std::lround(v)) << v;
  };
  // Exact halves round away from zero; the largest float below one half
  // rounds to zero (floor(v + 0.5) would give 1).
  for (const float v : {0.5f, -0.5f, 1.5f, -1.5f, 2.5f, -2.5f, 0.49999997f,
                        -0.49999997f, 0.0f, -0.0f, 8388607.5f, -8388607.5f,
                        kSampleHi, kSampleLo}) {
    expect_lround(v);
  }
  // Random values over every magnitude below 2^31.
  Rng rng(0x40d);
  for (int i = 0; i < 100000; ++i) {
    const double mag = std::ldexp(rng.next_double(),
                                  static_cast<int>(rng.next_below(32)));
    const auto v = static_cast<float>(rng.next_below(2) ? mag : -mag);
    if (std::fabs(v) < 0x1p31f) expect_lround(v);
  }
}

TEST(Ict, RoundClampSaturatesOutOfRange) {
  // Past the range a value saturates to the nearer bound and NaN gives the
  // lower one; a Sample cast of lroundf would wrap or be unspecified here.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(round_clamp(3e9f, kSampleLo, kSampleHi),
            static_cast<Sample>(kSampleHi));
  EXPECT_EQ(round_clamp(-3e9f, kSampleLo, kSampleHi),
            std::numeric_limits<Sample>::min());
  EXPECT_EQ(round_clamp(inf, kSampleLo, kSampleHi),
            static_cast<Sample>(kSampleHi));
  EXPECT_EQ(round_clamp(-inf, kSampleLo, kSampleHi),
            std::numeric_limits<Sample>::min());
  EXPECT_EQ(round_clamp(nan, kSampleLo, kSampleHi),
            std::numeric_limits<Sample>::min());
  // Through the decoder's two float exits, 8-bit samples: 3e9 and inf give
  // 255, -3e9, -inf and NaN give 0.
  const std::vector<float> v{3e9f, -3e9f, inf, -inf, nan, 127.4f, -128.6f};
  const std::vector<Sample> want{255, 0, 255, 0, 0, 255, 0};
  const std::vector<float> zero(v.size(), 0.0f);
  std::vector<Sample> r(v.size()), g(v.size()), b(v.size()), u(v.size());
  ict_inverse_row(v.data(), zero.data(), zero.data(), r.data(), g.data(),
                  b.data(), v.size(), 8);
  EXPECT_EQ(r, want);
  EXPECT_EQ(g, want);
  EXPECT_EQ(b, want);
  unshift_float_row(v.data(), u.data(), v.size(), 8);
  EXPECT_EQ(u, want);
}

TEST(Ict, GreyMapsToZeroChroma) {
  std::vector<Sample> c{50};
  std::vector<float> y(1), cb(1), cr(1);
  ict_forward_row(c.data(), c.data(), c.data(), y.data(), cb.data(),
                  cr.data(), 1);
  EXPECT_NEAR(y[0], 50.0f, 1e-3f);
  EXPECT_NEAR(cb[0], 0.0f, 1e-3f);
  EXPECT_NEAR(cr[0], 0.0f, 1e-3f);
}

TEST(LevelShift, UnshiftClampsToRange) {
  std::vector<Sample> x{-500, 500, 0, -128, 127};
  level_unshift_row(x.data(), x.size(), 8);
  EXPECT_EQ(x[0], 0);
  EXPECT_EQ(x[1], 255);
  EXPECT_EQ(x[2], 128);
  EXPECT_EQ(x[3], 0);
  EXPECT_EQ(x[4], 255);
}

TEST(Quant, DeadZoneBasics) {
  const double step = 0.5;
  std::vector<float> in{0.0f, 0.49f, 0.51f, -0.51f, 1.6f, -1.6f, 100.0f};
  std::vector<Sample> q(in.size());
  quantize_row(in.data(), q.data(), in.size(), step);
  EXPECT_EQ(q[0], 0);
  EXPECT_EQ(q[1], 0);   // inside the dead zone
  EXPECT_EQ(q[2], 1);
  EXPECT_EQ(q[3], -1);
  EXPECT_EQ(q[4], 3);
  EXPECT_EQ(q[5], -3);
  EXPECT_EQ(q[6], 200);
}

TEST(Quant, DequantErrorBoundedByStep) {
  Rng rng(6);
  const double step = 0.25;
  const std::size_t n = 10000;
  std::vector<float> in(n), out(n);
  std::vector<Sample> q(n);
  for (auto& v : in) {
    v = static_cast<float>(rng.next_in(-1000, 1000)) * 0.37f;
  }
  quantize_row(in.data(), q.data(), n, step);
  dequantize_row(q.data(), out.data(), n, step);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LE(std::fabs(out[i] - in[i]), step * 1.01) << i;
    // Sign preservation.
    if (q[i] != 0) {
      EXPECT_EQ(out[i] < 0, in[i] < 0);
    }
  }
}

TEST(Quant, DequantizeMatchesSignedMidpointBitForBit) {
  // The branch-free row against the textbook form: 0 stays +0, q > 0
  // gives (q + 0.5) * s and q < 0 gives (q - 0.5) * s, bit for bit.
  Rng rng(0xde9);
  std::vector<Sample> q{0, 1, -1, std::numeric_limits<Sample>::max(),
                        std::numeric_limits<Sample>::min()};
  for (int i = 0; i < 20000; ++i) {
    const Sample m = static_cast<Sample>(
        rng.next_below(std::uint64_t{1} << rng.next_below(32)));
    q.push_back(rng.next_below(2) ? m : -m);
  }
  for (const double step : {1.0, 0.37, 1.0 / 4096, 1e-30, 3e38}) {
    std::vector<float> out(q.size());
    dequantize_row(q.data(), out.data(), q.size(), step);
    const auto s = static_cast<float>(step);
    for (std::size_t i = 0; i < q.size(); ++i) {
      const float want = q[i] == 0  ? 0.0f
                         : q[i] > 0 ? (static_cast<float>(q[i]) + 0.5f) * s
                                    : (static_cast<float>(q[i]) - 0.5f) * s;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                std::bit_cast<std::uint32_t>(want))
          << q[i] << " at step " << step;
    }
  }
}

TEST(Quant, StepForBandScalesInverselyWithGain) {
  const double base = 1.0 / 16.0;
  const double s_hh1 = quant_step_for_band(base, WaveletKind::kIrreversible97,
                                           1, SubbandOrient::HH, 5);
  const double s_ll5 = quant_step_for_band(base, WaveletKind::kIrreversible97,
                                           5, SubbandOrient::LL, 5);
  // LL at level 5 has a far larger synthesis gain than HH at level 1, so
  // its step must be far smaller.
  EXPECT_LT(s_ll5, s_hh1);
  EXPECT_GT(s_hh1, 0);
  EXPECT_THROW(quant_step_for_band(0.0, WaveletKind::kIrreversible97, 1,
                                   SubbandOrient::HH, 5),
               Error);
}


TEST(IctFixed, RoundtripWithinOneCodeValue) {
  Rng rng(7);
  const std::size_t n = 4096;
  std::vector<Sample> r(n), g(n), b(n), r2(n), g2(n), b2(n);
  std::vector<Sample> y(n), cb(n), cr(n);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = static_cast<Sample>(rng.next_below(256));
    g[i] = static_cast<Sample>(rng.next_below(256));
    b[i] = static_cast<Sample>(rng.next_below(256));
  }
  shift_ict_forward_row_fixed(r.data(), g.data(), b.data(), y.data(),
                              cb.data(), cr.data(), n, 8);
  ict_inverse_row_fixed(y.data(), cb.data(), cr.data(), r2.data(), g2.data(),
                        b2.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(r2[i] + 128, r[i], 1) << i;
    EXPECT_NEAR(g2[i] + 128, g[i], 1) << i;
    EXPECT_NEAR(b2[i] + 128, b[i], 1) << i;
  }
}

TEST(IctFixed, GreyMapsToZeroChromaExactly) {
  // The Q13 forward Y coefficients sum to exactly 8192, so grey inputs
  // produce exact luma and exactly zero chroma.
  for (Sample v : {0, 1, 50, 128, 255}) {
    std::vector<Sample> c{v}, y(1), cb(1), cr(1);
    shift_ict_forward_row_fixed(c.data(), c.data(), c.data(), y.data(),
                                cb.data(), cr.data(), 1, 8);
    EXPECT_EQ(y[0], (v - 128) << 13);
    EXPECT_EQ(cb[0], 0);
    EXPECT_EQ(cr[0], 0);
  }
}

TEST(QuantFixed, AgreesWithFloatQuantizer) {
  Rng rng(9);
  const double step = 0.37;
  const std::size_t n = 5000;
  std::vector<float> fin(n);
  std::vector<Sample> fxin(n), qf(n), qx(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(rng.next_in(-200000, 200000)) / 64.0;
    fin[i] = static_cast<float>(v);
    fxin[i] = static_cast<Sample>(v * 8192.0);
  }
  quantize_row(fin.data(), qf.data(), n, step);
  quantize_fixed_row(fxin.data(), qx.data(), n, step);
  int diffs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(qf[i] - qx[i]) > 1) ++diffs;
    EXPECT_LE(std::abs(qf[i] - qx[i]), 1) << i;  // boundary rounding only
  }
  EXPECT_LT(diffs, static_cast<int>(n / 10));
}

TEST(QuantFixed, DequantMidpointWithinHalfStep) {
  const double step = 0.25;
  std::vector<Sample> q{0, 1, -1, 7, -7, 1000, -1000};
  std::vector<Sample> out(q.size());
  dequantize_fixed_row(q.data(), out.data(), q.size(), step);
  EXPECT_EQ(out[0], 0);
  for (std::size_t i = 1; i < q.size(); ++i) {
    const double want =
        (std::abs(q[i]) + 0.5) * step * (q[i] < 0 ? -1 : 1) * 8192.0;
    EXPECT_NEAR(static_cast<double>(out[i]), want, 4.0) << i;
  }
}

}  // namespace
}  // namespace cj2k::jp2k
