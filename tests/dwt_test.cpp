// DWT tests: 1-D and 2-D roundtrips across awkward sizes, equivalence of
// the interleaved/merged formulations with the textbook multi-pass ones,
// fixed-point behavior, convolution-vs-lifting agreement, subband geometry.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "dwt_reference.hpp"
#include "common/rng.hpp"
#include "jp2k/dwt2d.hpp"
#include "jp2k/dwt97.hpp"
#include "jp2k/dwt_conv.hpp"
#include "jp2k/dwt_extend.hpp"
#include "jp2k/dwt_merged.hpp"

namespace cj2k::jp2k {
namespace {

// --- Textbook references -----------------------------------------------------
// The one-sweep-per-step formulations the fused and merged kernels are
// checked against.

/// 5/3 forward lifting as two separate sweeps (paper Algorithm 1).
void lift_two_pass(Sample* data, std::size_t n, std::size_t stride) {
  if (n < 2) return;
  const auto at = [&](std::ptrdiff_t i) -> Sample& {
    return data[mirror(i, n) * stride];
  };
  const std::ptrdiff_t sn = static_cast<std::ptrdiff_t>(n);
  for (std::ptrdiff_t i = 1; i < sn; i += 2) {
    at(i) -= (at(i - 1) + at(i + 1)) >> 1;
  }
  for (std::ptrdiff_t i = 0; i < sn; i += 2) {
    at(i) += (at(i - 1) + at(i + 1) + 2) >> 2;
  }
}

/// One 9/7 lifting sweep over the samples of one parity.
void lift_sweep(float* data, std::size_t n, std::size_t stride,
                std::ptrdiff_t parity, float c) {
  const auto at = [&](std::ptrdiff_t i) -> float& {
    return data[mirror(i, n) * stride];
  };
  for (std::ptrdiff_t i = parity; i < static_cast<std::ptrdiff_t>(n); i += 2) {
    at(i) += c * (at(i - 1) + at(i + 1));
  }
}

/// 9/7 forward lifting as four sweeps plus a scaling sweep: the naive
/// structure the paper starts from.
void lift_multi_pass(float* data, std::size_t n, std::size_t stride) {
  if (n < 2) return;
  lift_sweep(data, n, stride, 1, dwt97::kAlpha);
  lift_sweep(data, n, stride, 0, dwt97::kBeta);
  lift_sweep(data, n, stride, 1, dwt97::kGamma);
  lift_sweep(data, n, stride, 0, dwt97::kDelta);
  for (std::size_t i = 0; i < n; ++i) {
    float& x = data[i * stride];
    x = (i & 1) ? x * dwt97::kK : x * (1.0f / dwt97::kK);
  }
}

/// Deinterleaves a column group's rows: even rows on top, odd rows below.
template <typename T>
void split_rows(Span2d<T> group) {
  std::vector<T> column(group.height());
  const std::size_t nl = (group.height() + 1) / 2;
  for (std::size_t x = 0; x < group.width(); ++x) {
    for (std::size_t i = 0; i < group.height(); ++i) column[i] = group(i, x);
    for (std::size_t i = 0; i < group.height(); ++i) {
      group(i, x) = i < nl ? column[2 * i] : column[2 * (i - nl) + 1];
    }
  }
}

/// Naive vertical 9/7 analysis: six sweeps (four lifting, scaling,
/// splitting), each reading and writing every row, with the row traffic the
/// DMA ablation compares against the merged schedule.
dwt_merged::Traffic vertical_analyze_97_multipass(Span2d<float> group) {
  dwt_merged::Traffic t;
  const std::size_t n = group.height();
  if (n < 2) return t;
  for (std::size_t x = 0; x < group.width(); ++x) {
    lift_multi_pass(group.data() + x, n, group.stride());
  }
  t.rows_read = 4 * n + n + n;
  t.rows_written = 4 * (n / 2) + n + n;
  split_rows(group);
  return t;
}

/// 9/7 analysis taps derived from the lifting implementation: low tap h[k]
/// is the response of L[c] to an impulse at 2c+k (far from the boundary),
/// likewise g[k] for H[c] at 2c+1+k.
struct Taps97 {
  std::array<float, 9> low;
  std::array<float, 7> high;
};

const Taps97& taps97() {
  static const Taps97 taps = [] {
    constexpr std::size_t n = 64;
    constexpr std::size_t c = 16;  // central output index
    Taps97 t{};
    std::vector<float> sig(n), scratch(n);
    for (int k = -4; k <= 4; ++k) {
      std::fill(sig.begin(), sig.end(), 0.0f);
      sig[static_cast<std::size_t>(static_cast<int>(2 * c) + k)] = 1.0f;
      ref::analyze97(sig.data(), n, 1, scratch.data());
      t.low[static_cast<std::size_t>(k + 4)] = sig[c];
    }
    for (int k = -3; k <= 3; ++k) {
      std::fill(sig.begin(), sig.end(), 0.0f);
      sig[static_cast<std::size_t>(static_cast<int>(2 * c + 1) + k)] = 1.0f;
      ref::analyze97(sig.data(), n, 1, scratch.data());
      t.high[static_cast<std::size_t>(k + 3)] = sig[(n + 1) / 2 + c];
    }
    return t;
  }();
  return taps;
}

std::vector<Sample> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Sample> v(n);
  for (auto& x : v) x = static_cast<Sample>(rng.next_in(-255, 255));
  return v;
}

std::vector<float> random_fsignal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng.next_in(-255, 255)) +
        static_cast<float>(rng.next_double());
  }
  return v;
}

class Dwt1dLengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Dwt1dLengths, Reversible53Roundtrip) {
  const std::size_t n = GetParam();
  auto sig = random_signal(n, n * 3 + 1);
  const auto orig = sig;
  std::vector<Sample> scratch(n);
  ref::analyze53(sig.data(), n, 1, scratch.data());
  ref::synthesize53(sig.data(), n, 1, scratch.data());
  EXPECT_EQ(sig, orig) << "n=" << n;
}

TEST_P(Dwt1dLengths, Irreversible97RoundtripWithinTolerance) {
  const std::size_t n = GetParam();
  auto sig = random_fsignal(n, n * 5 + 2);
  const auto orig = sig;
  std::vector<float> scratch(n);
  ref::analyze97(sig.data(), n, 1, scratch.data());
  ref::synthesize97(sig.data(), n, 1, scratch.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sig[i], orig[i], 2e-3f) << "n=" << n << " i=" << i;
  }
}

TEST_P(Dwt1dLengths, FixedPoint97RoundtripWithinQ13Tolerance) {
  const std::size_t n = GetParam();
  auto base = random_signal(n, n * 7 + 3);
  std::vector<dwt97::Fix> sig(n), scratch(n);
  for (std::size_t i = 0; i < n; ++i) sig[i] = dwt97::fix_from_int(base[i]);
  ref::analyze97_fixed(sig.data(), n, 1, scratch.data());
  ref::synthesize97_fixed(sig.data(), n, 1, scratch.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(static_cast<double>(sig[i]) / (1 << dwt97::kFixShift),
                static_cast<double>(base[i]), 0.05)
        << "n=" << n << " i=" << i;
  }
}

TEST_P(Dwt1dLengths, StridedTransformMatchesContiguous) {
  const std::size_t n = GetParam();
  const std::size_t stride = 5;
  auto sig = random_signal(n, n + 11);
  std::vector<Sample> strided(n * stride, -777);
  for (std::size_t i = 0; i < n; ++i) strided[i * stride] = sig[i];
  std::vector<Sample> scratch(n);
  ref::analyze53(sig.data(), n, 1, scratch.data());
  ref::analyze53(strided.data(), n, stride, scratch.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(strided[i * stride], sig[i]);
  }
  // Untouched gaps stay untouched.
  for (std::size_t i = 0; i < n * stride; ++i) {
    if (i % stride != 0) {
      EXPECT_EQ(strided[i], -777);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, Dwt1dLengths,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16,
                                           17, 31, 32, 33, 63, 64, 100, 101,
                                           255, 256, 257));

TEST(Dwt53, InterleavedLiftingMatchesTwoPassBitExactly) {
  for (std::size_t n : {2u, 3u, 4u, 5u, 8u, 9u, 64u, 65u, 511u, 512u}) {
    auto a = random_signal(n, n * 13);
    auto b = a;
    lift_two_pass(a.data(), n, 1);
    ref::lift53_interleaved(b.data(), n, 1);
    EXPECT_EQ(a, b) << "n=" << n;
  }
}

TEST(Dwt97, InterleavedLiftingMatchesMultiPassBitExactly) {
  for (std::size_t n : {2u, 3u, 4u, 5u, 8u, 9u, 64u, 65u, 511u, 512u}) {
    auto a = random_fsignal(n, n * 17);
    auto b = a;
    lift_multi_pass(a.data(), n, 1);
    ref::lift97_interleaved(b.data(), n, 1);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(a[i], b[i]) << "n=" << n << " i=" << i;
    }
  }
}

// --- Merged vertical kernels ------------------------------------------------

TEST(DwtMerged, Vertical53MatchesColumnwiseAnalyze) {
  for (auto [w, h] : {std::pair<std::size_t, std::size_t>{8, 16},
                      {4, 7},
                      {12, 33},
                      {32, 64},
                      {8, 2},
                      {16, 5}}) {
    std::vector<Sample> a(w * h);
    Rng rng(w * h);
    for (auto& x : a) x = static_cast<Sample>(rng.next_in(-500, 500));
    auto b = a;

    // Reference: per-column 1-D analyze.
    std::vector<Sample> scratch(h);
    for (std::size_t x = 0; x < w; ++x) {
      ref::analyze53(a.data() + x, h, w, scratch.data());
    }
    // Merged row-wise kernel.
    std::vector<Sample> aux;
    dwt_merged::vertical_analyze_53(Span2d<Sample>(b.data(), w, h, w), aux);
    EXPECT_EQ(a, b) << w << "x" << h;
  }
}

TEST(DwtMerged, Vertical53MultipassMatchesMerged) {
  for (auto [w, h] : {std::pair<std::size_t, std::size_t>{8, 16},
                      {4, 7},
                      {12, 33}}) {
    std::vector<Sample> a(w * h);
    Rng rng(w + h * 7);
    for (auto& x : a) x = static_cast<Sample>(rng.next_in(-500, 500));
    auto b = a;
    std::vector<Sample> aux, scratch;
    const auto t_merged =
        dwt_merged::vertical_analyze_53(Span2d<Sample>(a.data(), w, h, w),
                                        aux);
    const auto t_multi = dwt_merged::vertical_analyze_53_multipass(
        Span2d<Sample>(b.data(), w, h, w), scratch);
    EXPECT_EQ(a, b);
    // The merged schedule must move materially less data.
    EXPECT_LT(t_merged.rows_read + t_merged.rows_written,
              (t_multi.rows_read + t_multi.rows_written) * 2 / 3);
  }
}

TEST(DwtMerged, Vertical97MatchesColumnwiseAnalyzeBitExactly) {
  for (auto [w, h] : {std::pair<std::size_t, std::size_t>{8, 16},
                      {4, 7},
                      {12, 33},
                      {8, 2},
                      {16, 64}}) {
    std::vector<float> a(w * h);
    Rng rng(w * 31 + h);
    for (auto& x : a) {
      x = static_cast<float>(rng.next_in(-255, 255)) +
          static_cast<float>(rng.next_double());
    }
    auto b = a;
    std::vector<float> scratch(h);
    for (std::size_t x = 0; x < w; ++x) {
      ref::analyze97(a.data() + x, h, w, scratch.data());
    }
    std::vector<float> aux;
    dwt_merged::vertical_analyze_97(Span2d<float>(b.data(), w, h, w), aux);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << w << "x" << h << " i=" << i;
    }
  }
}

TEST(DwtMerged, Vertical97TrafficDropsByFactorFour) {
  const std::size_t w = 16, h = 256;
  std::vector<float> a(w * h, 1.0f), b = a;
  std::vector<float> aux;
  const auto tm =
      dwt_merged::vertical_analyze_97(Span2d<float>(a.data(), w, h, w), aux);
  const auto tp =
      vertical_analyze_97_multipass(Span2d<float>(b.data(), w, h, w));
  EXPECT_EQ(a, b);
  const double merged = static_cast<double>(tm.rows_read + tm.rows_written);
  const double multi = static_cast<double>(tp.rows_read + tp.rows_written);
  EXPECT_GT(multi / merged, 3.0);  // paper: 6 passes collapse to ~1.5
}

// --- Convolution baseline ----------------------------------------------------

TEST(DwtConv, TapsMatchLiftingImpulseResponses) {
  const auto& low = taps97().low;
  const auto& high = taps97().high;
  // Known CDF 9/7 property: low DC gain 1 under this normalization, high
  // taps sum to 0, both symmetric.
  double lsum = 0, hsum = 0;
  for (double v : low) lsum += v;
  for (double v : high) hsum += v;
  EXPECT_NEAR(lsum, 1.0, 1e-4);
  EXPECT_NEAR(hsum, 0.0, 1e-4);
  for (int k = 0; k <= 4; ++k) EXPECT_NEAR(low[4 - k], low[4 + k], 1e-6);
  for (int k = 0; k <= 3; ++k) EXPECT_NEAR(high[3 - k], high[3 + k], 1e-6);
}

TEST(DwtConv, Analyze97AgreesWithLifting) {
  const std::size_t n = 128;
  auto a = random_fsignal(n, 71);
  auto b = a;
  std::vector<float> scratch(n);
  ref::analyze97(a.data(), n, 1, scratch.data());
  dwt_conv::analyze(b.data(), n, 1, scratch.data(), taps97().low,
                    taps97().high);
  // Interior samples agree tightly; boundaries can differ slightly in
  // extension handling order.
  for (std::size_t i = 4; i + 4 < n / 2; ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-3f) << "low " << i;
    EXPECT_NEAR(a[n / 2 + i], b[n / 2 + i], 1e-3f) << "high " << i;
  }
}

TEST(DwtConv, Analyze53AgreesWithLinearizedLifting) {
  // The 5/3 conv filters equal lifting without rounding: check on data
  // where the rounding terms vanish (multiples of 8).
  const std::size_t n = 64;
  std::vector<float> b(n);
  Rng rng(73);
  for (auto& x : b) x = static_cast<float>(rng.next_in(-31, 31) * 8);
  std::vector<Sample> a(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = static_cast<Sample>(b[i]);
  std::vector<Sample> scr_i(n);
  std::vector<float> scr_f(n);
  ref::analyze53(a.data(), n, 1, scr_i.data());
  dwt_conv::analyze53(b.data(), n, 1, scr_f.data());
  for (std::size_t i = 2; i + 2 < n / 2; ++i) {
    EXPECT_NEAR(static_cast<float>(a[i]), b[i], 1.0f) << "low " << i;
    EXPECT_NEAR(static_cast<float>(a[n / 2 + i]), b[n / 2 + i], 1.0f)
        << "high " << i;
  }
}

// --- 2-D engine ---------------------------------------------------------------

struct Geometry {
  std::size_t w, h;
  int levels;
};
class Dwt2dGeometry : public ::testing::TestWithParam<Geometry> {};

TEST_P(Dwt2dGeometry, Forward53InverseRoundtrip) {
  const auto [w, h, levels] = GetParam();
  std::vector<Sample> buf(w * h);
  Rng rng(w * h + static_cast<std::uint64_t>(levels));
  for (auto& x : buf) x = static_cast<Sample>(rng.next_in(-128, 127));
  const auto orig = buf;
  Span2d<Sample> plane(buf.data(), w, h, w);
  forward53({plane}, levels);
  inverse53({plane}, levels);
  EXPECT_EQ(buf, orig);
}

TEST_P(Dwt2dGeometry, Forward97InverseRoundtrip) {
  const auto [w, h, levels] = GetParam();
  std::vector<float> buf(w * h);
  Rng rng(w + h * 3 + static_cast<std::uint64_t>(levels));
  for (auto& x : buf) x = static_cast<float>(rng.next_in(-128, 127));
  const auto orig = buf;
  Span2d<float> plane(buf.data(), w, h, w);
  forward97({plane}, levels);
  inverse97({plane}, levels);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_NEAR(buf[i], orig[i], 0.02f) << "i=" << i;
  }
}

TEST_P(Dwt2dGeometry, SubbandLayoutTilesThePlane) {
  const auto [w, h, levels] = GetParam();
  const auto bands = subband_layout(w, h, levels);
  // Bands must be disjoint and cover exactly w*h samples.
  std::size_t area = 0;
  for (const auto& b : bands) {
    EXPECT_GT(b.w, 0u);
    EXPECT_GT(b.h, 0u);
    EXPECT_LE(b.x0 + b.w, w);
    EXPECT_LE(b.y0 + b.h, h);
    area += b.w * b.h;
    for (const auto& o : bands) {
      if (&o == &b) continue;
      const bool disjoint = b.x0 + b.w <= o.x0 || o.x0 + o.w <= b.x0 ||
                            b.y0 + b.h <= o.y0 || o.y0 + o.h <= b.y0;
      EXPECT_TRUE(disjoint);
    }
  }
  EXPECT_EQ(area, w * h);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Dwt2dGeometry,
    ::testing::Values(Geometry{64, 64, 1}, Geometry{64, 64, 5},
                      Geometry{65, 63, 3}, Geometry{100, 30, 2},
                      Geometry{31, 97, 4}, Geometry{256, 256, 5},
                      Geometry{1, 64, 2}, Geometry{64, 1, 2},
                      Geometry{7, 7, 3}));

TEST(Dwt2d, EnergyCompactionOnSmoothContent) {
  // A smooth gradient should concentrate nearly all energy in LL.
  const std::size_t n = 128;
  std::vector<float> buf(n * n);
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      buf[y * n + x] = static_cast<float>(x) * 0.5f + static_cast<float>(y);
    }
  }
  Span2d<float> plane(buf.data(), n, n, n);
  forward97({plane}, 3);
  const auto bands = subband_layout(n, n, 3);
  double ll = 0, rest = 0;
  for (const auto& b : bands) {
    double e = 0;
    for (std::size_t y = 0; y < b.h; ++y) {
      for (std::size_t x = 0; x < b.w; ++x) {
        const float v = plane(b.y0 + y, b.x0 + x);
        e += static_cast<double>(v) * v;
      }
    }
    if (b.orient == SubbandOrient::LL) {
      ll += e;
    } else {
      rest += e;
    }
  }
  EXPECT_GT(ll, rest * 100.0);
}

TEST(Dwt2d, SynthesisGainsAreSaneAndCached) {
  const double g1 = subband_synthesis_gain(WaveletKind::kIrreversible97, 1,
                                           SubbandOrient::HH, 5);
  const double g2 = subband_synthesis_gain(WaveletKind::kIrreversible97, 1,
                                           SubbandOrient::HH, 5);
  EXPECT_EQ(g1, g2);
  EXPECT_GT(g1, 0.01);
  EXPECT_LT(g1, 100.0);
  // Coarser levels have larger synthesis footprints -> larger gains for LL.
  const double ll1 = subband_synthesis_gain(WaveletKind::kIrreversible97, 1,
                                            SubbandOrient::LL, 5);
  const double ll3 = subband_synthesis_gain(WaveletKind::kIrreversible97, 3,
                                            SubbandOrient::LL, 5);
  EXPECT_GT(ll3, ll1);
}


TEST(Dwt2dFixed, Forward97FixedRoundtrip) {
  for (auto [w, h, levels] : {std::tuple<std::size_t, std::size_t, int>{
                                  64, 64, 3},
                              {65, 63, 2},
                              {128, 32, 4}}) {
    std::vector<Sample> buf(w * h);
    Rng rng(w + h);
    for (auto& x : buf) {
      x = static_cast<Sample>(rng.next_in(-128, 127)) << dwt97::kFixShift;
    }
    const auto orig = buf;
    Span2d<Sample> plane(buf.data(), w, h, w);
    forward97_fixed({plane}, levels);
    inverse97_fixed({plane}, levels);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      // Q13 rounding noise stays well under one integer unit.
      EXPECT_NEAR(static_cast<double>(buf[i]),
                  static_cast<double>(orig[i]), 512.0)
          << i;
    }
  }
}

TEST(Dwt2dFixed, TracksFloatTransformClosely) {
  const std::size_t n = 128;
  std::vector<float> f(n * n);
  std::vector<Sample> x(n * n);
  Rng rng(5);
  for (std::size_t i = 0; i < n * n; ++i) {
    const int v = static_cast<int>(rng.next_in(-128, 127));
    f[i] = static_cast<float>(v);
    x[i] = static_cast<Sample>(v) << dwt97::kFixShift;
  }
  forward97({Span2d<float>(f.data(), n, n, n)}, 3);
  forward97_fixed({Span2d<Sample>(x.data(), n, n, n)}, 3);
  double worst = 0;
  for (std::size_t i = 0; i < n * n; ++i) {
    const double fx = static_cast<double>(x[i]) / (1 << dwt97::kFixShift);
    worst = std::max(worst, std::fabs(fx - static_cast<double>(f[i])));
  }
  EXPECT_LT(worst, 0.5);  // sub-half-unit agreement across 3 levels
}

}  // namespace
}  // namespace cj2k::jp2k
