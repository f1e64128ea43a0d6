// Tier-1 EBCOT block coder tests: context tables, encoder/decoder
// roundtrip across sizes/orientations/content, pass structure, truncation.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "image/image.hpp"
#include "jp2k/mq_encoder.hpp"
#include "jp2k/t1_decoder.hpp"
#include "jp2k/t1_encoder.hpp"

namespace cj2k::jp2k {
namespace {

std::vector<Sample> random_block(std::size_t w, std::size_t h, int maxmag,
                                 std::uint64_t seed, int sparsity = 2) {
  Rng rng(seed);
  std::vector<Sample> v(w * h, 0);
  for (auto& x : v) {
    if (static_cast<int>(rng.next_below(static_cast<std::uint64_t>(
            sparsity))) == 0) {
      const Sample mag =
          static_cast<Sample>(rng.next_below(static_cast<std::uint64_t>(
              maxmag) + 1));
      x = rng.next_below(2) ? -mag : mag;
    }
  }
  return v;
}

void roundtrip_block(const std::vector<Sample>& coeffs, std::size_t w,
                     std::size_t h, SubbandOrient orient) {
  Span2d<const Sample> in(coeffs.data(), w, h);
  const T1EncodedBlock enc = t1_encode_block(in, orient);

  std::vector<Sample> out(w * h, -12345);
  Span2d<Sample> ov(out.data(), w, h);
  t1_decode_block(enc.data.data(), enc.data.size(), enc.num_bitplanes,
                  static_cast<int>(enc.passes.size()), orient, ov);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      ASSERT_EQ(out[y * w + x], coeffs[y * w + x])
          << "(" << x << "," << y << ") " << w << "x" << h;
    }
  }
}

TEST(T1ZcContext, CoversAllNeighborhoods) {
  for (const auto orient : {SubbandOrient::LL, SubbandOrient::HL,
                            SubbandOrient::LH, SubbandOrient::HH}) {
    for (int hn = 0; hn <= 2; ++hn) {
      for (int v = 0; v <= 2; ++v) {
        for (int d = 0; d <= 4; ++d) {
          const int c = zc_context(orient, hn, v, d);
          EXPECT_GE(c, 0);
          EXPECT_LE(c, 8);
        }
      }
    }
  }
  // The all-clear neighborhood is context 0 in every band.
  for (const auto orient : {SubbandOrient::LL, SubbandOrient::HL,
                            SubbandOrient::LH, SubbandOrient::HH}) {
    EXPECT_EQ(zc_context(orient, 0, 0, 0), 0);
  }
}

TEST(T1ZcContext, HlIsTransposedLh) {
  for (int hn = 0; hn <= 2; ++hn) {
    for (int v = 0; v <= 2; ++v) {
      for (int d = 0; d <= 4; ++d) {
        EXPECT_EQ(zc_context(SubbandOrient::HL, hn, v, d),
                  zc_context(SubbandOrient::LH, v, hn, d));
      }
    }
  }
}

TEST(T1ScContext, NegationFlipsXorBitOnly) {
  for (int hc = -1; hc <= 1; ++hc) {
    for (int vc = -1; vc <= 1; ++vc) {
      const ScLookup a = sc_lookup(hc, vc);
      const ScLookup b = sc_lookup(-hc, -vc);
      EXPECT_EQ(a.context, b.context);
      if (hc != 0 || vc != 0) {
        EXPECT_NE(a.xor_bit, b.xor_bit);
      }
      EXPECT_GE(a.context, kCtxScBase);
      EXPECT_LE(a.context, kCtxScBase + 4);
    }
  }
}

TEST(T1Roundtrip, AllZeroBlockHasNoPasses) {
  std::vector<Sample> z(64 * 64, 0);
  Span2d<const Sample> in(z.data(), 64, 64);
  const auto enc = t1_encode_block(in, SubbandOrient::LL);
  EXPECT_EQ(enc.num_bitplanes, 0);
  EXPECT_TRUE(enc.passes.empty());
  EXPECT_TRUE(enc.data.empty());
  roundtrip_block(z, 64, 64, SubbandOrient::LL);
}

TEST(T1Roundtrip, SingleCoefficient) {
  for (Sample v : {1, -1, 2, -2, 255, -255, 1 << 20, -(1 << 20)}) {
    std::vector<Sample> b(16 * 16, 0);
    b[5 * 16 + 7] = v;
    roundtrip_block(b, 16, 16, SubbandOrient::HH);
  }
}

TEST(T1Roundtrip, DenseRandom64x64) {
  for (const auto orient : {SubbandOrient::LL, SubbandOrient::HL,
                            SubbandOrient::LH, SubbandOrient::HH}) {
    roundtrip_block(random_block(64, 64, 1000, 17, 1), 64, 64, orient);
  }
}

TEST(T1Roundtrip, SparseRandom64x64) {
  roundtrip_block(random_block(64, 64, 1 << 15, 19, 8), 64, 64,
                  SubbandOrient::LH);
}

struct T1Shape {
  std::size_t w, h;
};
class T1ShapeTest : public ::testing::TestWithParam<T1Shape> {};

TEST_P(T1ShapeTest, RoundtripOddShapes) {
  const auto [w, h] = GetParam();
  roundtrip_block(random_block(w, h, 300, w * 1000 + h, 2), w, h,
                  SubbandOrient::HL);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, T1ShapeTest,
    ::testing::Values(T1Shape{1, 1}, T1Shape{1, 7}, T1Shape{7, 1},
                      T1Shape{3, 3}, T1Shape{4, 4}, T1Shape{5, 4},
                      T1Shape{4, 5}, T1Shape{13, 9}, T1Shape{32, 32},
                      T1Shape{33, 31}, T1Shape{64, 3}, T1Shape{3, 64},
                      T1Shape{64, 64}, T1Shape{17, 64}));

TEST(T1Passes, StructureFollowsTheStandard) {
  const auto b = random_block(32, 32, 500, 23, 1);
  Span2d<const Sample> in(b.data(), 32, 32);
  const auto enc = t1_encode_block(in, SubbandOrient::LL);
  ASSERT_GT(enc.num_bitplanes, 0);
  ASSERT_EQ(enc.passes.size(),
            static_cast<std::size_t>(1 + 3 * (enc.num_bitplanes - 1)));
  // First pass is a cleanup on the top plane; then SPP/MRP/CP triples.
  EXPECT_EQ(enc.passes[0].type, PassType::kCleanup);
  EXPECT_EQ(enc.passes[0].bitplane, enc.num_bitplanes - 1);
  for (std::size_t i = 1; i < enc.passes.size(); i += 3) {
    EXPECT_EQ(enc.passes[i].type, PassType::kSignificance);
    EXPECT_EQ(enc.passes[i + 1].type, PassType::kRefinement);
    EXPECT_EQ(enc.passes[i + 2].type, PassType::kCleanup);
  }
}

TEST(T1Passes, TruncationLengthsAreNonDecreasing) {
  const auto b = random_block(64, 64, 4000, 29, 1);
  Span2d<const Sample> in(b.data(), 64, 64);
  const auto enc = t1_encode_block(in, SubbandOrient::HH);
  std::size_t prev = 0;
  for (const auto& p : enc.passes) {
    EXPECT_GE(p.trunc_len, prev);
    prev = p.trunc_len;
  }
  EXPECT_LE(prev, enc.data.size());
}

TEST(T1Passes, DistortionReductionIsNonNegativeAndSums) {
  const auto b = random_block(64, 64, 4000, 31, 1);
  Span2d<const Sample> in(b.data(), 64, 64);
  const auto enc = t1_encode_block(in, SubbandOrient::LL);
  double total = 0;
  for (const auto& p : enc.passes) {
    EXPECT_GE(p.dist_reduction, 0.0) << static_cast<int>(p.type);
    total += p.dist_reduction;
  }
  // Coding everything removes all (midpoint-reconstruction) error, so the
  // summed reductions must equal the initial squared magnitude energy.
  double energy = 0;
  for (Sample v : b) energy += static_cast<double>(v) * v;
  EXPECT_NEAR(total, energy, energy * 1e-9 + 1e-6);
}

TEST(T1Truncated, FewerPassesMeansNoWorseThanNothingAndConverges) {
  const auto b = random_block(64, 64, 2000, 37, 1);
  Span2d<const Sample> in(b.data(), 64, 64);
  const auto enc = t1_encode_block(in, SubbandOrient::LL);
  const int total = static_cast<int>(enc.passes.size());

  double prev_err = 1e300;
  for (int np : {1, total / 4, total / 2, total - 1, total}) {
    if (np < 1) continue;
    std::vector<Sample> out(64 * 64, 0);
    Span2d<Sample> ov(out.data(), 64, 64);
    const std::size_t len = enc.passes[static_cast<std::size_t>(np - 1)]
                                .trunc_len;
    t1_decode_block(enc.data.data(), std::min(len, enc.data.size()),
                    enc.num_bitplanes, np, SubbandOrient::LL, ov);
    double err = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double d = static_cast<double>(out[i]) - b[i];
      err += d * d;
    }
    EXPECT_LE(err, prev_err * 1.02 + 1e-9) << "passes=" << np;
    prev_err = err;
  }
  EXPECT_EQ(prev_err, 0.0);  // full decode is exact
}

TEST(T1Symbols, CountsArePlausible) {
  const auto b = random_block(64, 64, 255, 41, 1);
  Span2d<const Sample> in(b.data(), 64, 64);
  const auto enc = t1_encode_block(in, SubbandOrient::LL);
  EXPECT_GT(enc.total_symbols, 64u * 64u);        // at least one per coeff
  EXPECT_LT(enc.total_symbols, 64u * 64u * 100u); // sane upper bound
  std::uint64_t sum = 0;
  for (const auto& p : enc.passes) sum += p.symbols;
  EXPECT_EQ(sum, enc.total_symbols);
}


struct T1OptCase {
  bool reset;
  bool causal;
};
class T1OptionsTest : public ::testing::TestWithParam<T1OptCase> {};

TEST_P(T1OptionsTest, RoundtripWithCodeBlockStyles) {
  const auto [reset, causal] = GetParam();
  T1Options opt;
  opt.reset_contexts = reset;
  opt.vertically_causal = causal;
  for (auto [w, h] : {std::pair<std::size_t, std::size_t>{64, 64},
                      {33, 31},
                      {7, 9},
                      {64, 5}}) {
    const auto b = random_block(w, h, 800, w * 131 + h, 2);
    Span2d<const Sample> in(b.data(), w, h);
    const auto enc = t1_encode_block(in, SubbandOrient::LH, opt);
    std::vector<Sample> out(w * h, -1);
    Span2d<Sample> ov(out.data(), w, h);
    t1_decode_block(enc.data.data(), enc.data.size(), enc.num_bitplanes,
                    static_cast<int>(enc.passes.size()), SubbandOrient::LH,
                    ov, opt);
    EXPECT_EQ(out, b) << w << "x" << h << " reset=" << reset
                      << " causal=" << causal;
  }
}

TEST_P(T1OptionsTest, DecisionStreamReplaysToTheCodeword) {
  const auto [reset, causal] = GetParam();
  T1Options opt;
  opt.reset_contexts = reset;
  opt.vertically_causal = causal;
  for (auto [w, h] : {std::pair<std::size_t, std::size_t>{64, 64},
                      {33, 31},
                      {1, 1},
                      {64, 5}}) {
    for (int o = 0; o < 4; ++o) {
      const auto orient = static_cast<SubbandOrient>(o);
      const auto b = random_block(w, h, 800, w * 131 + h + o, 2);
      Span2d<const Sample> in(b.data(), w, h);
      const auto enc = t1_encode_block(in, orient, opt);
      const auto stream = t1_decision_stream(in, orient, opt);
      ASSERT_EQ(stream.size(), enc.total_symbols);
      if (enc.passes.empty()) continue;

      std::vector<std::uint8_t> bytes;
      MqEncoder mq(bytes);
      T1ContextBank ctx;
      std::size_t k = 0;
      for (const PassInfo& pi : enc.passes) {
        if (reset) ctx.reset();
        for (std::uint64_t n = 0; n < pi.symbols; ++n, ++k) {
          ASSERT_LT(stream[k].context, kNumT1Contexts);
          mq.encode(ctx[stream[k].context], stream[k].bit);
        }
      }
      mq.flush();
      EXPECT_EQ(bytes, enc.data) << w << "x" << h << " orient " << o
                                 << " reset=" << reset
                                 << " causal=" << causal;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Styles, T1OptionsTest,
                         ::testing::Values(T1OptCase{false, false},
                                           T1OptCase{true, false},
                                           T1OptCase{false, true},
                                           T1OptCase{true, true}));

TEST(T1Options, MismatchedOptionsCorruptTheDecode) {
  // Decoding with the wrong style flags must NOT reproduce the input —
  // proves the flags genuinely change the coded stream.
  const auto b = random_block(64, 64, 800, 997, 1);
  Span2d<const Sample> in(b.data(), 64, 64);
  T1Options reset_on;
  reset_on.reset_contexts = true;
  const auto enc = t1_encode_block(in, SubbandOrient::LL, reset_on);
  std::vector<Sample> out(64 * 64, 0);
  Span2d<Sample> ov(out.data(), 64, 64);
  t1_decode_block(enc.data.data(), enc.data.size(), enc.num_bitplanes,
                  static_cast<int>(enc.passes.size()), SubbandOrient::LL,
                  ov, T1Options{});  // wrong: RESET off
  EXPECT_NE(out, b);
}

TEST(T1Options, ResetChangesStreamButNotMuch) {
  // On dense random content adaptation barely matters either way; the
  // contract is that RESET yields a *different* stream of comparable size.
  const auto b = random_block(64, 64, 2000, 555, 1);
  Span2d<const Sample> in(b.data(), 64, 64);
  const auto plain = t1_encode_block(in, SubbandOrient::LL);
  T1Options opt;
  opt.reset_contexts = true;
  const auto reset = t1_encode_block(in, SubbandOrient::LL, opt);
  EXPECT_NE(reset.data, plain.data);
  EXPECT_GT(reset.data.size(), plain.data.size() * 9 / 10);
  EXPECT_LT(reset.data.size(), plain.data.size() * 11 / 10);
}

}  // namespace
}  // namespace cj2k::jp2k
