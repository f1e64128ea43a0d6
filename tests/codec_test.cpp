// End-to-end codec tests: lossless bit-exactness through the real
// codestream, lossy fidelity, rate accuracy, parameter sweeps, and
// malformed-stream rejection.
#include <gtest/gtest.h>

#include "image/metrics.hpp"
#include "image/synth.hpp"
#include "jp2k/decoder.hpp"
#include "jp2k/encoder.hpp"

namespace cj2k::jp2k {
namespace {

struct LosslessCase {
  std::size_t w, h, comps;
  int levels;
  std::size_t cb;
  bool mct;
};

class LosslessSweep : public ::testing::TestWithParam<LosslessCase> {};

TEST_P(LosslessSweep, RoundtripIsBitExact) {
  const auto [w, h, comps, levels, cb, mct] = GetParam();
  const Image img = synth::photographic(w, h, comps, w * h);
  CodingParams p;
  p.wavelet = WaveletKind::kReversible53;
  p.levels = levels;
  p.cb_width = cb;
  p.cb_height = cb;
  p.mct = mct;
  const auto stream = encode(img, p);
  const Image back = decode(stream);
  EXPECT_TRUE(metrics::identical(img, back))
      << w << "x" << h << "x" << comps << " L" << levels << " cb" << cb;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LosslessSweep,
    ::testing::Values(LosslessCase{64, 64, 1, 1, 64, false},
                      LosslessCase{64, 64, 3, 5, 64, true},
                      LosslessCase{128, 96, 3, 5, 64, true},
                      LosslessCase{97, 61, 3, 3, 32, true},
                      LosslessCase{256, 256, 1, 5, 64, false},
                      LosslessCase{33, 47, 3, 2, 16, true},
                      LosslessCase{200, 10, 1, 2, 64, false},
                      LosslessCase{10, 200, 1, 2, 64, false},
                      LosslessCase{64, 64, 3, 0, 64, true},
                      LosslessCase{65, 65, 3, 5, 64, true}));

TEST(Lossless, AdversarialContent) {
  CodingParams p;
  p.wavelet = WaveletKind::kReversible53;
  p.levels = 4;
  for (const Image& img :
       {synth::noise(96, 96, 3, 5), synth::checkerboard(96, 96, 1),
        synth::checkerboard(96, 96, 7), synth::gradient(96, 96, 3),
        synth::skewed(96, 96, 6)}) {
    p.mct = img.components() == 3;
    const auto stream = encode(img, p);
    EXPECT_TRUE(metrics::identical(img, decode(stream)));
  }
}

TEST(Lossless, CompressesNaturalContent) {
  const Image img = synth::photographic(512, 512, 3, 77);
  CodingParams p;
  p.wavelet = WaveletKind::kReversible53;
  const auto stream = encode(img, p);
  // Natural content must compress; noise must not (much).
  EXPECT_LT(stream.size(), img.raw_bytes());
  const Image noise = synth::noise(256, 256, 1, 5);
  p.mct = false;
  const auto nstream = encode(noise, p);
  EXPECT_GT(nstream.size(), noise.raw_bytes() * 95 / 100);
}

TEST(Lossy, HighQualityRoundtrip) {
  const Image img = synth::photographic(256, 256, 3, 123);
  CodingParams p;
  p.wavelet = WaveletKind::kIrreversible97;
  p.levels = 5;
  const auto stream = encode(img, p);
  const Image back = decode(stream);
  EXPECT_GT(metrics::psnr(img, back), 40.0);
}

TEST(Lossy, RateDistortionLadder) {
  const Image img = synth::photographic(256, 256, 3, 321);
  CodingParams p;
  p.wavelet = WaveletKind::kIrreversible97;
  double prev_psnr = 0.0;
  for (double rate : {0.05, 0.1, 0.25, 0.5}) {
    p.rate = rate;
    const auto stream = encode(img, p);
    // Rate adherence: within the budget, and using most of it.
    const double budget = rate * static_cast<double>(img.raw_bytes());
    EXPECT_LE(static_cast<double>(stream.size()), budget * 1.02) << rate;
    EXPECT_GE(static_cast<double>(stream.size()), budget * 0.5) << rate;
    const double psnr = metrics::psnr(img, decode(stream));
    EXPECT_GT(psnr, prev_psnr) << rate;  // more bits, better quality
    prev_psnr = psnr;
  }
  EXPECT_GT(prev_psnr, 30.0);
}

TEST(Lossy, GreyImage) {
  const Image img = synth::photographic(128, 128, 1, 9);
  CodingParams p;
  p.wavelet = WaveletKind::kIrreversible97;
  p.mct = false;
  p.rate = 0.2;
  const Image back = decode(encode(img, p));
  EXPECT_GT(metrics::psnr(img, back), 28.0);
}

TEST(Codec, StatsAreFilled) {
  const Image img = synth::photographic(128, 128, 3, 2);
  CodingParams p;
  EncodeStats stats;
  encode(img, p, &stats);
  EXPECT_EQ(stats.samples, img.total_samples());
  EXPECT_GT(stats.t1_symbols, stats.samples / 2);
  EXPECT_GT(stats.t1_passes, 0u);
  EXPECT_GT(stats.total_seconds, 0.0);
}

TEST(Codec, SixteenBitDepth) {
  Image img(64, 64, 1, 12);
  for (std::size_t y = 0; y < 64; ++y) {
    for (std::size_t x = 0; x < 64; ++x) {
      img.plane(0).at(y, x) = static_cast<Sample>((x * 61 + y * 37) % 4096);
    }
  }
  CodingParams p;
  p.wavelet = WaveletKind::kReversible53;
  p.mct = false;
  EXPECT_TRUE(metrics::identical(img, decode(encode(img, p))));
}

TEST(Codec, RejectsMalformedStreams) {
  const Image img = synth::photographic(64, 64, 1, 3);
  CodingParams p;
  p.mct = false;
  auto stream = encode(img, p);

  // Truncated stream.
  auto cut = stream;
  cut.resize(cut.size() / 3);
  EXPECT_THROW(decode(cut), Error);

  // Clobbered SOC.
  auto bad = stream;
  bad[0] = 0;
  EXPECT_THROW(decode(bad), CodestreamError);

  // Garbage after the SIZ length field.
  auto garbage = stream;
  for (std::size_t i = 8; i < std::min<std::size_t>(garbage.size(), 24); ++i) {
    garbage[i] = 0xEE;
  }
  EXPECT_THROW(decode(garbage), Error);

  EXPECT_THROW(decode(std::vector<std::uint8_t>{}), Error);
  EXPECT_THROW(decode(std::vector<std::uint8_t>{0xFF}), Error);
}

TEST(Codec, InvalidParamsAreRejected) {
  const Image img = synth::photographic(32, 32, 1, 4);
  CodingParams p;
  p.mct = false;
  p.levels = 40;
  EXPECT_THROW(encode(img, p), InvalidArgument);
  p.levels = 5;
  p.cb_width = 2048;
  EXPECT_THROW(encode(img, p), InvalidArgument);
  p.cb_width = 2;
  EXPECT_THROW(encode(img, p), InvalidArgument);
}


TEST(Codec, DeepDecompositionsRoundTrip) {
  // validate admits up to 32 levels, as the standard does.  Past log2 of
  // the image size the transform stops but the bands keep their nominal
  // levels, so the synthesis gains the quantizer and rate control read
  // must be defined there too.
  const Image img = synth::photographic(600, 500, 3, 7);
  for (const int kind : {0, 1, 2}) {
    for (const int levels : {8, 9, 12, 32}) {
      SCOPED_TRACE(testing::Message() << "kind " << kind << ", " << levels
                                      << " levels");
      CodingParams p;
      p.wavelet = kind == 0 ? WaveletKind::kReversible53
                            : WaveletKind::kIrreversible97;
      p.fixed_point_97 = kind == 2;
      p.levels = levels;
      p.rate = 0.1;
      const auto bytes = encode(img, p);
      EXPECT_LE(bytes.size(), img.raw_bytes() / 10);
      EXPECT_GT(metrics::psnr(img, decode(bytes)), 30.0);
    }
  }
}


TEST(Codec, CodeBlockStyleFlagsRoundtripThroughTheStream) {
  const Image img = synth::photographic(96, 96, 3, 19);
  for (const bool reset : {false, true}) {
    for (const bool causal : {false, true}) {
      CodingParams p;
      p.t1.reset_contexts = reset;
      p.t1.vertically_causal = causal;
      const auto stream = encode(img, p);
      EXPECT_TRUE(metrics::identical(img, decode(stream)))
          << "reset=" << reset << " causal=" << causal;
    }
  }
}

TEST(Codec, StyleFlagsProduceDistinctStreams) {
  const Image img = synth::photographic(96, 96, 1, 21);
  CodingParams plain;
  plain.mct = false;
  CodingParams vsc = plain;
  vsc.t1.vertically_causal = true;
  EXPECT_NE(encode(img, plain), encode(img, vsc));
}


TEST(LossyFixed, FixedPointPipelineRoundtrips) {
  const Image img = synth::photographic(192, 160, 3, 23);
  CodingParams p;
  p.wavelet = WaveletKind::kIrreversible97;
  p.fixed_point_97 = true;
  const auto stream = encode(img, p);
  const Image back = decode(stream);
  EXPECT_GT(metrics::psnr(img, back), 38.0);
}

TEST(LossyFixed, FixedAndFloatAgreeClosely) {
  // Q13 arithmetic tracks the float path to within quantizer noise: both
  // decodes should be close to each other and to the original.
  const Image img = synth::photographic(160, 160, 3, 29);
  CodingParams pf;
  pf.wavelet = WaveletKind::kIrreversible97;
  CodingParams px = pf;
  px.fixed_point_97 = true;
  const Image back_f = decode(encode(img, pf));
  const Image back_x = decode(encode(img, px));
  EXPECT_GT(metrics::psnr(back_f, back_x), 35.0);
  EXPECT_NE(encode(img, pf), encode(img, px));  // genuinely different math
}

TEST(LossyFixed, EveryPassKeptTracksFloatAtEveryLevelCount) {
  // With every pass kept, Q13 and float decode the same indices up to the
  // two quantizers' boundary rounding: their PSNRs against the source stay
  // within 0.1 dB, and at the default base step, where the float path is
  // exact, Q13 is exact too.  The dequantizer carries each band step at 44
  // fraction bits; at 14, the 7-level LL step (~2^-12) was 9% off and the
  // default-step decode lost over 30 dB.
  const Image img = synth::photographic(256, 224, 3, 37);
  for (const double base : {1.0 / 16, 1.0}) {
    for (int levels = 3; levels <= 7; ++levels) {
      CodingParams pf;
      pf.wavelet = WaveletKind::kIrreversible97;
      pf.levels = levels;
      pf.base_quant_step = base;
      CodingParams px = pf;
      px.fixed_point_97 = true;
      const double psnr_f = metrics::psnr(img, decode(encode(img, pf)));
      const double psnr_x = metrics::psnr(img, decode(encode(img, px)));
      EXPECT_GE(psnr_x, psnr_f - 0.1)
          << levels << " levels, base step " << base;
    }
  }
}

TEST(LossyFixed, RateControlWorksInFixedPoint) {
  const Image img = synth::photographic(256, 256, 1, 31);
  CodingParams p;
  p.wavelet = WaveletKind::kIrreversible97;
  p.fixed_point_97 = true;
  p.mct = false;
  p.rate = 0.15;
  const auto stream = encode(img, p);
  EXPECT_LE(static_cast<double>(stream.size()),
            0.15 * static_cast<double>(img.raw_bytes()) * 1.02);
  EXPECT_GT(metrics::psnr(img, decode(stream)), 28.0);
}


TEST(Layers, LosslessMultiLayerStaysBitExact) {
  const Image img = synth::photographic(128, 128, 3, 41);
  for (int layers : {2, 4, 8}) {
    CodingParams p;
    p.layers = layers;
    const auto stream = encode(img, p);
    EXPECT_TRUE(metrics::identical(img, decode(stream))) << layers;
  }
}

TEST(Layers, ProgressiveDecodeImprovesMonotonically) {
  const Image img = synth::photographic(256, 256, 3, 43);
  CodingParams p;
  p.wavelet = WaveletKind::kIrreversible97;
  p.rate = 0.5;
  p.layers = 5;
  const auto stream = encode(img, p);
  double prev = 0.0;
  for (int l = 1; l <= 5; ++l) {
    const double psnr = metrics::psnr(img, decode(stream, l));
    EXPECT_GE(psnr, prev - 0.01) << "layer " << l;
    prev = psnr;
  }
  // Early layers are usable, the last is near the single-layer quality.
  EXPECT_GT(metrics::psnr(img, decode(stream, 1)), 20.0);
  EXPECT_GT(prev, 35.0);
}

TEST(Layers, EachLayerAddsBytesAndQuality) {
  const Image img = synth::photographic(192, 192, 1, 47);
  CodingParams p;
  p.wavelet = WaveletKind::kIrreversible97;
  p.mct = false;
  p.rate = 0.4;
  p.layers = 4;
  const auto stream = encode(img, p);
  const double q1 = metrics::psnr(img, decode(stream, 1));
  const double q4 = metrics::psnr(img, decode(stream, 4));
  EXPECT_GT(q4, q1 + 3.0);  // later layers matter
}

TEST(Layers, MultiLayerRespectsFinalRateBudget) {
  const Image img = synth::photographic(256, 256, 3, 53);
  CodingParams p;
  p.wavelet = WaveletKind::kIrreversible97;
  p.rate = 0.2;
  p.layers = 3;
  const auto stream = encode(img, p);
  EXPECT_LE(static_cast<double>(stream.size()),
            0.2 * static_cast<double>(img.raw_bytes()) * 1.02);
}

TEST(Layers, SingleAndMultiLayerLosslessDecodeIdentically) {
  const Image img = synth::photographic(96, 96, 3, 59);
  CodingParams p1, p3;
  p3.layers = 3;
  const Image a = decode(encode(img, p1));
  const Image b = decode(encode(img, p3));
  EXPECT_TRUE(metrics::identical(a, b));
}


TEST(Progression, RlcpRoundtripsLosslessAndLossy) {
  const Image img = synth::photographic(128, 96, 3, 61);
  CodingParams p;
  p.progression = Progression::kRLCP;
  EXPECT_TRUE(metrics::identical(img, decode(encode(img, p))));

  p.wavelet = WaveletKind::kIrreversible97;
  p.rate = 0.3;
  p.layers = 3;
  EXPECT_GT(metrics::psnr(img, decode(encode(img, p))), 30.0);
}

TEST(Progression, OrdersProduceDifferentStreamsSameImage) {
  const Image img = synth::photographic(128, 128, 3, 63);
  CodingParams lrcp, rlcp;
  lrcp.layers = rlcp.layers = 3;
  rlcp.progression = Progression::kRLCP;
  const auto a = encode(img, lrcp);
  const auto b = encode(img, rlcp);
  EXPECT_NE(a, b);  // packets are permuted
  EXPECT_TRUE(metrics::identical(decode(a), decode(b)));
}

TEST(Progression, LayerTruncationRequiresLrcp) {
  const Image img = synth::photographic(64, 64, 1, 65);
  CodingParams p;
  p.mct = false;
  p.layers = 2;
  p.progression = Progression::kRLCP;
  const auto stream = encode(img, p);
  EXPECT_THROW((void)decode(stream, 1), InvalidArgument);
  EXPECT_TRUE(metrics::identical(img, decode(stream)));
}

}  // namespace
}  // namespace cj2k::jp2k
