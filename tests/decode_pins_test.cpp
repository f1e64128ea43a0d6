// Decode pins: SHA-256 digests of jp2k::decode output over a fixed set of
// codestreams, captured from the single-threaded decoder.  The decoder's
// host parallelism (DESIGN.md §15) must reproduce every one of them bit for
// bit, whatever the core count — perfbench's decode check compares against
// a reference made by the same decoder, so only these pins catch a drift
// that is consistent across calls.
//
// The streams cover each decode path: every golden case, 9/7 with three
// layers decoded in full and at one layer, RLCP, HT, Q13 fixed point, a
// 2×2 tiled stream, code blocks at both ends of the legal range
// (1024×1024, 4×4), and float 9/7 streams of one and of four components,
// whose components outside the colour transform take the decoder's
// per-sample rounding path.
//
// The decoder allocates its planes without zeroing them (DESIGN.md §15),
// so two invariants ride along: every path returns zero row padding, and
// the subbands' code-block grids cover each sample of a plane exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "image/synth.hpp"
#include "jp2k/decoder.hpp"
#include "jp2k/dwt2d.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/tile.hpp"

namespace cj2k {
namespace {

/// Digest over the geometry and every sample (int32, host byte order).
std::string image_digest(const Image& img) {
  std::vector<std::uint8_t> bytes;
  const std::uint64_t head[4] = {img.width(), img.height(), img.components(),
                                 img.bit_depth()};
  bytes.insert(bytes.end(), reinterpret_cast<const std::uint8_t*>(head),
               reinterpret_cast<const std::uint8_t*>(head) + sizeof head);
  for (std::size_t c = 0; c < img.components(); ++c) {
    for (std::size_t y = 0; y < img.height(); ++y) {
      const auto* row =
          reinterpret_cast<const std::uint8_t*>(img.plane(c).row(y));
      bytes.insert(bytes.end(), row, row + img.width() * sizeof(Sample));
    }
  }
  return common::sha256_hex(bytes);
}

struct DecodePin {
  const char* name;
  Image (*image)();
  jp2k::CodingParams (*params)();
  int max_layers;
  const char* digest;
};

// The golden workload (tests/golden_test.cpp): 96×80 RGB, 3 levels.
Image golden_image() { return synth::photographic(96, 80, 3, 2024); }
Image photo_rgb() { return synth::photographic(200, 168, 3, 77); }
Image photo_grey_wide() { return synth::photographic(1030, 70, 1, 5); }
Image photo_grey() { return synth::photographic(200, 168, 1, 78); }
/// RGB plus a fourth component (a grey photo of its own), which the
/// colour transform leaves alone.
Image photo_rgba() {
  Image img(200, 168, 4, 8);
  const Image rgb = synth::photographic(200, 168, 3, 79);
  const Image grey = synth::photographic(200, 168, 1, 80);
  for (std::size_t c = 0; c < 4; ++c) {
    const Plane& src = c < 3 ? rgb.plane(c) : grey.plane(0);
    for (std::size_t y = 0; y < img.height(); ++y) {
      std::copy(src.row(y), src.row(y) + img.width(), img.plane(c).row(y));
    }
  }
  return img;
}

jp2k::CodingParams golden_base(std::size_t tiles, jp2k::BlockCoder coder) {
  jp2k::CodingParams p;
  p.levels = 3;
  p.tiles_x = tiles;
  p.tiles_y = tiles;
  p.block_coder = coder;
  return p;
}
jp2k::CodingParams golden_lossy(std::size_t tiles, jp2k::BlockCoder coder) {
  jp2k::CodingParams p = golden_base(tiles, coder);
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.rate = 0.25;
  if (coder == jp2k::BlockCoder::kEbcot) {
    p.layers = 2;
    p.progression = jp2k::Progression::kRLCP;
  }
  return p;
}

jp2k::CodingParams lossless_1x1() {
  return golden_base(1, jp2k::BlockCoder::kEbcot);
}
jp2k::CodingParams lossless_2x2() {
  return golden_base(2, jp2k::BlockCoder::kEbcot);
}
jp2k::CodingParams lossy_1x1() {
  return golden_lossy(1, jp2k::BlockCoder::kEbcot);
}
jp2k::CodingParams lossy_2x2() {
  return golden_lossy(2, jp2k::BlockCoder::kEbcot);
}
jp2k::CodingParams ht_lossless_1x1() {
  return golden_base(1, jp2k::BlockCoder::kHt);
}
jp2k::CodingParams ht_lossless_2x2() {
  return golden_base(2, jp2k::BlockCoder::kHt);
}
jp2k::CodingParams ht_lossy_1x1() {
  return golden_lossy(1, jp2k::BlockCoder::kHt);
}
jp2k::CodingParams ht_lossy_2x2() {
  return golden_lossy(2, jp2k::BlockCoder::kHt);
}

jp2k::CodingParams lossy97_3layers() {
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.levels = 4;
  p.cb_width = 32;
  p.cb_height = 32;
  p.rate = 0.3;
  p.layers = 3;
  return p;
}
jp2k::CodingParams rlcp_lossless() {
  jp2k::CodingParams p;
  p.levels = 4;
  p.cb_width = 32;
  p.cb_height = 16;
  p.layers = 2;
  p.progression = jp2k::Progression::kRLCP;
  return p;
}
jp2k::CodingParams ht_lossless() {
  jp2k::CodingParams p;
  p.levels = 4;
  p.cb_width = 32;
  p.cb_height = 32;
  p.block_coder = jp2k::BlockCoder::kHt;
  return p;
}
jp2k::CodingParams ht_lossy() {
  jp2k::CodingParams p = ht_lossless();
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.rate = 0.2;
  return p;
}
jp2k::CodingParams fixed97() {
  jp2k::CodingParams p = lossy97_3layers();
  p.fixed_point_97 = true;
  p.layers = 2;
  return p;
}
jp2k::CodingParams tiled97_2x2() {
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.levels = 3;
  p.cb_width = 32;
  p.cb_height = 32;
  p.rate = 0.25;
  p.tiles_x = 2;
  p.tiles_y = 2;
  return p;
}
jp2k::CodingParams lossy97() {
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.levels = 4;
  p.cb_width = 32;
  p.cb_height = 32;
  p.rate = 0.5;
  return p;
}
jp2k::CodingParams cb1024_level0() {
  jp2k::CodingParams p;
  p.levels = 0;
  p.cb_width = 1024;
  p.cb_height = 1024;
  return p;
}
jp2k::CodingParams cb1024_97() {
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.levels = 2;
  p.cb_width = 1024;
  p.cb_height = 1024;
  p.rate = 0.4;
  return p;
}
jp2k::CodingParams cb4x4() {
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.levels = 3;
  p.cb_width = 4;
  p.cb_height = 4;
  p.rate = 0.5;
  p.layers = 2;
  return p;
}

const DecodePin kPins[] = {
    {"golden_lossless_1x1", golden_image, lossless_1x1, 0,
     "e27476a64c6abe274ba6af6fe6cb2837ffe26ed08be1f1ef0e4e37e96553fbf9"},
    {"golden_lossless_2x2", golden_image, lossless_2x2, 0,
     "e27476a64c6abe274ba6af6fe6cb2837ffe26ed08be1f1ef0e4e37e96553fbf9"},
    {"golden_lossy_1x1", golden_image, lossy_1x1, 0,
     "57b48c89dbbd16c3edf90eca91c513278c40484e57381dbf58e1bd4224ffc08f"},
    {"golden_lossy_2x2", golden_image, lossy_2x2, 0,
     "2a5f3df0a82ff87f9101efcc6f025650062eda11971e5b5794606e117909173e"},
    {"golden_ht_lossless_1x1", golden_image, ht_lossless_1x1, 0,
     "e27476a64c6abe274ba6af6fe6cb2837ffe26ed08be1f1ef0e4e37e96553fbf9"},
    {"golden_ht_lossless_2x2", golden_image, ht_lossless_2x2, 0,
     "e27476a64c6abe274ba6af6fe6cb2837ffe26ed08be1f1ef0e4e37e96553fbf9"},
    {"golden_ht_lossy_1x1", golden_image, ht_lossy_1x1, 0,
     "c046c1a9902d4a0193827948760e0e781b7930f130345ae00c2650eb1447e455"},
    {"golden_ht_lossy_2x2", golden_image, ht_lossy_2x2, 0,
     "eb9a0803f84674bdc3e857ad314bec06409ab9ad0fb8558051f9a34f83e17d6a"},
    {"lossy97_3layers_full", photo_rgb, lossy97_3layers, 0,
     "831209e4ce640c2584ad9841b5bc43c23e302cb5b930b9aa5ca8d41b5f348467"},
    {"lossy97_3layers_layer1", photo_rgb, lossy97_3layers, 1,
     "6faee9ece4a83048b74cf5408012b63f0fcd3771e0df60b2a917e3b399b67993"},
    {"rlcp_lossless", photo_rgb, rlcp_lossless, 0,
     "cba399847856acd03a53f07d2b1edf3cb0466b7e4f2cc358f27ea4dc534e57b7"},
    {"ht_lossless", photo_rgb, ht_lossless, 0,
     "cba399847856acd03a53f07d2b1edf3cb0466b7e4f2cc358f27ea4dc534e57b7"},
    {"ht_lossy", photo_rgb, ht_lossy, 0,
     "9ea5e7ff942be5c63ce78a634e0b00c9ec21ee041614ab8430278c55a69573f9"},
    {"fixed97_2layers", photo_rgb, fixed97, 0,
     "6a959701ccce504f2f0189b50d01bb550526f7e0698dfed2c4a3bfa21fb995d9"},
    {"tiled97_2x2", photo_rgb, tiled97_2x2, 0,
     "9fb82c986dba7dcdbea9453444d98d90b1b842d446c612465d7ebd4d633dc135"},
    {"cb1024_level0_grey", photo_grey_wide, cb1024_level0, 0,
     "64978e44c5dd110c6d2c5201e110e494473f16b4efde66b33724789aff9b5e5d"},
    {"cb1024_97", photo_rgb, cb1024_97, 0,
     "c5db9d1b0ecc009b27505cc198da1f06024f4653a2dedb71d1a525db54bc6721"},
    {"cb4x4_97", photo_rgb, cb4x4, 0,
     "d2c3e2b11c7536c875bf1b74b98b21d4c79a726a4975d3134ba9f194c80c4e66"},
    {"lossy97_grey", photo_grey, lossy97, 0,
     "a651b0ee3c8307a4fe4e13b3291722facb5258ac0dc71f37c664549391edf8fc"},
    {"lossy97_rgba", photo_rgba, lossy97, 0,
     "d414855613ed4715ff642f2195e12e96662a29dc49e2cfe84c1f6bd712b811f2"},
};

class DecodePins : public ::testing::TestWithParam<DecodePin> {};

TEST_P(DecodePins, DecodedImageMatchesPinnedDigest) {
  const DecodePin& pin = GetParam();
  const auto bytes = jp2k::encode(pin.image(), pin.params());
  const Image out = jp2k::decode(bytes, pin.max_layers);
  EXPECT_EQ(image_digest(out), pin.digest) << pin.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllStreams, DecodePins, ::testing::ValuesIn(kPins),
    [](const ::testing::TestParamInfo<DecodePin>& info) {
      return std::string(info.param.name);
    });

/// Whether every plane's row padding, [width, stride), reads zero.
bool padding_is_zero(const Image& img) {
  for (std::size_t c = 0; c < img.components(); ++c) {
    const Plane& p = img.plane(c);
    for (std::size_t y = 0; y < p.height(); ++y) {
      for (std::size_t x = p.width(); x < p.stride(); ++x) {
        if (p.row(y)[x] != 0) return false;
      }
    }
  }
  return true;
}

TEST(DecodePadding, EveryPathReturnsZeroRowPadding) {
  // 5/3, float 9/7, Q13 and a 2×2 tiled stream, each at a width that
  // leaves padding on every row, in colour and in grey.
  const jp2k::CodingParams paths[] = {rlcp_lossless(), lossy97(), fixed97(),
                                      tiled97_2x2()};
  for (const std::size_t comps : {1u, 3u}) {
    const Image img = synth::photographic(101, 37, comps, 81);
    for (const jp2k::CodingParams& p : paths) {
      const Image out = jp2k::decode(jp2k::encode(img, p));
      ASSERT_GT(out.plane(0).stride(), out.width());
      EXPECT_TRUE(padding_is_zero(out))
          << comps << " components, wavelet "
          << static_cast<int>(p.wavelet) << ", Q13 " << p.fixed_point_97
          << ", " << p.tiles_x << "x" << p.tiles_y << " tiles";
    }
  }
}

TEST(BlockCoverage, CodeBlockGridsCoverEverySampleOnce) {
  // The decoder's Tier-1 phase is the first to write its planes: each
  // code block writes its own rectangle, so the blocks of every subband
  // must cover the plane exactly once.
  Rng rng(0xb10c);
  for (int draw = 0; draw < 300; ++draw) {
    const std::size_t w = 1 + rng.next_below(300);
    const std::size_t h = 1 + rng.next_below(300);
    const int levels = static_cast<int>(rng.next_below(9));
    const std::size_t cbw = std::size_t{4} << rng.next_below(5);
    const std::size_t cbh = std::size_t{4} << rng.next_below(5);
    SCOPED_TRACE(testing::Message() << w << "x" << h << ", " << levels
                                    << " levels, " << cbw << "x" << cbh);
    std::vector<int> hits(w * h, 0);
    for (const jp2k::SubbandInfo& info : jp2k::subband_layout(w, h, levels)) {
      jp2k::Subband sb;
      sb.info = info;
      jp2k::make_block_grid(sb, cbw, cbh);
      for (const jp2k::CodeBlock& cb : sb.blocks) {
        ASSERT_GT(cb.w, 0u);
        ASSERT_GT(cb.h, 0u);
        ASSERT_LE(info.x0 + cb.x0 + cb.w, w);
        ASSERT_LE(info.y0 + cb.y0 + cb.h, h);
        for (std::size_t y = 0; y < cb.h; ++y) {
          for (std::size_t x = 0; x < cb.w; ++x) {
            ++hits[(info.y0 + cb.y0 + y) * w + info.x0 + cb.x0 + x];
          }
        }
      }
    }
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1),
              static_cast<std::ptrdiff_t>(w * h));
  }
}

}  // namespace
}  // namespace cj2k
