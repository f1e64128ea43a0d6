// PCRD rate-control tests: budget adherence, monotonicity, R-D sanity.
#include <gtest/gtest.h>

#include "image/synth.hpp"
#include "jp2k/decoder.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/rate_control.hpp"
#include "jp2k/t2_encoder.hpp"
#include "jp2k/tile_grid.hpp"

namespace cj2k::jp2k {
namespace {

/// The codestream of one rate-controlled tile covering the whole image.
std::vector<std::uint8_t> frame_whole(const Tile& tile, const Image& img,
                                      const CodingParams& p) {
  return frame_codestream_tiles(
      {&tile}, TileGrid::plan(img.width(), img.height(), 1, 1), img, p,
      {t2_encode(tile)});
}

Tile encoded_tile(std::size_t w, std::size_t h) {
  const Image img = synth::photographic(w, h, 1, 17);
  CodingParams p;
  p.wavelet = WaveletKind::kIrreversible97;
  p.levels = 3;
  p.mct = false;
  return build_tile(img, p);
}

std::size_t total_selected(const Tile& tile) {
  std::size_t s = 0;
  for (const auto& tc : tile.components) {
    for (const auto& sb : tc.subbands) {
      for (const auto& cb : sb.blocks) s += cb.included_len;
    }
  }
  return s;
}

TEST(RateControl, RespectsBudget) {
  Tile tile = encoded_tile(256, 256);
  for (std::size_t budget : {2000u, 8000u, 20000u}) {
    const auto rc = rate_control(tile, budget, WaveletKind::kIrreversible97);
    EXPECT_LE(t2_encoded_size(tile), budget) << budget;
    EXPECT_LE(rc.selected_bytes, budget);
    EXPECT_GT(rc.passes_considered, 0u);
  }
}

TEST(RateControl, MoreBudgetNeverSelectsLess) {
  Tile tile = encoded_tile(256, 256);
  std::size_t prev = 0;
  for (std::size_t budget : {1000u, 4000u, 16000u, 64000u, 256000u}) {
    rate_control(tile, budget, WaveletKind::kIrreversible97);
    const std::size_t sel = total_selected(tile);
    EXPECT_GE(sel + 64, prev) << budget;  // small slack for header feedback
    prev = sel;
  }
}

TEST(RateControl, HugeBudgetIncludesEverything) {
  Tile tile = encoded_tile(128, 128);
  std::size_t all = 0;
  for (const auto& tc : tile.components) {
    for (const auto& sb : tc.subbands) {
      for (const auto& cb : sb.blocks) all += cb.enc.data.size();
    }
  }
  rate_control(tile, all * 10 + 100000, WaveletKind::kIrreversible97);
  EXPECT_EQ(total_selected(tile), all);
}

TEST(RateControl, ZeroBudgetSelectsNothing) {
  Tile tile = encoded_tile(128, 128);
  rate_control(tile, 0, WaveletKind::kIrreversible97);
  EXPECT_EQ(total_selected(tile), 0u);
}

TEST(RateControl, TruncationPointsAreAtPassBoundaries) {
  Tile tile = encoded_tile(128, 128);
  rate_control(tile, 5000, WaveletKind::kIrreversible97);
  for (const auto& tc : tile.components) {
    for (const auto& sb : tc.subbands) {
      for (const auto& cb : sb.blocks) {
        if (cb.included_passes == 0) {
          EXPECT_EQ(cb.included_len, 0u);
          continue;
        }
        ASSERT_LE(cb.included_passes,
                  static_cast<int>(cb.enc.passes.size()));
        EXPECT_EQ(cb.included_len,
                  cb.enc.passes[static_cast<std::size_t>(
                                    cb.included_passes - 1)]
                      .trunc_len);
      }
    }
  }
}

TEST(RateControl, ZeroBudgetStreamStillDecodes) {
  const Image img = synth::photographic(128, 128, 1, 17);
  CodingParams p;
  p.wavelet = WaveletKind::kIrreversible97;
  p.levels = 3;
  p.mct = false;
  Tile tile = build_tile(img, p);
  rate_control(tile, 0, WaveletKind::kIrreversible97);
  // Everything truncated to nothing — T2 must still emit well-formed
  // (empty-body) packets and the result must decode.
  const auto bytes = frame_whole(tile, img, p);
  const Image out = decode(bytes);
  EXPECT_EQ(out.width(), img.width());
  EXPECT_EQ(out.height(), img.height());
}

TEST(RateControl, BudgetBelowHeadersStillDecodes) {
  // A rate so small the byte budget is below the packet-header floor; the
  // refinement loop must terminate (not oscillate) and yield a decodable,
  // nearly-empty stream.
  const Image img = synth::photographic(128, 128, 3, 19);
  CodingParams p;
  p.wavelet = WaveletKind::kIrreversible97;
  p.rate = 1e-6;
  const auto bytes = encode(img, p);
  const Image out = decode(bytes);
  EXPECT_EQ(out.width(), img.width());
  EXPECT_EQ(out.components(), img.components());
}

TEST(RateControl, BlocksWithZeroPassesAreHandled) {
  // A constant image: every subband is all-zero after the DWT, so every
  // block has zero coding passes and contributes no hull segments.
  Image img(128, 128, 1, 8);
  for (std::size_t y = 0; y < img.height(); ++y) {
    Sample* row = img.plane(0).row(y);
    for (std::size_t x = 0; x < img.width(); ++x) row[x] = 128;
  }
  CodingParams p;
  p.wavelet = WaveletKind::kIrreversible97;
  p.levels = 3;
  p.mct = false;
  Tile tile = build_tile(img, p);
  bool saw_zero_pass_block = false;
  for (const auto& tc : tile.components) {
    for (const auto& sb : tc.subbands) {
      for (const auto& cb : sb.blocks) {
        if (cb.enc.passes.empty()) saw_zero_pass_block = true;
      }
    }
  }
  EXPECT_TRUE(saw_zero_pass_block);

  const auto rc = rate_control(tile, 4000, WaveletKind::kIrreversible97);
  EXPECT_LE(rc.selected_bytes, 4000u);
  const auto bytes = frame_whole(tile, img, p);
  const Image out = decode(bytes);
  EXPECT_EQ(out.width(), img.width());
}

TEST(RateControl, LayeredDuplicateBudgetsTerminate) {
  const Image img = synth::photographic(128, 128, 1, 17);
  CodingParams p;
  p.wavelet = WaveletKind::kIrreversible97;
  p.levels = 3;
  p.mct = false;
  p.layers = 3;
  Tile tile = build_tile(img, p);
  // Duplicate and equal cumulative budgets: layers 0 and 1 coincide; layer
  // 1 must simply add nothing, and the stream must stay decodable at every
  // layer prefix.
  const std::vector<std::size_t> budgets{5000, 5000, 8000};
  const auto rc = rate_control_layered(tile, budgets,
                                       WaveletKind::kIrreversible97);
  EXPECT_LE(rc.selected_bytes, budgets.back());
  const auto bytes = frame_whole(tile, img, p);
  for (int l = 0; l <= 3; ++l) {
    const Image out = decode(bytes, l);
    EXPECT_EQ(out.width(), img.width()) << "layers=" << l;
  }

  // All-equal budgets must also terminate and decode.
  Tile tile2 = build_tile(img, p);
  rate_control_layered(tile2, {4000, 4000, 4000},
                       WaveletKind::kIrreversible97);
  const auto bytes2 = frame_whole(tile2, img, p);
  EXPECT_EQ(decode(bytes2).width(), img.width());
}

TEST(RateControl, LambdaDecreasesWithBudget) {
  Tile tile = encoded_tile(128, 128);
  const auto rc_small =
      rate_control(tile, 2000, WaveletKind::kIrreversible97);
  const auto rc_big =
      rate_control(tile, 50000, WaveletKind::kIrreversible97);
  // Larger budget admits flatter R-D slopes.
  if (rc_small.lambda > 0 && rc_big.lambda > 0) {
    EXPECT_LE(rc_big.lambda, rc_small.lambda);
  }
}

}  // namespace
}  // namespace cj2k::jp2k
