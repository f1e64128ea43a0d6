// Multi-tile subsystem tests: tile-grid geometry (cache-line column
// origins, edge tiles, degenerate grids), extract/blit, multi-tile
// codestream round-trips, byte-identity of the tiled Cell scheduler
// against the serial reference, its tile-group carving, and the decoder's
// rejection of malformed tile-part structure.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cellenc/pipeline.hpp"
#include "common/error.hpp"
#include "image/metrics.hpp"
#include "image/synth.hpp"
#include "jp2k/codestream.hpp"
#include "jp2k/decoder.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/tile_grid.hpp"

namespace cj2k::jp2k {
namespace {

// ---------------------------------------------------------------------------
// Grid geometry.

TEST(TileGrid, NominalWidthRoundsUpToCacheLine) {
  // ceil(100/4) = 25 -> rounded to 32 Samples (one 128-byte line).
  const TileGrid g = TileGrid::plan(100, 80, 4, 2);
  EXPECT_EQ(g.tile_w(), 32u);
  EXPECT_EQ(g.tile_h(), 40u);
  EXPECT_EQ(g.cols(), 4u);
  EXPECT_EQ(g.rows(), 2u);
  EXPECT_EQ(g.num_tiles(), 8u);
  for (std::size_t tx = 0; tx < g.cols(); ++tx) {
    const TileRect r = g.tile_at(tx, 0);
    EXPECT_EQ(r.x0 % TileGrid::kLineElems, 0u) << "tile column " << tx;
    EXPECT_EQ(r.w, tx < 3 ? 32u : 4u);
  }
}

TEST(TileGrid, NarrowImageCollapsesColumns) {
  // ceil(20/3) = 7 -> rounds to 32 -> clamped to the 20-wide image, so the
  // requested 3 columns collapse to 1; rows still split exactly.
  const TileGrid g = TileGrid::plan(20, 10, 3, 3);
  EXPECT_EQ(g.cols(), 1u);
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_EQ(g.tile(0).h, 4u);
  EXPECT_EQ(g.tile(1).h, 4u);
  EXPECT_EQ(g.tile(2).h, 2u);  // Edge row keeps the remainder.
  EXPECT_EQ(g.tile(2).y0, 8u);
}

TEST(TileGrid, EdgeTileNarrowerThanCacheLine) {
  // ceil(70/2) = 35 -> rounds to 64; the second column keeps 6 samples,
  // well under one cache line.
  const TileGrid g = TileGrid::plan(70, 50, 2, 2);
  EXPECT_EQ(g.tile_w(), 64u);
  EXPECT_EQ(g.tile_at(0, 0).w, 64u);
  EXPECT_EQ(g.tile_at(1, 0).w, 6u);
  EXPECT_EQ(g.tile_at(1, 1).x0, 64u);
  EXPECT_EQ(g.tile_at(1, 1).h, 25u);
}

TEST(TileGrid, SingleTileWhenImageSmallerThanTile) {
  const TileGrid g = TileGrid::plan(30, 20, 1, 1);
  EXPECT_EQ(g.num_tiles(), 1u);
  const TileRect r = g.tile(0);
  EXPECT_EQ(r.w, 30u);
  EXPECT_EQ(r.h, 20u);
  EXPECT_EQ(r.x0, 0u);
  EXPECT_EQ(r.y0, 0u);
}

TEST(TileGrid, OneByNAndNByOneGrids) {
  const TileGrid rows = TileGrid::plan(64, 90, 1, 3);
  EXPECT_EQ(rows.cols(), 1u);
  EXPECT_EQ(rows.rows(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(rows.tile(i).w, 64u);

  const TileGrid cols = TileGrid::plan(96, 40, 3, 1);
  EXPECT_EQ(cols.cols(), 3u);
  EXPECT_EQ(cols.rows(), 1u);
  EXPECT_EQ(cols.tile(0).w, 32u);
  EXPECT_EQ(cols.tile(2).w, 32u);
  EXPECT_EQ(cols.tile(2).index, 2u);
}

TEST(TileGrid, RejectsBadGeometry) {
  EXPECT_THROW(TileGrid::plan(0, 10, 1, 1), Error);
  EXPECT_THROW(TileGrid::plan(10, 10, 0, 1), Error);
  EXPECT_THROW(TileGrid::from_tile_size(10, 10, 20, 10), Error);
  EXPECT_THROW(TileGrid::from_tile_size(10, 10, 10, 0), Error);
  // 1000x1000 one-sample tiles would need a million Isot values.
  EXPECT_THROW(TileGrid::from_tile_size(1000, 1000, 1, 1), Error);
}

TEST(TileGrid, ExtractBlitRoundtrip) {
  const Image img = synth::photographic(70, 50, 3, 11);
  const TileGrid g = TileGrid::plan(70, 50, 2, 2);
  Image out(img.width(), img.height(), img.components(), img.bit_depth());
  for (std::size_t i = 0; i < g.num_tiles(); ++i) {
    const TileRect r = g.tile(i);
    const Image t = extract_tile(img, r);
    EXPECT_EQ(t.width(), r.w);
    EXPECT_EQ(t.height(), r.h);
    blit_tile(t, r, out);
  }
  EXPECT_TRUE(metrics::identical(img, out));
}

// ---------------------------------------------------------------------------
// Multi-tile codestream round-trips (serial reference encoder).

TEST(TileCodec, LosslessRoundtripAcrossGrids) {
  const Image img = synth::photographic(161, 117, 3, 21);
  for (auto [tx, ty] : {std::pair<std::size_t, std::size_t>{2, 2},
                        {1, 3},
                        {3, 1},
                        {2, 3}}) {
    CodingParams p;
    p.wavelet = WaveletKind::kReversible53;
    p.levels = 3;
    p.tiles_x = tx;
    p.tiles_y = ty;
    const auto stream = encode(img, p);
    const Image back = decode(stream);
    EXPECT_TRUE(metrics::identical(img, back)) << tx << "x" << ty;
  }
}

TEST(TileCodec, SingleTileGridMatchesPlainEncoderByteForByte) {
  const Image img = synth::photographic(96, 64, 3, 22);
  CodingParams p;
  p.wavelet = WaveletKind::kReversible53;
  p.levels = 3;
  const auto plain = encode(img, p);

  // encode codes a tile that covers the image from the image itself,
  // uncopied; a tile built from an extract_tile copy of the one rectangle
  // and finished on the 1×1 grid must give the same bytes.
  const TileGrid g = TileGrid::plan(img.width(), img.height(), 1, 1);
  Tile tile = build_tile(extract_tile(img, g.tile(0)), p);
  const auto framed = finish_tiles({&tile}, g, img, p);
  EXPECT_EQ(framed, plain);
}

TEST(TileCodec, TiledEncodeStatsSumTheTiles) {
  // A tiled encode adds up its tiles' front and Tier-1 counts: the same
  // totals as building each tile on its own.
  const Image img = synth::photographic(160, 128, 3, 31);
  CodingParams p;
  p.levels = 3;
  p.tiles_x = 2;
  p.tiles_y = 2;
  EncodeStats whole;
  encode(img, p, &whole);

  CodingParams one = p;
  one.tiles_x = 1;
  one.tiles_y = 1;
  const TileGrid g = TileGrid::plan(img.width(), img.height(), 2, 2);
  ASSERT_EQ(g.num_tiles(), 4u);
  EncodeStats sum;
  for (std::size_t i = 0; i < g.num_tiles(); ++i) {
    EncodeStats ts;
    build_tile(extract_tile(img, g.tile(i)), one, &ts);
    sum.samples += ts.samples;
    sum.t1_symbols += ts.t1_symbols;
    sum.t1_passes += ts.t1_passes;
  }
  EXPECT_EQ(whole.samples, img.total_samples());
  EXPECT_EQ(whole.samples, sum.samples);
  EXPECT_EQ(whole.t1_symbols, sum.t1_symbols);
  EXPECT_EQ(whole.t1_passes, sum.t1_passes);
  EXPECT_GT(whole.t1_symbols, 0u);

  // Each encode starts the counts afresh.
  EncodeStats again = whole;
  encode(img, p, &again);
  EXPECT_EQ(again.samples, whole.samples);
  EXPECT_EQ(again.t1_symbols, whole.t1_symbols);
  EXPECT_EQ(again.t1_passes, whole.t1_passes);
}

TEST(TileCodec, LossyMultiTileHitsTheGlobalRateBudget) {
  const Image img = synth::photographic(160, 128, 3, 23);
  CodingParams p;
  p.wavelet = WaveletKind::kIrreversible97;
  p.levels = 3;
  p.rate = 0.25;
  p.tiles_x = 2;
  p.tiles_y = 2;
  const auto stream = encode(img, p);
  const std::size_t raw = img.width() * img.height() * img.components();
  // One global lambda over all tiles: the whole stream obeys the budget.
  EXPECT_LE(stream.size(), static_cast<std::size_t>(raw * p.rate));
  EXPECT_GE(stream.size(), static_cast<std::size_t>(raw * p.rate * 0.8));
  const Image back = decode(stream);
  EXPECT_GT(metrics::psnr(img, back), 30.0);
}

TEST(TileCodec, LayeredMultiTileIsQualityProgressive) {
  const Image img = synth::photographic(160, 128, 3, 24);
  CodingParams p;
  p.wavelet = WaveletKind::kIrreversible97;
  p.levels = 3;
  p.rate = 0.5;
  p.layers = 3;
  p.tiles_x = 2;
  p.tiles_y = 2;
  const auto stream = encode(img, p);
  double prev = 0;
  for (int l = 1; l <= 3; ++l) {
    const Image back = decode(stream, l);
    const double q = metrics::psnr(img, back);
    EXPECT_GT(q, prev) << "layer " << l;
    prev = q;
  }
}

// ---------------------------------------------------------------------------
// Decoder rejection of malformed tile-part structure.

std::vector<std::uint8_t> tiled_stream(const Image& img) {
  CodingParams p;
  p.wavelet = WaveletKind::kReversible53;
  p.levels = 3;
  p.tiles_x = 2;
  p.tiles_y = 2;
  return encode(img, p);
}

/// Byte offset of the n-th SOT marker (0xFF90).
std::size_t find_sot(const std::vector<std::uint8_t>& bytes, int nth) {
  int seen = 0;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    if (bytes[i] == 0xFF && bytes[i + 1] == 0x90 && seen++ == nth) return i;
  }
  ADD_FAILURE() << "SOT #" << nth << " not found";
  return 0;
}

std::uint32_t read_u32(const std::vector<std::uint8_t>& b, std::size_t at) {
  return (std::uint32_t{b[at]} << 24) | (std::uint32_t{b[at + 1]} << 16) |
         (std::uint32_t{b[at + 2]} << 8) | b[at + 3];
}

void expect_rejects(const std::vector<std::uint8_t>& bytes,
                    const std::string& needle) {
  try {
    decode(bytes);
    FAIL() << "expected CodestreamError containing \"" << needle << "\"";
  } catch (const CodestreamError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "got: " << e.what();
  }
}

/// SOC + SIZ + COD + the first SOT marker, for a 1-component 8-bit image.
std::vector<std::uint8_t> main_header(std::uint32_t w, std::uint32_t h,
                                      std::uint32_t tw, std::uint32_t th) {
  std::vector<std::uint8_t> b;
  auto u8 = [&](unsigned v) { b.push_back(static_cast<std::uint8_t>(v)); };
  auto u16 = [&](unsigned v) { u8(v >> 8); u8(v & 0xFF); };
  auto u32 = [&](std::uint32_t v) { u16(v >> 16); u16(v & 0xFFFF); };
  u16(0xFF4F);                                  // SOC
  u16(0xFF51); u16(21);                         // SIZ
  u32(w); u32(h); u16(1); u8(8); u32(tw); u32(th);
  u16(0xFF52); u16(20);                         // COD
  u8(0); u8(0); u16(64); u16(64); u8(0); u8(0); u8(1); u8(0);
  for (int i = 0; i < 8; ++i) u8(0);            // base step (f64 0.0)
  u16(0xFF90);                                  // SOT
  return b;
}

// A SIZ whose grid has more tiles than Isot can index is a typed parse
// error, even where cols * rows would overflow.
TEST(TileCodec, RejectsSizWithMoreTilesThanIsotCanIndex) {
  expect_rejects(main_header(0x7FFFFFFFu, 1, 1, 1), "65535 tiles");
  expect_rejects(main_header(65536, 1, 1, 1), "65535 tiles");
  expect_rejects(main_header(0xFFFFFFFFu, 0xFFFFFFFFu, 1, 1), "65535 tiles");
  expect_rejects(main_header(256, 256, 1, 1), "65535 tiles");
  // 65535 tiles is a legal grid: parsing gets past SIZ to the tile-parts.
  try {
    decode(main_header(65535, 1, 1, 1));
    FAIL() << "a header-only stream must not decode";
  } catch (const CodestreamError& e) {
    EXPECT_EQ(std::string(e.what()).find("65535 tiles"), std::string::npos)
        << e.what();
  }
}

TEST(TileCodec, RejectsOutOfRangeIsot) {
  const Image img = synth::photographic(161, 117, 3, 25);
  auto bytes = tiled_stream(img);
  const std::size_t sot = find_sot(bytes, 0);
  bytes[sot + 4] = 0;
  bytes[sot + 5] = 7;  // Isot = 7 in a 4-tile stream.
  expect_rejects(bytes, "out of range");
}

TEST(TileCodec, RejectsDuplicateIsot) {
  const Image img = synth::photographic(161, 117, 3, 25);
  auto bytes = tiled_stream(img);
  const std::size_t sot = find_sot(bytes, 1);
  bytes[sot + 4] = 0;
  bytes[sot + 5] = 0;  // Second tile-part claims tile 0 again.
  expect_rejects(bytes, "duplicate");
}

TEST(TileCodec, RejectsUnsupportedTilePartStructure) {
  const Image img = synth::photographic(161, 117, 3, 25);
  {
    auto bytes = tiled_stream(img);
    bytes[find_sot(bytes, 0) + 10] = 1;  // TPsot != 0.
    expect_rejects(bytes, "TPsot");
  }
  {
    auto bytes = tiled_stream(img);
    bytes[find_sot(bytes, 2) + 11] = 3;  // TNsot != 1.
    expect_rejects(bytes, "TPsot");
  }
}

TEST(TileCodec, RejectsImplausiblePsot) {
  const Image img = synth::photographic(161, 117, 3, 25);
  {
    auto bytes = tiled_stream(img);
    const std::size_t sot = find_sot(bytes, 0);
    // Psot smaller than the tile header it must at least contain.
    bytes[sot + 6] = bytes[sot + 7] = bytes[sot + 8] = 0;
    bytes[sot + 9] = 1;
    expect_rejects(bytes, "implausible Psot");
  }
  {
    auto bytes = tiled_stream(img);
    bytes[find_sot(bytes, 0) + 6] = 0x7F;  // Far past the end of the stream.
    expect_rejects(bytes, "runs past end");
  }
}

TEST(TileCodec, RejectsMissingTilePart) {
  const Image img = synth::photographic(161, 117, 3, 25);
  auto bytes = tiled_stream(img);
  const std::size_t sot = find_sot(bytes, 1);
  const std::uint32_t psot = read_u32(bytes, sot + 6);
  bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(sot),
              bytes.begin() + static_cast<std::ptrdiff_t>(sot + psot));
  expect_rejects(bytes, "missing tile-part");
}

TEST(TileCodec, ReassemblesTilePartsByIsotNotStreamOrder) {
  const Image img = synth::photographic(161, 117, 3, 25);
  const auto bytes = tiled_stream(img);
  // Swap the byte ranges of the first two tile-parts; Isot indexing must
  // put the tiles back in their grid positions regardless.
  const std::size_t s0 = find_sot(bytes, 0);
  const std::size_t p0 = read_u32(bytes, s0 + 6);
  const std::size_t s1 = find_sot(bytes, 1);
  const std::size_t p1 = read_u32(bytes, s1 + 6);
  ASSERT_EQ(s1, s0 + p0);
  std::vector<std::uint8_t> swapped(bytes.begin(),
                                    bytes.begin() + static_cast<std::ptrdiff_t>(s0));
  swapped.insert(swapped.end(), bytes.begin() + static_cast<std::ptrdiff_t>(s1),
                 bytes.begin() + static_cast<std::ptrdiff_t>(s1 + p1));
  swapped.insert(swapped.end(), bytes.begin() + static_cast<std::ptrdiff_t>(s0),
                 bytes.begin() + static_cast<std::ptrdiff_t>(s0 + p0));
  swapped.insert(swapped.end(),
                 bytes.begin() + static_cast<std::ptrdiff_t>(s1 + p1),
                 bytes.end());
  ASSERT_EQ(swapped.size(), bytes.size());
  const Image back = decode(swapped);
  EXPECT_TRUE(metrics::identical(img, back));
}

}  // namespace
}  // namespace cj2k::jp2k

// ---------------------------------------------------------------------------
// Tiled Cell scheduler vs the serial reference.

namespace cj2k::cellenc {
namespace {

cell::MachineConfig config(int spes, int ppes = 1, int chips = 1) {
  cell::MachineConfig cfg;
  cfg.num_spes = spes;
  cfg.num_ppe_threads = ppes;
  cfg.chips = chips;
  return cfg;
}

TEST(TiledPipeline, LosslessMatchesSerialEncoderBitExactly) {
  const Image img = synth::photographic(256, 256, 3, 31);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kReversible53;
  p.levels = 3;
  p.tiles_x = 2;
  p.tiles_y = 2;
  const auto serial = jp2k::encode(img, p);
  for (int spes : {0, 8, 16}) {
    CellEncoder enc(config(spes, spes == 0 ? 1 : 0, spes == 16 ? 2 : 1));
    const auto res = enc.encode(img, p);
    EXPECT_EQ(res.codestream, serial) << spes << " SPEs";
    EXPECT_EQ(res.tiles, 4u);
  }
}

TEST(TiledPipeline, LossyMatchesSerialEncoderBitExactly) {
  const Image img = synth::photographic(256, 256, 3, 32);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.levels = 3;
  p.rate = 0.25;
  p.tiles_x = 2;
  p.tiles_y = 2;
  const auto serial = jp2k::encode(img, p);
  for (int spes : {8, 16}) {
    CellEncoder enc(config(spes, 0, spes == 16 ? 2 : 1));
    const auto res = enc.encode(img, p);
    EXPECT_EQ(res.codestream, serial) << spes << " SPEs";
  }
  // The serial (non-distributed) tail must agree too.
  PipelineOptions opt;
  opt.parallel_lossy_tail = false;
  CellEncoder enc(config(8, 1));
  EXPECT_EQ(enc.encode(img, p, opt).codestream, serial);
}

TEST(TiledPipeline, LayeredMatchesSerialEncoderBitExactly) {
  const Image img = synth::photographic(256, 256, 3, 33);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.levels = 3;
  p.rate = 0.5;
  p.layers = 3;
  p.tiles_x = 2;
  p.tiles_y = 2;
  const auto serial = jp2k::encode(img, p);
  CellEncoder enc(config(8, 0));
  EXPECT_EQ(enc.encode(img, p).codestream, serial);
}

TEST(TiledPipeline, SixteenSpesCarveTwoEightSpeTileGroups) {
  const Image img = synth::photographic(256, 256, 3, 34);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.levels = 3;
  p.rate = 0.25;
  p.tiles_x = 2;
  p.tiles_y = 2;

  CellEncoder enc(config(16, 0, 2));
  const auto res = enc.encode(img, p);
  EXPECT_EQ(res.tiles, 4u);
  EXPECT_EQ(res.tile_groups, 2u);
  EXPECT_EQ(res.spes_per_group, 8);
}

TEST(TiledPipeline, TileParallelismBeatsSingleTileAtSixteenSpes) {
  const Image img = synth::photographic(512, 512, 3, 35);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kReversible53;
  p.levels = 3;

  CellEncoder enc(config(16, 0, 2));
  const auto single = enc.encode(img, p);
  p.tiles_x = p.tiles_y = 2;
  const auto tiled = enc.encode(img, p);
  EXPECT_EQ(tiled.tile_groups, 2u);
  EXPECT_LT(tiled.simulated_seconds, single.simulated_seconds);
  // And the tiled stream still decodes losslessly.
  EXPECT_TRUE(metrics::identical(img, jp2k::decode(tiled.codestream)));
}

}  // namespace
}  // namespace cj2k::cellenc
