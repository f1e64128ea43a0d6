#include "jp2k/encoder.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "jp2k/dwt2d.hpp"
#include "jp2k/ht_block.hpp"
#include "jp2k/mct.hpp"
#include "jp2k/quant.hpp"
#include "jp2k/t1_encoder.hpp"
#include "jp2k/t2_encoder.hpp"

namespace cj2k::jp2k {

void validate(const Image& img, const CodingParams& p) {
  CJ2K_CHECK_MSG(img.components() >= 1, "image has no components");
  if (p.mct && img.components() >= 3) {
    // RCT/ICT applies to the first three components.
  }
  if (p.levels < 0 || p.levels > 32) {
    throw InvalidArgument("decomposition levels out of range");
  }
  if (p.cb_width < 4 || p.cb_width > 1024 || p.cb_height < 4 ||
      p.cb_height > 1024) {
    throw InvalidArgument("code block dimensions out of range");
  }
  if (p.layers < 1 || p.layers > 64) {
    throw InvalidArgument("quality layer count out of range");
  }
  if (p.tiles_x < 1 || p.tiles_x > 256 || p.tiles_y < 1 || p.tiles_y > 256) {
    throw InvalidArgument("tile grid out of range");
  }
  // Q13 keeps 13 fraction bits in 32-bit samples: the decoder's overflow
  // gate (inverse_fits) admits every stream of 8-bit samples, with more
  // than a bit to spare at 7 levels, and not all streams of deeper ones.
  if (p.wavelet == WaveletKind::kIrreversible97 && p.fixed_point_97 &&
      img.bit_depth() > 8) {
    throw InvalidArgument("fixed-point 9/7 needs samples of at most 8 bits");
  }
  if (p.block_coder == BlockCoder::kHt) {
    // HT codewords have no truncation points: quality layers cannot be
    // carved out of them, and a rate target on the reversible path (where
    // EBCOT truncates passes) has nothing to act on.
    if (p.layers > 1) {
      throw InvalidArgument("HT block coder does not support quality layers");
    }
    if (p.rate > 0.0 && p.wavelet == WaveletKind::kReversible53) {
      throw InvalidArgument(
          "HT rate targeting requires the lossy 9/7 path (quantizer-based)");
    }
  }
}

namespace {

/// Layered budgets over a tile set (the multi-tile form of
/// plan_layer_budgets: the "everything" fallback sums every tile's coded
/// bytes once).
std::vector<std::size_t> plan_layer_budgets_tiles(
    const std::vector<Tile*>& tiles, const Image& img,
    const CodingParams& params) {
  std::size_t final_budget;
  if (params.rate > 0.0) {
    final_budget = static_cast<std::size_t>(
        params.rate * static_cast<double>(img.raw_bytes()));
  } else {
    std::size_t all = 4096;
    for (const Tile* tp : tiles) {
      for (const auto& tc : tp->components) {
        for (const auto& sb : tc.subbands) {
          for (const auto& cb : sb.blocks) all += cb.enc.data.size() + 8;
        }
      }
    }
    final_budget = 2 * all;  // effectively unbounded
  }
  std::vector<std::size_t> budgets(static_cast<std::size_t>(params.layers));
  for (int l = 0; l < params.layers; ++l) {
    budgets[static_cast<std::size_t>(l)] =
        final_budget >> (params.layers - 1 - l);
  }
  return budgets;
}

/// Runs the selected block coder over every block of a subband whose
/// coefficients sit in `coeff_plane` at the band's offsets.
void t1_over_band(Subband& sb, Span2d<const Sample> coeff_plane,
                  const CodingParams& params, EncodeStats* stats) {
  int band_numbps = 0;
  for (auto& cb : sb.blocks) {
    const auto view = coeff_plane.subview(sb.info.x0 + cb.x0,
                                          sb.info.y0 + cb.y0, cb.w, cb.h);
    cb.enc = params.block_coder == BlockCoder::kHt
                 ? ht_encode_block(view)
                 : t1_encode_block(view, sb.info.orient, params.t1);
    cb.include_all();
    band_numbps = std::max(band_numbps, cb.enc.num_bitplanes);
    if (stats) {
      stats->t1_symbols += cb.enc.total_symbols;
      stats->t1_passes += cb.enc.passes.size();
    }
  }
  sb.band_numbps = band_numbps;
}

}  // namespace

TileComponent make_component_skeleton(std::size_t w, std::size_t h,
                                      const CodingParams& p) {
  TileComponent tc;
  for (const auto& info : subband_layout(w, h, p.levels)) {
    Subband sb;
    sb.info = info;
    if (p.wavelet != WaveletKind::kReversible53) {
      sb.quant_step =
          quant_step_for_band(effective_base_quant_step(p), p.wavelet,
                              info.level, info.orient, p.levels);
    }
    make_block_grid(sb, p.cb_width, p.cb_height);
    tc.subbands.push_back(std::move(sb));
  }
  return tc;
}

Tile build_tile(const Image& img, const CodingParams& params,
                EncodeStats* stats) {
  validate(img, params);
  Timer stage;

  const std::size_t w = img.width();
  const std::size_t h = img.height();
  const std::size_t ncomp = img.components();
  const bool color = params.mct && ncomp >= 3;
  const unsigned depth = img.bit_depth();

  Tile tile;
  tile.width = w;
  tile.height = h;
  tile.levels = params.levels;
  tile.layers = params.layers;
  tile.progression = static_cast<int>(params.progression);

  if (stats) stats->samples = img.total_samples();

  if (params.wavelet == WaveletKind::kReversible53) {
    // Working copies of the planes (padded like the originals).
    std::vector<Plane> work;
    work.reserve(ncomp);
    for (std::size_t c = 0; c < ncomp; ++c) {
      Plane pl(w, h);
      for (std::size_t y = 0; y < h; ++y) {
        std::copy_n(img.plane(c).row(y), w, pl.row(y));
      }
      work.push_back(std::move(pl));
    }

    // Level shift + RCT (merged, as in the paper).
    stage.reset();
    for (std::size_t y = 0; y < h; ++y) {
      if (color) {
        shift_rct_forward_row(work[0].row(y), work[1].row(y), work[2].row(y),
                              w, depth);
        for (std::size_t c = 3; c < ncomp; ++c) {
          level_shift_row(work[c].row(y), w, depth);
        }
      } else {
        for (std::size_t c = 0; c < ncomp; ++c) {
          level_shift_row(work[c].row(y), w, depth);
        }
      }
    }
    if (stats) stats->mct_seconds = stage.seconds();

    // DWT.
    stage.reset();
    std::vector<Span2d<Sample>> planes;
    for (auto& pl : work) planes.push_back(pl.view());
    forward53(planes, params.levels);
    if (stats) stats->dwt_seconds = stage.seconds();

    // Tier-1.
    stage.reset();
    for (std::size_t c = 0; c < ncomp; ++c) {
      TileComponent tc = make_component_skeleton(w, h, params);
      for (auto& sb : tc.subbands) {
        t1_over_band(sb, work[c].view(), params, stats);
      }
      tile.components.push_back(std::move(tc));
    }
    if (stats) stats->t1_seconds = stage.seconds();
  } else if (params.fixed_point_97) {
    // Lossy path in Q13 fixed point — Jasper's original arithmetic, kept
    // for the paper's §4 fixed-vs-float experiment.
    std::vector<Plane> fx;
    fx.reserve(ncomp);
    for (std::size_t c = 0; c < ncomp; ++c) fx.emplace_back(w, h);

    stage.reset();
    for (std::size_t y = 0; y < h; ++y) {
      if (color) {
        shift_ict_forward_row_fixed(img.plane(0).row(y), img.plane(1).row(y),
                                    img.plane(2).row(y), fx[0].row(y),
                                    fx[1].row(y), fx[2].row(y), w, depth);
        for (std::size_t c = 3; c < ncomp; ++c) {
          shift_to_fixed_row(img.plane(c).row(y), fx[c].row(y), w, depth);
        }
      } else {
        for (std::size_t c = 0; c < ncomp; ++c) {
          shift_to_fixed_row(img.plane(c).row(y), fx[c].row(y), w, depth);
        }
      }
    }
    if (stats) stats->mct_seconds = stage.seconds();

    stage.reset();
    std::vector<Span2d<Sample>> planes;
    for (auto& pl : fx) planes.push_back(pl.view());
    forward97_fixed(planes, params.levels);
    if (stats) stats->dwt_seconds = stage.seconds();

    Plane qplane(w, h);
    for (std::size_t c = 0; c < ncomp; ++c) {
      TileComponent tc = make_component_skeleton(w, h, params);
      stage.reset();
      for (auto& sb : tc.subbands) {
        for (std::size_t y = 0; y < sb.info.h; ++y) {
          quantize_fixed_row(fx[c].row(sb.info.y0 + y) + sb.info.x0,
                             qplane.row(sb.info.y0 + y) + sb.info.x0,
                             sb.info.w, sb.quant_step);
        }
      }
      if (stats) stats->quant_seconds += stage.seconds();

      stage.reset();
      for (auto& sb : tc.subbands) {
        t1_over_band(sb, qplane.view(), params, stats);
      }
      if (stats) stats->t1_seconds += stage.seconds();
      tile.components.push_back(std::move(tc));
    }
  } else {
    // Lossy path: float planes.
    std::vector<std::vector<float>> fplanes(ncomp);
    const std::size_t stride = img.plane(0).stride();
    for (auto& fp : fplanes) fp.assign(stride * h, 0.0f);

    stage.reset();
    for (std::size_t y = 0; y < h; ++y) {
      if (color) {
        shift_ict_forward_row(img.plane(0).row(y), img.plane(1).row(y),
                              img.plane(2).row(y), &fplanes[0][y * stride],
                              &fplanes[1][y * stride],
                              &fplanes[2][y * stride], w, depth);
        for (std::size_t c = 3; c < ncomp; ++c) {
          const Sample* src = img.plane(c).row(y);
          float* dst = &fplanes[c][y * stride];
          const float off = static_cast<float>(Sample{1} << (depth - 1));
          for (std::size_t x = 0; x < w; ++x) {
            dst[x] = static_cast<float>(src[x]) - off;
          }
        }
      } else {
        for (std::size_t c = 0; c < ncomp; ++c) {
          const Sample* src = img.plane(c).row(y);
          float* dst = &fplanes[c][y * stride];
          const float off = static_cast<float>(Sample{1} << (depth - 1));
          for (std::size_t x = 0; x < w; ++x) {
            dst[x] = static_cast<float>(src[x]) - off;
          }
        }
      }
    }
    if (stats) stats->mct_seconds = stage.seconds();

    stage.reset();
    std::vector<Span2d<float>> planes;
    for (auto& fp : fplanes) planes.emplace_back(fp.data(), w, h, stride);
    forward97(planes, params.levels);
    if (stats) stats->dwt_seconds = stage.seconds();

    // Quantize per band into an integer coefficient plane, then Tier-1.
    Plane qplane(w, h);
    for (std::size_t c = 0; c < ncomp; ++c) {
      TileComponent tc = make_component_skeleton(w, h, params);
      Span2d<float> fview(fplanes[c].data(), w, h, stride);
      stage.reset();
      for (auto& sb : tc.subbands) {
        quantize(fview.subview(sb.info.x0, sb.info.y0, sb.info.w, sb.info.h),
                 qplane.view().subview(sb.info.x0, sb.info.y0, sb.info.w,
                                       sb.info.h),
                 sb.quant_step);
      }
      if (stats) stats->quant_seconds += stage.seconds();

      stage.reset();
      for (auto& sb : tc.subbands) {
        t1_over_band(sb, qplane.view(), params, stats);
      }
      if (stats) stats->t1_seconds += stage.seconds();
      tile.components.push_back(std::move(tc));
    }
  }
  return tile;
}

std::vector<std::size_t> plan_layer_budgets(const Tile& tile,
                                            const Image& img,
                                            const CodingParams& params) {
  // Layer budgets: final from the rate target (or "everything" for
  // lossless), intermediates spaced logarithmically (each layer roughly
  // doubles the bit budget — the usual quality-progressive spacing).
  std::size_t final_budget;
  if (params.rate > 0.0) {
    final_budget = static_cast<std::size_t>(
        params.rate * static_cast<double>(img.raw_bytes()));
  } else {
    std::size_t all = 4096;
    for (const auto& tc : tile.components) {
      for (const auto& sb : tc.subbands) {
        for (const auto& cb : sb.blocks) all += cb.enc.data.size() + 8;
      }
    }
    final_budget = 2 * all;  // effectively unbounded
  }
  std::vector<std::size_t> budgets(static_cast<std::size_t>(params.layers));
  for (int l = 0; l < params.layers; ++l) {
    budgets[static_cast<std::size_t>(l)] =
        final_budget >> (params.layers - 1 - l);
  }
  return budgets;
}

void force_lossless_final_layer(Tile& tile) {
  for (auto& tc : tile.components) {
    for (auto& sb : tc.subbands) {
      for (auto& cb : sb.blocks) {
        cb.included_passes = static_cast<int>(cb.enc.passes.size());
        cb.included_len = cb.enc.data.size();
        if (!cb.layer_passes.empty()) {
          cb.layer_passes.back() = cb.included_passes;
        }
      }
    }
  }
}

namespace {

/// One tile's QCD metadata in layout order.
std::vector<std::vector<StreamHeader::BandMeta>> tile_band_meta(
    const Tile& tile) {
  std::vector<std::vector<StreamHeader::BandMeta>> meta(
      tile.components.size());
  for (std::size_t c = 0; c < tile.components.size(); ++c) {
    for (const auto& sb : tile.components[c].subbands) {
      meta[c].push_back({static_cast<std::uint8_t>(sb.info.orient),
                         static_cast<std::uint8_t>(sb.info.level),
                         sb.band_numbps, sb.quant_step});
    }
  }
  return meta;
}

}  // namespace

std::size_t tile_framing_reserve(const std::vector<Tile*>& tiles) {
  if (tiles.size() <= 1) return 0;
  std::size_t total = 0;
  for (const Tile* tp : tiles) {
    const std::size_t nbands =
        tp->components.empty() ? 0 : tp->components.front().subbands.size();
    total += tile_part_overhead_bytes(tp->components.size(), nbands);
  }
  return total;
}

RateControlStats allocate_rate_across_tiles(
    const std::vector<Tile*>& tiles, const Image& img,
    const CodingParams& params, const std::vector<HullSegment>& segments,
    RateControlStats stats, const SizingFn& sizer) {
  CJ2K_CHECK_MSG(params.rate > 0.0 || params.layers > 1,
                 "rate allocation needs a rate target or multiple layers");
  // Multi-tile streams repeat the SOT/QCD/SOD framing per tile; reserve it
  // out of the scan budgets so the assembled stream still meets the global
  // target.  Single-tile reserve is 0 (the original arithmetic).
  const std::size_t reserve = tile_framing_reserve(tiles);
  if (params.layers > 1) {
    auto budgets = plan_layer_budgets_tiles(tiles, img, params);
    for (auto& b : budgets) b = b > reserve ? b - reserve : 0;
    auto rc = rate_control_layered_presorted_tiles(tiles, budgets, segments,
                                                   stats, sizer);
    if (params.rate <= 0.0) {
      for (Tile* tp : tiles) force_lossless_final_layer(*tp);
    }
    return rc;
  }
  const auto target = static_cast<std::size_t>(
      params.rate * static_cast<double>(img.raw_bytes()));
  const std::size_t budget = target > reserve ? target - reserve : 0;
  return rate_control_presorted_tiles(tiles, budget, segments, stats, sizer);
}

std::vector<std::uint8_t> frame_codestream_tiles(
    const std::vector<const Tile*>& tiles, const TileGrid& grid,
    const Image& img, const CodingParams& params,
    const std::vector<std::vector<std::uint8_t>>& packets) {
  CJ2K_CHECK_MSG(tiles.size() == grid.num_tiles() &&
                     packets.size() == tiles.size(),
                 "tile/packet count does not match the grid");
  StreamHeader hdr;
  hdr.width = img.width();
  hdr.height = img.height();
  hdr.components = img.components();
  hdr.bit_depth = img.bit_depth();
  hdr.tile_w = grid.tile_w();
  hdr.tile_h = grid.tile_h();
  hdr.params = params;
  const bool integer =
      params.wavelet == WaveletKind::kReversible53 || params.fixed_point_97;
  std::vector<TilePart> parts(tiles.size());
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    const Tile& t = *tiles[i];
    // Never emit a stream the decoder must refuse (validate keeps this
    // from firing on the sample depths it admits).
    for (const TileComponent& tc : t.components) {
      if (integer &&
          !inverse_fits(tc, params.wavelet, t.width, t.height, t.levels)) {
        throw InvalidArgument(
            "coefficient magnitudes exceed the integer inverse transform");
      }
    }
    parts[i].band_meta = tile_band_meta(t);
    parts[i].packets = packets[i];
  }
  return write_codestream(hdr, parts);
}

std::vector<std::uint8_t> frame_codestream(
    const Tile& tile, const Image& img, const CodingParams& params,
    const std::vector<std::uint8_t>& packets) {
  const TileGrid grid = TileGrid::plan(img.width(), img.height(), 1, 1);
  return frame_codestream_tiles({&tile}, grid, img, params, {packets});
}

std::vector<std::uint8_t> finish_tile(Tile& tile, const Image& img,
                                      const CodingParams& params,
                                      EncodeStats* stats) {
  Timer stage;

  // Rate control / layer allocation.
  if (uses_pcrd_rate_control(params)) {
    RateControlStats hull_stats;
    const auto segments =
        build_sorted_segments(tile, params.wavelet, hull_stats);
    const auto rc =
        allocate_rate_across_tiles({&tile}, img, params, segments, hull_stats);
    if (stats) {
      stats->rate = rc;
      stats->rate_seconds = stage.seconds();
    }
  } else {
    for (auto& tc : tile.components) {
      for (auto& sb : tc.subbands) {
        for (auto& cb : sb.blocks) cb.include_all();
      }
    }
  }

  stage.reset();
  const auto packets = t2_encode(tile);
  auto bytes = frame_codestream(tile, img, params, packets);
  if (stats) stats->t2_seconds = stage.seconds();
  return bytes;
}

std::vector<std::uint8_t> finish_tiles(std::vector<Tile>& tiles,
                                       const TileGrid& grid, const Image& img,
                                       const CodingParams& params,
                                       EncodeStats* stats) {
  CJ2K_CHECK_MSG(tiles.size() == grid.num_tiles(),
                 "tile count does not match the grid");
  Timer stage;
  std::vector<Tile*> ptrs;
  ptrs.reserve(tiles.size());
  for (auto& t : tiles) ptrs.push_back(&t);

  if (uses_pcrd_rate_control(params)) {
    // Per-tile slope-sorted hull lists (distinct ordinal bases keep the
    // tie-break a strict total order across tiles), k-way merged into the
    // global slope order a single λ is scanned over.
    RateControlStats hull_stats;
    std::vector<std::vector<HullSegment>> lists;
    lists.reserve(tiles.size());
    std::uint64_t base = 0;
    for (auto& t : tiles) {
      lists.push_back(
          build_sorted_segments(t, params.wavelet, hull_stats, base));
      base += tile_block_count(t);
    }
    const auto segments = merge_segment_lists(std::move(lists));
    const auto rc =
        allocate_rate_across_tiles(ptrs, img, params, segments, hull_stats);
    if (stats) {
      stats->rate = rc;
      stats->rate_seconds = stage.seconds();
    }
  } else {
    for (auto& t : tiles) {
      for (auto& tc : t.components) {
        for (auto& sb : tc.subbands) {
          for (auto& cb : sb.blocks) cb.include_all();
        }
      }
    }
  }

  stage.reset();
  std::vector<std::vector<std::uint8_t>> packets;
  packets.reserve(tiles.size());
  for (auto& t : tiles) packets.push_back(t2_encode(t));
  std::vector<const Tile*> cptrs(ptrs.begin(), ptrs.end());
  auto bytes = frame_codestream_tiles(cptrs, grid, img, params, packets);
  if (stats) stats->t2_seconds = stage.seconds();
  return bytes;
}

std::vector<std::uint8_t> encode(const Image& img, const CodingParams& params,
                                 EncodeStats* stats) {
  Timer total;
  validate(img, params);
  const TileGrid grid =
      TileGrid::plan(img.width(), img.height(), params.tiles_x, params.tiles_y);
  std::vector<std::uint8_t> bytes;
  if (grid.num_tiles() == 1) {
    Tile tile = build_tile(img, params, stats);
    bytes = finish_tile(tile, img, params, stats);
  } else {
    // Per-tile fronts (stats accumulate across tiles), then the shared
    // cross-tile tail.
    std::vector<Tile> tiles;
    tiles.reserve(grid.num_tiles());
    for (std::size_t i = 0; i < grid.num_tiles(); ++i) {
      const Image timg = extract_tile(img, grid.tile(i));
      EncodeStats ts;
      tiles.push_back(build_tile(timg, params, stats ? &ts : nullptr));
      if (stats) {
        stats->mct_seconds += ts.mct_seconds;
        stats->dwt_seconds += ts.dwt_seconds;
        stats->quant_seconds += ts.quant_seconds;
        stats->t1_seconds += ts.t1_seconds;
        stats->t1_symbols += ts.t1_symbols;
        stats->t1_passes += ts.t1_passes;
      }
    }
    if (stats) stats->samples = img.total_samples();
    bytes = finish_tiles(tiles, grid, img, params, stats);
  }
  if (stats) stats->total_seconds = total.seconds();
  return bytes;
}

}  // namespace cj2k::jp2k
