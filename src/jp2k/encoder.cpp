#include "jp2k/encoder.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "decomp/host_pool.hpp"
#include "jp2k/dwt2d.hpp"
#include "jp2k/ht_block.hpp"
#include "jp2k/mct.hpp"
#include "jp2k/quant.hpp"
#include "jp2k/t1_encoder.hpp"
#include "jp2k/t2_encoder.hpp"
#include "jp2k/tile_grid.hpp"

namespace cj2k::jp2k {

namespace {

/// The skeleton of a w×h tile component with each band's band_numbps set
/// to the most bit planes an encode could give it: its analysis weights
/// along the rows and the columns times the largest input the colour
/// transform leaves, plus the forward transform's rounding on the integer
/// paths (the 1% covers the filters', the Q13 constants' and float
/// rounding, the additive terms the lifting steps'), divided by its step.
TileComponent worst_case_planes(const CodingParams& p, std::size_t w,
                                std::size_t h, unsigned depth, bool color) {
  const bool rev = p.wavelet == WaveletKind::kReversible53;
  const int q13 = !rev && p.fixed_point_97 ? 13 : 0;
  // Level shift (+ RCT, whose chroma reaches twice the range), in Q13 on
  // the fixed-point path (the ICT's rows sum to at most 1).
  const double input =
      rev ? std::ldexp(1.0, static_cast<int>(depth) - (color ? 0 : 1))
          : std::ldexp(1.0, static_cast<int>(depth) - 1 + q13);
  const double rounding = rev ? 4.0 * p.levels : q13 ? 0x1p12 : 0.0;
  const int eh = transform_levels(w, p.levels);
  const int ev = transform_levels(h, p.levels);
  TileComponent tc = make_component_skeleton(w, h, p);
  for (Subband& sb : tc.subbands) {
    const SubbandOrient o = sb.info.orient;
    // A low direction stops at the levels its dimension ran.
    const auto norm = [&](bool high, int ran) {
      return analysis_norm(p.wavelet, high, std::min(sb.info.level, ran));
    };
    const double coef =
        norm(o == SubbandOrient::HL || o == SubbandOrient::HH, eh) *
            norm(o == SubbandOrient::LH || o == SubbandOrient::HH, ev) *
            input * 1.01 +
        rounding;
    const double q = rev ? coef : coef / std::ldexp(sb.quant_step, q13);
    sb.band_numbps = q < 1 ? 0 : std::ilogb(q) + 1;
  }
  return tc;
}

}  // namespace

void validate(const Image& img, const CodingParams& p) {
  CJ2K_CHECK_MSG(img.components() >= 1, "image has no components");
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
  // gate (inverse_fits) admits every stream of 8-bit samples at workable
  // steps, with more than a bit to spare at 7 levels; the check below
  // refuses the rest.
  if (p.wavelet == WaveletKind::kIrreversible97 && p.fixed_point_97 &&
      img.bit_depth() > 8) {
    throw InvalidArgument("fixed-point 9/7 needs samples of at most 8 bits");
  }
  const double step = effective_base_quant_step(p);
  if (!std::isfinite(step) || !(step > 0)) {
    throw InvalidArgument("quantizer step must be positive and finite");
  }
  // Refuse up front any tile some encode could overflow with: on the float
  // 9/7 path (EBCOT or HT), a quantization index of 2^31 or more, past the
  // 31 magnitude bit planes either block coder codes (a base step too
  // small); on the integer paths, the decoder's integer inverse (a base
  // step too large for Q13, say).  The tile grid has at most four distinct
  // tile shapes: its corners'.
  const TileGrid grid =
      TileGrid::plan(img.width(), img.height(), p.tiles_x, p.tiles_y);
  const bool color = p.mct && img.components() >= 3;
  const bool integer = p.wavelet == WaveletKind::kReversible53 ||
                       p.fixed_point_97;
  for (const std::size_t tx : {std::size_t{0}, grid.cols() - 1}) {
    for (const std::size_t ty : {std::size_t{0}, grid.rows() - 1}) {
      const TileRect r = grid.tile_at(tx, ty);
      const TileComponent tc =
          worst_case_planes(p, r.w, r.h, img.bit_depth(), color);
      if (!integer) {
        for (const Subband& sb : tc.subbands) {
          if (sb.band_numbps > 31) {
            throw InvalidArgument(
                "quantization indices could exceed 31 magnitude bit planes "
                "at this quantizer step, sample depth and level count");
          }
        }
      } else if (!inverse_fits(tc, p.wavelet, r.w, r.h, p.levels)) {
        throw InvalidArgument(
            "coefficient magnitudes could exceed the integer inverse "
            "transform at this quantizer step, sample depth and level "
            "count");
      }
    }
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

/// Rows per band of the front's row phases.
constexpr std::size_t kBandRows = 32;

/// Runs fn(y0, y1) over the bands of kBandRows rows of an h-row plane set
/// on the host pool.
template <class Fn>
void for_each_band(std::size_t h, const Fn& fn) {
  decomp::parallel_for((h + kBandRows - 1) / kBandRows,
                       [&](std::size_t b, std::size_t) {
                         const std::size_t y0 = b * kBandRows;
                         fn(y0, std::min(h, y0 + kBandRows));
                       });
}

/// The 5/3 front: the image copied into working planes with the level
/// shift (+ RCT) merged in, then the DWT.
std::vector<Plane> reversible_front(const Image& img, const CodingParams& p,
                                    bool color, EncodeStats* stats) {
  const std::size_t w = img.width();
  const std::size_t ncomp = img.components();
  const unsigned depth = img.bit_depth();
  Timer stage;
  std::vector<Plane> work;
  work.reserve(ncomp);
  for (std::size_t c = 0; c < ncomp; ++c) work.emplace_back(w, img.height());
  for_each_band(img.height(), [&](std::size_t y0, std::size_t y1) {
    for (std::size_t y = y0; y < y1; ++y) {
      for (std::size_t c = 0; c < ncomp; ++c) {
        std::copy_n(img.plane(c).row(y), w, work[c].row(y));
      }
      std::size_t c = 0;
      if (color) {
        shift_rct_forward_row(work[0].row(y), work[1].row(y), work[2].row(y),
                              w, depth);
        c = 3;
      }
      for (; c < ncomp; ++c) level_shift_row(work[c].row(y), w, depth);
    }
  });
  if (stats) stats->mct_seconds += stage.seconds();

  stage.reset();
  std::vector<Span2d<Sample>> planes;
  for (auto& pl : work) planes.push_back(pl.view());
  forward53(planes, p.levels);
  if (stats) stats->dwt_seconds += stage.seconds();
  return work;
}

/// The 9/7 front on coefficients of type T (float, or Q13 Samples): level
/// shift + ICT straight from the image rows, the DWT, then the
/// quantization into integer planes.  Q13 planes are quantized in place;
/// float ones one component at a time into a new plane, each float plane
/// freed once quantized, so the front peaks at one plane above the float
/// set.
template <class T>
std::vector<Plane> irreversible_front(const Image& img, const CodingParams& p,
                                      bool color, const Tile& tile,
                                      EncodeStats* stats) {
  constexpr bool kFloat = std::is_same_v<T, float>;
  const std::size_t w = img.width();
  const std::size_t h = img.height();
  const std::size_t ncomp = img.components();
  const unsigned depth = img.bit_depth();
  Timer stage;
  std::vector<Plane> q;
  std::vector<AlignedBuffer<float>> fbuf;
  std::vector<Span2d<T>> planes;
  q.reserve(ncomp);
  for (std::size_t c = 0; c < ncomp; ++c) {
    if constexpr (kFloat) {
      const std::size_t stride = img.plane(c).stride();
      planes.emplace_back(fbuf.emplace_back(stride * h).data(), w, h, stride);
    } else {
      planes.push_back(q.emplace_back(w, h).view());
    }
  }
  for_each_band(h, [&](std::size_t y0, std::size_t y1) {
    for (std::size_t y = y0; y < y1; ++y) {
      const auto in = [&](std::size_t c) { return img.plane(c).row(y); };
      std::size_t c = 0;
      if (color) {
        if constexpr (kFloat) {
          shift_ict_forward_row(in(0), in(1), in(2), planes[0].row(y),
                                planes[1].row(y), planes[2].row(y), w, depth);
        } else {
          shift_ict_forward_row_fixed(in(0), in(1), in(2), planes[0].row(y),
                                      planes[1].row(y), planes[2].row(y), w,
                                      depth);
        }
        c = 3;
      }
      for (; c < ncomp; ++c) {
        if constexpr (kFloat) {
          shift_to_float_row(in(c), planes[c].row(y), w, depth);
        } else {
          shift_to_fixed_row(in(c), planes[c].row(y), w, depth);
        }
      }
    }
  });
  if (stats) stats->mct_seconds += stage.seconds();

  stage.reset();
  if constexpr (kFloat) {
    forward97(planes, p.levels);
  } else {
    forward97_fixed(planes, p.levels);
  }
  if (stats) stats->dwt_seconds += stage.seconds();

  stage.reset();
  for (std::size_t c = 0; c < ncomp; ++c) {
    if constexpr (kFloat) q.emplace_back(w, h);
    for_each_band(h, [&](std::size_t y0, std::size_t y1) {
      for (const Subband& sb : tile.components[c].subbands) {
        const std::size_t end = std::min(y1, sb.info.y0 + sb.info.h);
        for (std::size_t y = std::max(y0, sb.info.y0); y < end; ++y) {
          const T* in = planes[c].row(y) + sb.info.x0;
          Sample* out = q[c].row(y) + sb.info.x0;
          if constexpr (kFloat) {
            quantize_row(in, out, sb.info.w, sb.quant_step);
          } else {
            quantize_fixed_row(in, out, sb.info.w, sb.quant_step);
          }
        }
      }
    });
    if constexpr (kFloat) fbuf[c] = {};
  }
  if (stats) stats->quant_seconds += stage.seconds();
  return q;
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

Tile make_tile_skeleton(std::size_t w, std::size_t h, std::size_t ncomp,
                        const CodingParams& p) {
  Tile tile;
  tile.width = w;
  tile.height = h;
  tile.levels = p.levels;
  tile.layers = p.layers;
  tile.progression = static_cast<int>(p.progression);
  tile.components.assign(ncomp, make_component_skeleton(w, h, p));
  return tile;
}

TileFront build_front(const Image& img, const CodingParams& params,
                      EncodeStats* stats) {
  const bool color = params.mct && img.components() >= 3;
  TileFront f;
  f.tile = make_tile_skeleton(img.width(), img.height(), img.components(),
                              params);
  if (params.wavelet == WaveletKind::kReversible53) {
    f.coeffs = reversible_front(img, params, color, stats);
  } else if (params.fixed_point_97) {
    // Q13 fixed point: Jasper's original arithmetic, kept for the paper's
    // §4 fixed-vs-float experiment.
    f.coeffs = irreversible_front<Sample>(img, params, color, f.tile, stats);
  } else {
    f.coeffs = irreversible_front<float>(img, params, color, f.tile, stats);
  }
  return f;
}

namespace {

/// Codes one tile: its front, then Tier-1 over every block.  Adds the
/// tile's times and counts to `stats`.
Tile code_tile(const Image& img, const CodingParams& params,
               EncodeStats* stats) {
  if (stats) stats->samples += img.total_samples();
  TileFront f = build_front(img, params, stats);
  Timer stage;
  for (std::size_t c = 0; c < f.coeffs.size(); ++c) {
    for (auto& sb : f.tile.components[c].subbands) {
      t1_over_band(sb, f.coeffs[c].view(), params, stats);
    }
  }
  if (stats) stats->t1_seconds += stage.seconds();
  return std::move(f.tile);
}

}  // namespace

Tile build_tile(const Image& img, const CodingParams& params,
                EncodeStats* stats) {
  validate(img, params);
  if (stats) *stats = EncodeStats{};
  return code_tile(img, params, stats);
}

std::vector<std::size_t> plan_layer_budgets(const std::vector<Tile*>& tiles,
                                            const Image& img,
                                            const CodingParams& params) {
  // Layer budgets: final from the rate target (or "everything" for
  // lossless: every tile's coded bytes, counted once), intermediates spaced
  // logarithmically (each layer roughly doubles the bit budget — the usual
  // quality-progressive spacing).
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
    auto budgets = plan_layer_budgets(tiles, img, params);
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
  // validate has refused every tile whose stream the decoder could refuse.
  std::vector<TilePart> parts(tiles.size());
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    const Tile& t = *tiles[i];
    parts[i].band_meta = tile_band_meta(t);
    parts[i].packets = packets[i];
  }
  return write_codestream(hdr, parts);
}

std::vector<std::uint8_t> finish_tiles(const std::vector<Tile*>& tiles,
                                       const TileGrid& grid, const Image& img,
                                       const CodingParams& params,
                                       EncodeStats* stats) {
  CJ2K_CHECK_MSG(tiles.size() == grid.num_tiles(),
                 "tile count does not match the grid");
  Timer stage;
  if (uses_pcrd_rate_control(params)) {
    // Per-tile slope-sorted hull lists (distinct ordinal bases keep the
    // tie-break a strict total order across tiles), k-way merged into the
    // global slope order a single λ is scanned over.
    RateControlStats hull_stats;
    std::vector<std::vector<HullSegment>> lists;
    lists.reserve(tiles.size());
    std::uint64_t base = 0;
    for (Tile* tp : tiles) {
      lists.push_back(
          build_sorted_segments(*tp, params.wavelet, hull_stats, base));
      base += tile_block_count(*tp);
    }
    const auto segments = merge_segment_lists(std::move(lists));
    const auto rc =
        allocate_rate_across_tiles(tiles, img, params, segments, hull_stats);
    if (stats) {
      stats->rate = rc;
      stats->rate_seconds = stage.seconds();
    }
  } else {
    for (Tile* tp : tiles) {
      for (auto& tc : tp->components) {
        for (auto& sb : tc.subbands) {
          for (auto& cb : sb.blocks) cb.include_all();
        }
      }
    }
  }

  stage.reset();
  std::vector<std::vector<std::uint8_t>> packets;
  packets.reserve(tiles.size());
  for (const Tile* tp : tiles) packets.push_back(t2_encode(*tp));
  auto bytes = frame_codestream_tiles({tiles.begin(), tiles.end()}, grid, img,
                                      params, packets);
  if (stats) stats->t2_seconds = stage.seconds();
  return bytes;
}

std::vector<std::uint8_t> finish_tile(Tile& tile, const Image& img,
                                      const CodingParams& params,
                                      EncodeStats* stats) {
  return finish_tiles({&tile}, TileGrid::plan(img.width(), img.height(), 1, 1),
                      img, params, stats);
}

std::vector<std::uint8_t> encode(const Image& img, const CodingParams& params,
                                 EncodeStats* stats) {
  Timer total;
  validate(img, params);
  if (stats) *stats = EncodeStats{};
  const TileGrid grid =
      TileGrid::plan(img.width(), img.height(), params.tiles_x, params.tiles_y);
  // Every tile's front and Tier-1 (a tile that covers the image codes `img`
  // itself, uncopied), then the shared cross-tile tail.
  std::vector<Tile> tiles;
  tiles.reserve(grid.num_tiles());
  for (std::size_t i = 0; i < grid.num_tiles(); ++i) {
    const TileRect r = grid.tile(i);
    tiles.push_back(r.w == img.width() && r.h == img.height()
                        ? code_tile(img, params, stats)
                        : code_tile(extract_tile(img, r), params, stats));
  }
  std::vector<Tile*> ptrs;
  for (Tile& t : tiles) ptrs.push_back(&t);
  auto bytes = finish_tiles(ptrs, grid, img, params, stats);
  if (stats) stats->total_seconds = total.seconds();
  return bytes;
}

}  // namespace cj2k::jp2k
