#include "jp2k/decoder.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "decomp/host_pool.hpp"
#include "jp2k/codestream.hpp"
#include "jp2k/dwt2d.hpp"
#include "jp2k/ht_block.hpp"
#include "jp2k/mct.hpp"
#include "jp2k/quant.hpp"
#include "jp2k/t1_decoder.hpp"
#include "jp2k/t2_decoder.hpp"
#include "jp2k/tile_grid.hpp"

namespace cj2k::jp2k {

namespace {

/// Rows per task of the final colour stage.
constexpr std::size_t kColorBandRows = 16;

/// Rebuilds one tile's skeleton (geometry + the tile-part's QCD metadata)
/// for the T2 decoder to fill in.
Tile make_skeleton(const StreamHeader& hdr, const TilePart& part,
                   std::size_t tile_w, std::size_t tile_h) {
  Tile tile;
  tile.width = tile_w;
  tile.height = tile_h;
  tile.levels = hdr.params.levels;
  tile.layers = hdr.params.layers;
  const bool reversible = hdr.params.wavelet == WaveletKind::kReversible53;
  for (std::size_t c = 0; c < hdr.components; ++c) {
    TileComponent tc;
    const auto layout = subband_layout(tile_w, tile_h, hdr.params.levels);
    // The parser guarantees one QCD entry per component; the band count is
    // only known against the tile's geometry, so a hostile QCD that drops
    // or adds a band is caught here.
    if (part.band_meta[c].size() != layout.size()) {
      throw CodestreamError("QCD band count does not match the tile's " +
                            std::to_string(layout.size()) + " subbands");
    }
    for (std::size_t b = 0; b < layout.size(); ++b) {
      Subband sb;
      sb.info = layout[b];
      const auto& bm = part.band_meta[c][b];
      if (static_cast<SubbandOrient>(bm.orient) != sb.info.orient ||
          bm.level != sb.info.level) {
        throw CodestreamError("QCD band order mismatch");
      }
      sb.band_numbps = bm.numbps;
      sb.quant_step = bm.step;
      make_block_grid(sb, hdr.params.cb_width, hdr.params.cb_height);
      tc.subbands.push_back(std::move(sb));
    }
    // The float 9/7 cannot overflow; the integer inverses can.
    if ((reversible || hdr.params.fixed_point_97) &&
        !inverse_fits(tc, hdr.params.wavelet, tile_w, tile_h,
                      hdr.params.levels)) {
      throw CodestreamError("QCD magnitudes overflow the inverse transform");
    }
    tile.components.push_back(std::move(tc));
  }
  return tile;
}

/// Tier-1 dispatch: one code block through whichever block coder the
/// stream was produced with.
void decode_block(const StreamHeader& hdr, const Subband& sb,
                  const CodeBlock& cb, Span2d<Sample> dst) {
  if (hdr.params.block_coder == BlockCoder::kHt) {
    ht_decode_block(cb.enc.data.data(), cb.enc.data.size(),
                    cb.enc.num_bitplanes, dst);
  } else {
    t1_decode_block(cb.enc.data.data(), cb.enc.data.size(),
                    cb.enc.num_bitplanes, cb.included_passes, sb.info.orient,
                    dst, hdr.params.t1);
  }
}

/// Decodes one tile-part into a tile-sized image (all paths are tile-local
/// — inverse DWT, dequantization, and MCT never cross tile boundaries).
///
/// Three data-parallel phases on the host pool (DESIGN.md §15), each a pure
/// function of its inputs, so the image never depends on the core count:
///  1. Tier-1: the code blocks of every component as one flat list.  A 5/3
///     block decodes in place into its component's output plane; a 9/7 block
///     decodes into its slot's scratch and is dequantized straight into the
///     component's float plane (or, in Q13, into the output plane).
///  2. The inverse DWT of every component as one call, whose column strips
///     and row bands share one flat index space.
///  3. Inverse RCT/ICT, level shift and clamp over bands of rows.
///
/// No plane is zeroed up front: each is first written inside a parallel
/// phase.  The code blocks cover every sample exactly once, so phase 1
/// writes all of the float planes' samples (their padding is never read)
/// and all of the output planes' samples on the 5/3 and Q13 paths; phase 3
/// writes every output sample on the float path, and zeroes every output
/// row's padding on all three.
Image decode_tile(const StreamHeader& hdr, const TilePart& part,
                  std::size_t tile_w, std::size_t tile_h,
                  const std::vector<std::uint8_t>& bytes, int max_layers) {
  Tile tile = make_skeleton(hdr, part, tile_w, tile_h);
  tile.progression = static_cast<int>(hdr.params.progression);
  const std::size_t consumed = t2_decode(bytes.data() + part.packet_offset,
                                         part.packet_size, tile, max_layers);
  if (consumed > part.packet_size) {
    throw CodestreamError("packet stream overrun");
  }

  const std::size_t w = tile_w;
  const std::size_t h = tile_h;
  const std::size_t ncomp = hdr.components;
  const unsigned depth = hdr.bit_depth;
  const int levels = hdr.params.levels;
  const bool color = hdr.params.mct && ncomp >= 3;
  const bool reversible = hdr.params.wavelet == WaveletKind::kReversible53;
  const bool fixed = !reversible && hdr.params.fixed_point_97;

  // The 5/3 and Q13 coefficients live in the output planes themselves; the
  // float 9/7 path needs its own planes (same stride as the output).
  Image img = Image::for_overwrite(w, h, ncomp, depth);
  const std::size_t stride = img.plane(0).stride();
  std::vector<std::unique_ptr<float[]>> fplanes(reversible || fixed ? 0
                                                                    : ncomp);
  for (auto& f : fplanes) {
    f = std::make_unique_for_overwrite<float[]>(stride * h);
  }

  struct BlockRef {
    const Subband* sb;
    const CodeBlock* cb;
    std::size_t component;
  };
  std::vector<BlockRef> blocks;
  for (std::size_t c = 0; c < ncomp; ++c) {
    for (const auto& sb : tile.components[c].subbands) {
      for (const auto& cb : sb.blocks) blocks.push_back({&sb, &cb, c});
    }
  }
  std::vector<std::vector<Sample>> scratch(decomp::host_slots());
  decomp::parallel_for(blocks.size(), [&](std::size_t i, std::size_t slot) {
    const BlockRef& br = blocks[i];
    const std::size_t bw = br.cb->w;
    const std::size_t bh = br.cb->h;
    const std::size_t x0 = br.sb->info.x0 + br.cb->x0;
    const std::size_t y0 = br.sb->info.y0 + br.cb->y0;
    Plane& out = img.plane(br.component);
    if (reversible) {
      decode_block(hdr, *br.sb, *br.cb, out.view().subview(x0, y0, bw, bh));
      return;
    }
    std::vector<Sample>& buf = scratch[slot];
    if (buf.size() < bw * bh) buf.resize(bw * bh);
    decode_block(hdr, *br.sb, *br.cb, Span2d<Sample>(buf.data(), bw, bh));
    const double step = br.sb->quant_step;
    for (std::size_t y = 0; y < bh; ++y) {
      const Sample* q = buf.data() + y * bw;
      if (fixed) {
        dequantize_fixed_row(q, out.row(y0 + y) + x0, bw, step);
      } else {
        dequantize_row(q, &fplanes[br.component][(y0 + y) * stride + x0],
                       bw, step);
      }
    }
  });

  if (reversible || fixed) {
    std::vector<Span2d<Sample>> planes;
    for (std::size_t c = 0; c < ncomp; ++c) {
      planes.push_back(img.plane(c).view());
    }
    if (reversible) {
      inverse53(planes, levels);
    } else {
      inverse97_fixed(planes, levels);
    }
  } else {
    std::vector<Span2d<float>> planes;
    for (auto& f : fplanes) planes.emplace_back(f.get(), w, h, stride);
    inverse97(planes, levels);
  }

  const std::size_t nbands = (h + kColorBandRows - 1) / kColorBandRows;
  decomp::parallel_for(nbands, [&](std::size_t band, std::size_t) {
    const std::size_t y_end = std::min(h, (band + 1) * kColorBandRows);
    for (std::size_t y = band * kColorBandRows; y < y_end; ++y) {
      // The colour transform covers components 0-2.  The float inverse ICT
      // also level-shifts them; every other row is level-shifted below.
      std::size_t c = 0;
      if (color) {
        Sample* p0 = img.plane(0).row(y);
        Sample* p1 = img.plane(1).row(y);
        Sample* p2 = img.plane(2).row(y);
        if (reversible) {
          rct_inverse_row(p0, p1, p2, w);
        } else if (fixed) {
          ict_inverse_row_fixed(p0, p1, p2, p0, p1, p2, w);
        } else {
          ict_inverse_row(&fplanes[0][y * stride], &fplanes[1][y * stride],
                          &fplanes[2][y * stride], p0, p1, p2, w, depth);
          c = 3;
        }
      }
      for (; c < ncomp; ++c) {
        Sample* dst = img.plane(c).row(y);
        if (reversible || fixed) {
          // Q13 samples the inverse ICT has not brought back to integers.
          if (fixed && (!color || c >= 3)) fixed_to_int_row(dst, dst, w);
          level_unshift_row(dst, w, depth);
        } else {
          unshift_float_row(&fplanes[c][y * stride], dst, w, depth);
        }
      }
      for (std::size_t k = 0; k < ncomp; ++k) {
        Sample* row = img.plane(k).row(y);
        std::fill(row + w, row + stride, Sample{0});
      }
    }
  });
  return img;
}

}  // namespace

Image decode(const std::vector<std::uint8_t>& bytes, int max_layers) {
  std::vector<TilePart> parts;
  const StreamHeader hdr = parse_codestream(bytes, parts);

  const TileGrid grid =
      TileGrid::from_tile_size(hdr.width, hdr.height, hdr.tile_w, hdr.tile_h);
  if (grid.num_tiles() == 1) {
    return decode_tile(hdr, parts[0], hdr.width, hdr.height, bytes,
                       max_layers);
  }

  // Isot-indexed reassembly: parts[i] is tile i regardless of the order
  // the tile-parts appeared in the stream.
  Image img(hdr.width, hdr.height, hdr.components, hdr.bit_depth);
  for (std::size_t i = 0; i < grid.num_tiles(); ++i) {
    const TileRect rect = grid.tile(i);
    const Image timg =
        decode_tile(hdr, parts[i], rect.w, rect.h, bytes, max_layers);
    blit_tile(timg, rect, img);
  }
  return img;
}

}  // namespace cj2k::jp2k
