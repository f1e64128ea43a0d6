// Serial reference JPEG2000 encoder: the "Jasper role" in the paper.  The
// Cell pipeline (cellenc/) runs the same math through instrumented kernels
// and must produce bit-identical codestreams.
#pragma once

#include <cstdint>
#include <vector>

#include "image/image.hpp"
#include "jp2k/codestream.hpp"
#include "jp2k/rate_control.hpp"
#include "jp2k/tile_grid.hpp"

namespace cj2k::jp2k {

/// Per-stage wall-clock seconds and work counters from one encode.
struct EncodeStats {
  double mct_seconds = 0;
  double dwt_seconds = 0;
  double quant_seconds = 0;
  double t1_seconds = 0;
  double rate_seconds = 0;
  double t2_seconds = 0;
  double total_seconds = 0;
  std::uint64_t t1_symbols = 0;      ///< MQ decisions across all blocks.
  std::uint64_t t1_passes = 0;
  std::uint64_t samples = 0;         ///< Pixels × components.
  RateControlStats rate;
};

/// The parameter domain every encode entry point accepts (serial, Cell
/// pipeline, service): throws InvalidArgument on out-of-range or
/// unsupported parameter combinations.
void validate(const Image& img, const CodingParams& params);

/// Encodes an image into a codestream.  Throws InvalidArgument on
/// unsupported parameter combinations.
std::vector<std::uint8_t> encode(const Image& img, const CodingParams& params,
                                 EncodeStats* stats = nullptr);

/// Builds the encoded Tile (T1 output, before rate control / T2) — exposed
/// so the Cell pipeline and the tests can share the machinery.  Resets
/// `*stats`, then fills its front and Tier-1 fields.
Tile build_tile(const Image& img, const CodingParams& params,
                EncodeStats* stats = nullptr);

/// The subband skeleton of one w×h tile component: every band's layout and
/// code-block grid, and its quantizer step (1 on the reversible path).
TileComponent make_component_skeleton(std::size_t w, std::size_t h,
                                      const CodingParams& params);

/// The skeleton of a w×h tile of `ncomp` components: its geometry and
/// coding fields and one make_component_skeleton per component.
Tile make_tile_skeleton(std::size_t w, std::size_t h, std::size_t ncomp,
                        const CodingParams& params);

/// What a tile's front leaves for Tier-1: the tile skeleton and, per
/// component, the plane Tier-1 codes (5/3 coefficients, or quantization
/// indices on the 9/7 paths).
struct TileFront {
  Tile tile;
  std::vector<Plane> coeffs;
};

/// The front of a one-tile encode on the host pool: level shift + colour
/// transform straight from `img` and quantization in bands of rows, and
/// jp2k::forward* on every plane.  Adds to the mct/dwt/quant seconds of
/// `stats`.  build_tile and a Cell encode's memo hit (DESIGN.md §13) both
/// run it, so they code the same coefficients by construction.
TileFront build_front(const Image& img, const CodingParams& params,
                      EncodeStats* stats = nullptr);

/// Finishes a set of built tiles (one per grid rect, index order) into a
/// codestream: rate allocation (one λ over the whole image), per-tile
/// Tier-2, tile-part framing.  The one serial back half of every encode.
std::vector<std::uint8_t> finish_tiles(const std::vector<Tile*>& tiles,
                                       const TileGrid& grid, const Image& img,
                                       const CodingParams& params,
                                       EncodeStats* stats = nullptr);

/// finish_tiles over the 1×1 grid of `img`.
std::vector<std::uint8_t> finish_tile(Tile& tile, const Image& img,
                                      const CodingParams& params,
                                      EncodeStats* stats = nullptr);

// The pieces finish_tiles composes, exposed so the Cell pipeline's
// distributed lossy tail (cellenc/stage_rate) reuses exactly the same
// logic and stays byte-identical to the serial reference.

/// Cumulative per-layer byte budgets for a multi-layer encode of a tile
/// set: the final budget from `params.rate` (or "effectively unbounded"
/// when rate <= 0), intermediates spaced logarithmically.
std::vector<std::size_t> plan_layer_budgets(const std::vector<Tile*>& tiles,
                                            const Image& img,
                                            const CodingParams& params);

/// Lossless multi-layer fixup: the final layer must carry every pass (the
/// R-D hull may drop zero-distortion tail passes otherwise).
void force_lossless_final_layer(Tile& tile);

/// Per-tile framing bytes (SOT + QCD + SOD) reserved out of the rate-scan
/// budget on multi-tile encodes.  Zero for a single tile — the original
/// single-tile budget arithmetic is preserved bit-for-bit.
std::size_t tile_framing_reserve(const std::vector<Tile*>& tiles);

/// Cross-tile rate allocation over the pre-merged global slope order:
/// layer planning, budget shrink, greedy scan.  Used by both the serial
/// finish_tiles and the Cell tails so their truncation choices are
/// identical.
RateControlStats allocate_rate_across_tiles(
    const std::vector<Tile*>& tiles, const Image& img,
    const CodingParams& params, const std::vector<HullSegment>& segments,
    RateControlStats stats = {}, const SizingFn& sizer = {});

/// Wraps finished packet streams in the codestream framing: the SIZ/COD/QCD
/// main header, one tile-part per tile (index order; a single tile is the
/// 1×1 grid), EOC.  SIZ carries the grid's nominal tile size.
std::vector<std::uint8_t> frame_codestream_tiles(
    const std::vector<const Tile*>& tiles, const TileGrid& grid,
    const Image& img, const CodingParams& params,
    const std::vector<std::vector<std::uint8_t>>& packets);

}  // namespace cj2k::jp2k
