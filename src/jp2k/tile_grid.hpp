// Tile grid geometry: partitions the image into a grid of independently
// coded JPEG2000 tiles — the standard's own unit of coarse-grained
// parallelism, one level above the paper's §2 chunk decomposition.
//
// Grid rule: the nominal tile width is rounded up to a whole number of
// cache lines of Samples, so every interior tile's column origin lands on
// a cache-line boundary of the padded source planes and the per-tile chunk
// decomposition keeps the §2 alignment invariants without copying.  Edge
// tiles keep whatever width/height is left (possibly narrower than one
// line — the per-tile encoder handles that like any narrow image).
#pragma once

#include <cstddef>

#include "common/align.hpp"
#include "image/image.hpp"

namespace cj2k::jp2k {

/// Geometry of one tile in the grid (image coordinates).
struct TileRect {
  std::size_t index = 0;  ///< Row-major index: ty * cols + tx.
  std::size_t tx = 0, ty = 0;
  std::size_t x0 = 0, y0 = 0;
  std::size_t w = 0, h = 0;
};

class TileGrid {
 public:
  /// Samples per cache line — the granule tile column origins snap to.
  static constexpr std::size_t kLineElems = kCacheLineBytes / sizeof(Sample);
  /// Most tiles a grid may have: Isot is a 16-bit field.
  static constexpr std::size_t kMaxTiles = 65535;

  /// Plans a grid of (at most) tiles_x × tiles_y tiles.  The nominal tile
  /// width is ceil(width / tiles_x) rounded up to a cache line of Samples
  /// (clamped to the image width), so a requested split of a narrow image
  /// may collapse to fewer columns; rows split exactly.
  static TileGrid plan(std::size_t image_w, std::size_t image_h,
                       std::size_t tiles_x, std::size_t tiles_y);

  /// Rebuilds a grid from the nominal tile size carried in the codestream
  /// SIZ segment (the canonical geometry both coder sides share).
  static TileGrid from_tile_size(std::size_t image_w, std::size_t image_h,
                                 std::size_t tile_w, std::size_t tile_h);

  std::size_t image_w() const { return image_w_; }
  std::size_t image_h() const { return image_h_; }
  std::size_t tile_w() const { return tile_w_; }  ///< Nominal width.
  std::size_t tile_h() const { return tile_h_; }  ///< Nominal height.
  std::size_t cols() const { return cols_; }
  std::size_t rows() const { return rows_; }
  std::size_t num_tiles() const { return cols_ * rows_; }

  /// Tile geometry by row-major index; edge tiles are clamped to the
  /// image boundary.
  TileRect tile(std::size_t index) const;
  TileRect tile_at(std::size_t tx, std::size_t ty) const;

 private:
  TileGrid() = default;

  std::size_t image_w_ = 0, image_h_ = 0;
  std::size_t tile_w_ = 0, tile_h_ = 0;
  std::size_t cols_ = 0, rows_ = 0;
};

/// Copies one tile out of the image into a fresh (row-padded) sub-image.
Image extract_tile(const Image& img, const TileRect& r);

/// Copies a decoded tile image back into its rectangle of `out`.
void blit_tile(const Image& tile_img, const TileRect& r, Image& out);

}  // namespace cj2k::jp2k
