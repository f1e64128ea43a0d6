#include "jp2k/tile_grid.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cj2k::jp2k {

TileGrid TileGrid::plan(std::size_t image_w, std::size_t image_h,
                        std::size_t tiles_x, std::size_t tiles_y) {
  CJ2K_CHECK_MSG(image_w >= 1 && image_h >= 1, "empty image");
  CJ2K_CHECK_MSG(tiles_x >= 1 && tiles_y >= 1, "tile grid must be >= 1x1");
  const std::size_t nominal_w = std::min(
      image_w, round_up(ceil_div(image_w, tiles_x), kLineElems));
  const std::size_t nominal_h = ceil_div(image_h, tiles_y);
  return from_tile_size(image_w, image_h, nominal_w, nominal_h);
}

TileGrid TileGrid::from_tile_size(std::size_t image_w, std::size_t image_h,
                                  std::size_t tile_w, std::size_t tile_h) {
  CJ2K_CHECK_MSG(image_w >= 1 && image_h >= 1, "empty image");
  CJ2K_CHECK_MSG(tile_w >= 1 && tile_w <= image_w && tile_h >= 1 &&
                     tile_h <= image_h,
                 "tile size out of range");
  TileGrid g;
  g.image_w_ = image_w;
  g.image_h_ = image_h;
  g.tile_w_ = tile_w;
  g.tile_h_ = tile_h;
  g.cols_ = ceil_div(image_w, tile_w);
  g.rows_ = ceil_div(image_h, tile_h);
  // No real grid comes close; the codestream parser rejects hostile ones.
  CJ2K_CHECK_MSG(g.cols_ * g.rows_ <= kMaxTiles,
                 "tile grid exceeds 65535 tiles");
  return g;
}

TileRect TileGrid::tile_at(std::size_t tx, std::size_t ty) const {
  CJ2K_CHECK_MSG(tx < cols_ && ty < rows_, "tile coordinate out of range");
  TileRect r;
  r.index = ty * cols_ + tx;
  r.tx = tx;
  r.ty = ty;
  r.x0 = tx * tile_w_;
  r.y0 = ty * tile_h_;
  r.w = std::min(tile_w_, image_w_ - r.x0);
  r.h = std::min(tile_h_, image_h_ - r.y0);
  return r;
}

TileRect TileGrid::tile(std::size_t index) const {
  CJ2K_CHECK_MSG(index < num_tiles(), "tile index out of range");
  return tile_at(index % cols_, index / cols_);
}

Image extract_tile(const Image& img, const TileRect& r) {
  CJ2K_CHECK_MSG(r.x0 + r.w <= img.width() && r.y0 + r.h <= img.height(),
                 "tile rectangle outside the image");
  Image out(r.w, r.h, img.components(), img.bit_depth());
  for (std::size_t c = 0; c < img.components(); ++c) {
    for (std::size_t y = 0; y < r.h; ++y) {
      std::copy_n(img.plane(c).row(r.y0 + y) + r.x0, r.w,
                  out.plane(c).row(y));
    }
  }
  return out;
}

void blit_tile(const Image& tile_img, const TileRect& r, Image& out) {
  CJ2K_CHECK_MSG(tile_img.width() == r.w && tile_img.height() == r.h &&
                     tile_img.components() == out.components(),
                 "tile image does not match its rectangle");
  CJ2K_CHECK_MSG(r.x0 + r.w <= out.width() && r.y0 + r.h <= out.height(),
                 "tile rectangle outside the image");
  for (std::size_t c = 0; c < out.components(); ++c) {
    for (std::size_t y = 0; y < r.h; ++y) {
      std::copy_n(tile_img.plane(c).row(y), r.w,
                  out.plane(c).row(r.y0 + y) + r.x0);
    }
  }
}

}  // namespace cj2k::jp2k
