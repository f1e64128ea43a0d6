#include "image/image.hpp"

#include "common/error.hpp"

namespace cj2k {

void Plane::set_geometry(std::size_t width, std::size_t height,
                         std::size_t row_align_bytes) {
  CJ2K_CHECK_MSG(width > 0 && height > 0, "plane must be non-empty");
  CJ2K_CHECK_MSG(is_multiple_of(row_align_bytes, sizeof(Sample)),
                 "row alignment must be a multiple of the sample size");
  width_ = width;
  height_ = height;
  stride_ = round_up(width, row_align_bytes / sizeof(Sample));
}

Plane::Plane(std::size_t width, std::size_t height,
             std::size_t row_align_bytes) {
  set_geometry(width, height, row_align_bytes);
  data_ = AlignedBuffer<Sample>(stride_ * height_, row_align_bytes);
}

Plane Plane::for_overwrite(std::size_t width, std::size_t height,
                           std::size_t row_align_bytes) {
  Plane p;
  p.set_geometry(width, height, row_align_bytes);
  p.data_ = AlignedBuffer<Sample>::for_overwrite(p.stride_ * p.height_,
                                                 row_align_bytes);
  return p;
}

namespace {

void check_image(std::size_t components, unsigned bit_depth) {
  CJ2K_CHECK_MSG(components >= 1, "image needs at least one component");
  CJ2K_CHECK_MSG(bit_depth >= 1 && bit_depth <= 16,
                 "bit depth must be in [1,16]");
}

}  // namespace

Image::Image(std::size_t width, std::size_t height, std::size_t components,
             unsigned bit_depth)
    : width_(width), height_(height), bit_depth_(bit_depth) {
  check_image(components, bit_depth);
  planes_.reserve(components);
  for (std::size_t c = 0; c < components; ++c) {
    planes_.emplace_back(width, height);
  }
}

Image Image::for_overwrite(std::size_t width, std::size_t height,
                           std::size_t components, unsigned bit_depth) {
  check_image(components, bit_depth);
  Image img;
  img.width_ = width;
  img.height_ = height;
  img.bit_depth_ = bit_depth;
  img.planes_.reserve(components);
  for (std::size_t c = 0; c < components; ++c) {
    img.planes_.push_back(Plane::for_overwrite(width, height));
  }
  return img;
}

}  // namespace cj2k
