// Planar multi-component image container.
//
// Samples are stored as 32-bit signed integers per component plane (the same
// intermediate representation Jasper converts to before encoding), row-major,
// with an explicit per-plane stride.  The stride can carry the cache-line row
// padding required by the data decomposition scheme (DESIGN.md §2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/align.hpp"
#include "common/aligned_buffer.hpp"
#include "common/span2d.hpp"

namespace cj2k {

using Sample = std::int32_t;

/// One component plane: a width×height grid of Sample with padded rows.
class Plane {
 public:
  Plane() = default;

  /// Creates a zero-initialized plane.  `row_align_bytes` pads each row so
  /// row starts are aligned to that many bytes (default: Cell cache line).
  Plane(std::size_t width, std::size_t height,
        std::size_t row_align_bytes = kCacheLineBytes);

  /// A plane of the same geometry whose samples and row padding are left
  /// uninitialized: the caller writes every sample of [0, stride) on every
  /// row before the plane is read (AlignedBuffer::for_overwrite).
  static Plane for_overwrite(std::size_t width, std::size_t height,
                             std::size_t row_align_bytes = kCacheLineBytes);

  std::size_t width() const { return width_; }
  std::size_t height() const { return height_; }
  /// Row stride in elements (>= width; width plus padding).
  std::size_t stride() const { return stride_; }

  Span2d<Sample> view() { return {data_.data(), width_, height_, stride_}; }
  Span2d<const Sample> view() const {
    return {data_.data(), width_, height_, stride_};
  }

  Sample& at(std::size_t y, std::size_t x) { return data_[y * stride_ + x]; }
  Sample at(std::size_t y, std::size_t x) const {
    return data_[y * stride_ + x];
  }

  Sample* row(std::size_t y) { return data_.data() + y * stride_; }
  const Sample* row(std::size_t y) const { return data_.data() + y * stride_; }

  /// Total allocated elements, including padding.
  std::size_t allocated_size() const { return data_.size(); }

 private:
  /// Checked geometry for a plane: sets width_, height_ and stride_.
  void set_geometry(std::size_t width, std::size_t height,
                    std::size_t row_align_bytes);

  std::size_t width_ = 0;
  std::size_t height_ = 0;
  std::size_t stride_ = 0;
  AlignedBuffer<Sample> data_;  ///< Cache-line aligned base (see DESIGN.md).
};

/// Multi-component image.  All components share geometry (no subsampling —
/// JPEG2000 Part-1 supports it but the paper's workload is 1:1:1 RGB/grey).
class Image {
 public:
  Image() = default;

  /// Creates `components` zero planes of width×height with `bit_depth`-bit
  /// unsigned samples (value range [0, 2^bit_depth)).
  Image(std::size_t width, std::size_t height, std::size_t components,
        unsigned bit_depth = 8);

  /// The same image with Plane::for_overwrite planes: the caller writes
  /// every sample and every row's padding before the image is read.
  static Image for_overwrite(std::size_t width, std::size_t height,
                             std::size_t components, unsigned bit_depth = 8);

  std::size_t width() const { return width_; }
  std::size_t height() const { return height_; }
  std::size_t components() const { return planes_.size(); }
  unsigned bit_depth() const { return bit_depth_; }

  Plane& plane(std::size_t c) { return planes_.at(c); }
  const Plane& plane(std::size_t c) const { return planes_.at(c); }

  /// Total number of samples across all components (excluding padding).
  std::size_t total_samples() const {
    return width_ * height_ * planes_.size();
  }

  /// Raw size in bytes at the nominal bit depth (for bits-per-pixel math).
  std::size_t raw_bytes() const {
    return total_samples() * ((bit_depth_ + 7) / 8);
  }

 private:
  std::size_t width_ = 0;
  std::size_t height_ = 0;
  unsigned bit_depth_ = 8;
  std::vector<Plane> planes_;
};

}  // namespace cj2k
