// Heap buffer with guaranteed alignment (default: the Cell cache line).
// Plane storage and the Cell pipeline's intermediate buffers use this so
// that row starts are genuinely 128-byte aligned — the property the
// decomposition scheme's DMA efficiency depends on.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/align.hpp"

namespace cj2k {

template <typename T>
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  /// `count` value-initialized (zeroed) elements.
  explicit AlignedBuffer(std::size_t count,
                         std::size_t align = kCacheLineBytes) {
    allocate(count, align);
    for (std::size_t i = 0; i < count; ++i) new (data_ + i) T{};
  }

  /// `count` elements left as the allocator returns them.  The caller must
  /// write every element before reading it; that first write is then also
  /// where the pages are faulted in, on whichever thread makes it.
  static AlignedBuffer for_overwrite(std::size_t count,
                                     std::size_t align = kCacheLineBytes) {
    static_assert(std::is_trivially_default_constructible_v<T> &&
                  std::is_trivially_destructible_v<T>);
    AlignedBuffer b;
    b.allocate(count, align);
    return b;
  }

  AlignedBuffer(AlignedBuffer&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        align_(o.align_) {}

  AlignedBuffer& operator=(AlignedBuffer&& o) noexcept {
    if (this != &o) {
      destroy();
      data_ = std::exchange(o.data_, nullptr);
      size_ = std::exchange(o.size_, 0);
      align_ = o.align_;
    }
    return *this;
  }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  ~AlignedBuffer() { destroy(); }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  void allocate(std::size_t count, std::size_t align) {
    size_ = count;
    align_ = align;
    if (count > 0) {
      data_ = static_cast<T*>(
          ::operator new(count * sizeof(T), std::align_val_t{align}));
    }
  }

  void destroy() {
    if (data_) {
      for (std::size_t i = size_; i > 0; --i) data_[i - 1].~T();
      ::operator delete(data_, std::align_val_t{align_});
      data_ = nullptr;
    }
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t align_ = kCacheLineBytes;
};

}  // namespace cj2k
