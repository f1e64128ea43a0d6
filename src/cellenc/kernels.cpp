#include "cellenc/kernels.hpp"

#include <algorithm>

#include "common/align.hpp"

namespace cj2k::cellenc {

namespace {

/// Shared splitting logic for the tagged row transfers: bulk <=16 KB
/// pieces plus 4-byte tails, all issued asynchronously on one tag.  Only
/// the first piece of a fenced row carries the fence on real hardware; the
/// model fences every piece, which is equivalent (later pieces of the same
/// row never overlap the first) and keeps the in-flight checker simple.
template <typename IssueFn>
void issue_row_tagged(void* ls, std::size_t elems, IssueFn&& piece) {
  const std::size_t bytes = elems * 4;
  const std::size_t bulk = round_down(bytes, kQuadWordBytes);
  auto* p = static_cast<std::uint8_t*>(ls);
  std::size_t off = 0;
  while (off < bulk) {
    const std::size_t n =
        std::min(bulk - off, cell::DmaEngine::kMaxTransfer);
    piece(p + off, off, n);
    off += n;
  }
  for (; off < bytes; off += 4) piece(p + off, off, 4);
}

}  // namespace

void dma_get_row_tagged(cell::DmaEngine& dma, void* ls_dst,
                        const void* main_src, std::size_t elems,
                        unsigned tag) {
  const auto* s = static_cast<const std::uint8_t*>(main_src);
  issue_row_tagged(ls_dst, elems,
                   [&](std::uint8_t* d, std::size_t off, std::size_t n) {
                     dma.get_async(d, s + off, n, tag);
                   });
}

void dma_put_row_tagged(cell::DmaEngine& dma, const void* ls_src,
                        void* main_dst, std::size_t elems, unsigned tag) {
  auto* d = static_cast<std::uint8_t*>(main_dst);
  issue_row_tagged(const_cast<void*>(ls_src), elems,
                   [&](std::uint8_t* s, std::size_t off, std::size_t n) {
                     dma.put_async(s, d + off, n, tag);
                   });
}

void dma_getf_row_tagged(cell::DmaEngine& dma, void* ls_dst,
                         const void* main_src, std::size_t elems,
                         unsigned tag) {
  const auto* s = static_cast<const std::uint8_t*>(main_src);
  issue_row_tagged(ls_dst, elems,
                   [&](std::uint8_t* d, std::size_t off, std::size_t n) {
                     dma.getf_async(d, s + off, n, tag);
                   });
}

void dma_putf_row_tagged(cell::DmaEngine& dma, const void* ls_src,
                         void* main_dst, std::size_t elems, unsigned tag) {
  auto* d = static_cast<std::uint8_t*>(main_dst);
  issue_row_tagged(const_cast<void*>(ls_src), elems,
                   [&](std::uint8_t* s, std::size_t off, std::size_t n) {
                     dma.putf_async(s, d + off, n, tag);
                   });
}

}  // namespace cj2k::cellenc
