#include "cell/dma.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "cell/audit.hpp"
#include "cell/trace.hpp"
#include "common/align.hpp"
#include "common/error.hpp"

namespace cj2k::cell {

void DmaEngine::validate(const void* a, const void* b, std::size_t bytes,
                         bool& efficient) const {
  if (bytes == 0) throw CellHardwareError("zero-byte DMA transfer");
  if (bytes > kMaxTransfer) {
    throw CellHardwareError("DMA transfer exceeds 16 KB MFC limit");
  }
  const bool small = bytes == 1 || bytes == 2 || bytes == 4 || bytes == 8;
  if (small) {
    // Naturally aligned small transfers.
    if (!is_aligned(a, bytes) || !is_aligned(b, bytes)) {
      throw CellHardwareError("small DMA transfer must be naturally aligned");
    }
    efficient = false;
    return;
  }
  if (!is_multiple_of(bytes, kQuadWordBytes) ||
      !is_aligned(a, kQuadWordBytes) || !is_aligned(b, kQuadWordBytes)) {
    throw CellHardwareError(
        "DMA transfer must be a multiple of 16 bytes with quad-word "
        "aligned addresses");
  }
  // The *efficient* path: both addresses cache-line aligned and the size an
  // even multiple of the line (Kistler et al., cited by the paper).
  efficient = is_aligned(a, kCacheLineBytes) &&
              is_aligned(b, kCacheLineBytes) &&
              is_multiple_of(bytes, kCacheLineBytes);
}

void DmaEngine::get_impl(void* ls_dst, const void* main_src,
                         std::size_t bytes) {
  bool efficient = false;
  validate(ls_dst, main_src, bytes, efficient);
  std::memcpy(ls_dst, main_src, bytes);
  c_->dma_bytes_in += bytes;
  ++c_->dma_transfers;
  if (!efficient) ++c_->dma_unaligned;
  if (audit_ != nullptr) audit_->record_dma(bytes, efficient);
}

void DmaEngine::put_impl(const void* ls_src, void* main_dst,
                         std::size_t bytes) {
  bool efficient = false;
  validate(ls_src, main_dst, bytes, efficient);
  std::memcpy(main_dst, ls_src, bytes);
  c_->dma_bytes_out += bytes;
  ++c_->dma_transfers;
  if (!efficient) ++c_->dma_unaligned;
  if (audit_ != nullptr) audit_->record_dma(bytes, efficient);
}

void DmaEngine::get(void* ls_dst, const void* main_src, std::size_t bytes) {
  get_impl(ls_dst, main_src, bytes);
  if (trace_ != nullptr) trace_->on_sync(bytes, /*is_get=*/true);
}

void DmaEngine::put(const void* ls_src, void* main_dst, std::size_t bytes) {
  put_impl(ls_src, main_dst, bytes);
  if (trace_ != nullptr) trace_->on_sync(bytes, /*is_get=*/false);
}

void DmaEngine::issue_async(void* ls, std::size_t bytes, unsigned tag,
                            bool is_get, bool fenced) {
  // Range records exist only for the audit: without one every hazard
  // report would be dropped, so nothing is recorded or scanned.
  if (audit_ != nullptr) record_pending(ls, bytes, tag, is_get, fenced);
  pending_mask_ |= 1u << tag;
  issued_mask_ |= 1u << tag;
  ++c_->dma_tagged_transfers;
  c_->dma_bytes_tagged += bytes;
  if (trace_ != nullptr) trace_->on_issue(tag, bytes, is_get, fenced);
}

void DmaEngine::record_pending(void* ls, std::size_t bytes, unsigned tag,
                               bool is_get, bool fenced) {
  // Hazard: the new transfer's Local Store range overlaps one still in
  // flight.  A fenced issue on the *same* tag is the legal re-targeting
  // idiom (ordered after the in-flight transfer); everything else is the
  // classic double-buffering bug.
  const auto lo = reinterpret_cast<std::uintptr_t>(ls);
  const std::uintptr_t hi = lo + bytes;
  const Pending* hazard = nullptr;
  bool folded = false;
  for (const Pending& p : pending_) {
    if (hazard == nullptr && lo < p.hi && p.lo < hi &&
        !(fenced && p.tag == tag)) {
      hazard = &p;
    }
    folded = folded || (p.lo == lo && p.hi == hi && p.tag == tag);
  }
  if (hazard != nullptr) {
    report_hazard(TagHazard::kReuseInFlight,
                  "tag " + std::to_string(tag) +
                      " re-targets a Local Store range in flight on tag " +
                      std::to_string(hazard->tag) +
                      " without a same-tag fence");
  }
  // An identical same-tag record is already pending: it retires on the same
  // waits and, sitting earlier in the list, answers every later query first,
  // so a second record could never change a report (DESIGN.md §10).
  if (!folded) pending_.push_back({lo, hi, tag, is_get});
}

void DmaEngine::get_async(void* ls_dst, const void* main_src,
                          std::size_t bytes, unsigned tag) {
  if (tag >= kNumTags) throw CellHardwareError("DMA tag out of range");
  get_impl(ls_dst, main_src, bytes);
  issue_async(ls_dst, bytes, tag, /*is_get=*/true, /*fenced=*/false);
}

void DmaEngine::put_async(const void* ls_src, void* main_dst,
                          std::size_t bytes, unsigned tag) {
  if (tag >= kNumTags) throw CellHardwareError("DMA tag out of range");
  put_impl(ls_src, main_dst, bytes);
  issue_async(const_cast<void*>(ls_src), bytes, tag, /*is_get=*/false,
              /*fenced=*/false);
}

void DmaEngine::getf_async(void* ls_dst, const void* main_src,
                           std::size_t bytes, unsigned tag) {
  if (tag >= kNumTags) throw CellHardwareError("DMA tag out of range");
  get_impl(ls_dst, main_src, bytes);
  issue_async(ls_dst, bytes, tag, /*is_get=*/true, /*fenced=*/true);
}

void DmaEngine::putf_async(const void* ls_src, void* main_dst,
                           std::size_t bytes, unsigned tag) {
  if (tag >= kNumTags) throw CellHardwareError("DMA tag out of range");
  put_impl(ls_src, main_dst, bytes);
  issue_async(const_cast<void*>(ls_src), bytes, tag, /*is_get=*/false,
              /*fenced=*/true);
}

void DmaEngine::wait_tag(unsigned tag) {
  if (tag >= kNumTags) throw CellHardwareError("DMA tag out of range");
  wait_tag_mask(1u << tag);
}

void DmaEngine::wait_tag_mask(std::uint32_t mask) {
  if (mask == 0) {
    throw CellHardwareError("DMA tag wait on an empty mask");
  }
  if ((mask & issued_mask_) == 0) {
    throw CellHardwareError(
        "DMA tag wait on tags never issued (wait on nothing)");
  }
  retire_tags(mask, __builtin_popcount(mask) == 1 ? "wait_tag"
                                                  : "wait_tag_mask");
}

void DmaEngine::wait_all() { retire_tags(~0u, "wait_all"); }

void DmaEngine::retire_tags(std::uint32_t mask, const char* wait_kind) {
  const std::uint32_t retired = pending_mask_ & mask;
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [mask](const Pending& p) {
                                  return (mask & (1u << p.tag)) != 0;
                                }),
                 pending_.end());
  pending_mask_ &= ~mask;
  if (trace_ != nullptr && retired != 0) trace_->on_wait(retired, wait_kind);
}

void DmaEngine::touch(const void* ls_ptr, std::size_t bytes) {
  if (audit_ == nullptr) return;
  const auto lo = reinterpret_cast<std::uintptr_t>(ls_ptr);
  const std::uintptr_t hi = lo + bytes;
  for (const Pending& p : pending_) {
    if (lo < p.hi && p.lo < hi) {
      report_hazard(TagHazard::kTouchBeforeWait,
                    "buffer touched while its " +
                        std::string(p.is_get ? "get" : "put") +
                        " is in flight on tag " + std::to_string(p.tag));
      return;
    }
  }
}

void DmaEngine::finish_kernel() {
  if (pending_mask_ != 0) {
    report_hazard(TagHazard::kPendingAtExit,
                  "kernel exit with tags in flight (pending mask 0x" +
                      [this] {
                        char buf[16];
                        std::snprintf(buf, sizeof(buf), "%x", pending_mask_);
                        return std::string(buf);
                      }() +
                      ")");
  }
  reset_tags();
}

void DmaEngine::reset_tags() {
  if (trace_ != nullptr) trace_->on_reset();
  pending_.clear();
  pending_mask_ = 0;
  issued_mask_ = 0;
}

void DmaEngine::report_hazard(TagHazard kind, const std::string& detail) {
  if (audit_ != nullptr) audit_->record_tag_hazard(kind, detail);
}

void DmaEngine::get_large(void* ls_dst, const void* main_src,
                          std::size_t bytes) {
  auto* d = static_cast<std::uint8_t*>(ls_dst);
  const auto* s = static_cast<const std::uint8_t*>(main_src);
  while (bytes > 0) {
    const std::size_t n = bytes < kMaxTransfer ? bytes : kMaxTransfer;
    get(d, s, n);
    d += n;
    s += n;
    bytes -= n;
  }
}

void DmaEngine::put_large(const void* ls_src, void* main_dst,
                          std::size_t bytes) {
  const auto* s = static_cast<const std::uint8_t*>(ls_src);
  auto* d = static_cast<std::uint8_t*>(main_dst);
  while (bytes > 0) {
    const std::size_t n = bytes < kMaxTransfer ? bytes : kMaxTransfer;
    put(s, d, n);
    s += n;
    d += n;
    bytes -= n;
  }
}

}  // namespace cj2k::cell
