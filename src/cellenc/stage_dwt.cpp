#include "cellenc/stage_dwt.hpp"

#include <algorithm>
#include <string>

#include "cellenc/kernels.hpp"
#include "common/aligned_buffer.hpp"
#include "decomp/chunk.hpp"
#include "jp2k/dwt97.hpp"
#include "jp2k/dwt_extend.hpp"
#include "jp2k/dwt_merged.hpp"

namespace cj2k::cellenc {

namespace {

/// PPE scalar-op charge per sample per lifting sweep (documented estimate:
/// two adds, a shift, a load and a store).
constexpr std::uint64_t kPpeLiftOpsPerSample = 5;

/// Ring depth of a multipass lifting sweep: the row it lifts, its two
/// neighbours and the prefetched next row.
constexpr std::size_t kMultipassRing = 4;

// ===========================================================================
// Filters
// ===========================================================================
// The three transforms share one lifting schedule and differ only in what
// these traits name: the sample type, the vertical lifting steps (predict
// and update for 5/3; alpha, beta, gamma, delta and a scaling for 9/7), the
// horizontal row kernel, the PPE fallbacks and the PPE op charge.  Step s
// of the schedule lifts the rows of parity 1 - s%2 from their neighbours.
//
// The merged vertical schedule lifts row f with step 0, row f-1 with step 1
// and so on, then writes back the two rows that have become final: the high
// row `kParkLag` behind f is parked in the aux buffer and the low row
// `kEmitLag` behind f goes to its place in the top half.  `kRing` is the
// Local Store ring depth that keeps every row the schedule still reads
// resident.

struct Rev53 {
  using T = Sample;
  static constexpr const char* kName = "dwt53";
  static constexpr int kSteps = 2;
  static constexpr bool kScales = false;
  static constexpr std::size_t kRing = 6;
  static constexpr std::ptrdiff_t kParkLag = 2;
  static constexpr std::ptrdiff_t kEmitLag = 1;
  /// PPE charge: kPpeLiftOpsPerSample × this, on the integer pipe.
  static constexpr std::uint64_t kPpeCost = 2;
  static std::uint64_t& ppe_ops(cell::OpCounters& c) { return c.s_int; }

  template <class V>
  static void lift(V& s, int step, T* x, const T* a, const T* b,
                   std::size_t n) {
    if (step == 0) {
      simd_predict53_row(s, x, a, b, n);
    } else {
      simd_update53_row(s, x, a, b, n);
    }
  }
  template <class V>
  static void h_row(V& s, const T* in, T* even, T* odd, std::size_t n) {
    simd_dwt53_h_row(s, in, even, odd, n);
  }
  static void ppe_vertical(Span2d<T> region, std::vector<T>& scratch) {
    jp2k::dwt_merged::vertical_analyze_53(region, scratch);
  }
  static void ppe_row(T* row, std::size_t n, T* scratch) {
    jp2k::dwt_merged::row_analyze_53(row, n, scratch);
  }
};

struct Irrev97 {
  using T = float;
  static constexpr const char* kName = "dwt97";
  static constexpr int kSteps = 4;
  static constexpr bool kScales = true;
  static constexpr std::size_t kRing = 10;
  static constexpr std::ptrdiff_t kParkLag = 4;
  static constexpr std::ptrdiff_t kEmitLag = 5;
  static constexpr std::uint64_t kPpeCost = 3;
  static std::uint64_t& ppe_ops(cell::OpCounters& c) { return c.s_float; }

  template <class V>
  static void lift(V& s, int step, T* x, const T* a, const T* b,
                   std::size_t n) {
    static constexpr float kCoef[kSteps] = {
        jp2k::dwt97::kAlpha, jp2k::dwt97::kBeta, jp2k::dwt97::kGamma,
        jp2k::dwt97::kDelta};
    simd_lift97_row(s, x, a, b, kCoef[step], n);
  }
  template <class V>
  static void scale(V& s, T* x, bool high, std::size_t n) {
    simd_scale_row(s, x, high ? jp2k::dwt97::kK : 1.0f / jp2k::dwt97::kK, n);
  }
  template <class V>
  static void h_row(V& s, const T* in, T* even, T* odd, std::size_t n) {
    simd_dwt97_h_row(s, in, even, odd, n);
  }
  static void ppe_vertical(Span2d<T> region, std::vector<T>& scratch) {
    jp2k::dwt_merged::vertical_analyze_97(region, scratch);
  }
  static void ppe_row(T* row, std::size_t n, T* scratch) {
    jp2k::dwt_merged::row_analyze_97(row, n, scratch);
  }
};

/// 9/7 in Q13 fixed point: the float schedule with emulated-multiply
/// lifting steps.
struct Irrev97Q13 {
  using T = Sample;
  static constexpr const char* kName = "dwt97fx";
  static constexpr int kSteps = Irrev97::kSteps;
  static constexpr bool kScales = true;
  static constexpr std::size_t kRing = Irrev97::kRing;
  static constexpr std::ptrdiff_t kParkLag = Irrev97::kParkLag;
  static constexpr std::ptrdiff_t kEmitLag = Irrev97::kEmitLag;
  static constexpr std::uint64_t kPpeCost = 4;
  static std::uint64_t& ppe_ops(cell::OpCounters& c) { return c.s_int; }

  template <class V>
  static void lift(V& s, int step, T* x, const T* a, const T* b,
                   std::size_t n) {
    static constexpr T kCoef[kSteps] = {
        jp2k::dwt97::kFxAlpha, jp2k::dwt97::kFxBeta, jp2k::dwt97::kFxGamma,
        jp2k::dwt97::kFxDelta};
    simd_lift97_fixed_row(s, x, a, b, kCoef[step], n);
  }
  template <class V>
  static void scale(V& s, T* x, bool high, std::size_t n) {
    simd_scale_fixed_row(
        s, x, high ? jp2k::dwt97::kFxK : jp2k::dwt97::kFxInvK, n);
  }
  template <class V>
  static void h_row(V& s, const T* in, T* even, T* odd, std::size_t n) {
    simd_dwt97_fixed_h_row(s, in, even, odd, n);
  }
  static void ppe_vertical(Span2d<T> region, std::vector<T>& scratch) {
    jp2k::dwt_merged::vertical_analyze_97_fixed(region, scratch);
  }
  static void ppe_row(T* row, std::size_t n, T* scratch) {
    jp2k::dwt_merged::row_analyze_97_fixed(row, n, scratch);
  }
};

// ===========================================================================
// Vertical filtering
// ===========================================================================

/// One column group's rows [0, n) streaming through K Local Store slots.
/// Row r streams in on tag r%K and the finished row streams back out on the
/// same tag, so one wait_tag_mask claims a slot's whole history.  Gets are
/// fenced, which is what lets a slot be re-targeted while its previous
/// occupant's put is still in flight.  Row indices outside [0, n) resolve
/// to their symmetric-extension mirror.  K is a template parameter so the
/// slot and tag arithmetic, done several times per row, divides by a
/// constant.
template <class T, std::size_t K>
class LsRing {
 public:
  LsRing(cell::SpeContext& ctx, Span2d<T> plane, std::size_t x0,
         std::size_t cw, std::size_t n)
      : dma_(ctx.dma), plane_(plane), x0_(x0), cw_(cw), n_(n),
        buf_(ctx.ls.alloc<T>(K * cw)) {}

  /// The ring's first slot, which the two-slot ping/pong sweeps reuse.
  T* base() const { return buf_; }
  T* slot(std::ptrdiff_t i) const {
    return buf_ + jp2k::mirror(i, n_) % K * cw_;
  }
  unsigned tag(std::ptrdiff_t r) const {
    return static_cast<unsigned>(r) % static_cast<unsigned>(K);
  }

  /// Claims rows [0, upto] (clamped to the group), having first issued the
  /// gets through row upto+1 — the prefetched row rides under the lifting
  /// of the rows just claimed.
  void ensure(std::ptrdiff_t upto) {
    const std::ptrdiff_t last = static_cast<std::ptrdiff_t>(n_) - 1;
    while (loaded_ < std::min(upto + 1, last)) {
      ++loaded_;
      dma_getf_row_tagged(dma_, slot(loaded_),
                          plane_.row(static_cast<std::size_t>(loaded_)) + x0_,
                          cw_, tag(loaded_));
    }
    std::uint32_t mask = 0;
    while (waited_ < std::min(upto, last)) {
      ++waited_;
      mask |= 1u << tag(waited_);
    }
    if (mask != 0) dma_.wait_tag_mask(mask);
  }
  /// Restarts the stream at row 0 (the next multipass sweep).
  void rewind() { loaded_ = waited_ = -1; }

  void touch(std::ptrdiff_t i) const { dma_.touch(slot(i), cw_ * sizeof(T)); }
  /// Writes row r back to row `y` of `dst` on row r's tag.
  void put(std::ptrdiff_t r, Span2d<T> dst, std::ptrdiff_t y) const {
    dma_put_row_tagged(dma_, slot(r),
                       dst.row(static_cast<std::size_t>(y)) + x0_, cw_,
                       tag(r));
  }

 private:
  cell::DmaEngine& dma_;
  Span2d<T> plane_;
  std::size_t x0_, cw_, n_;
  T* buf_;
  std::ptrdiff_t loaded_ = -1;
  std::ptrdiff_t waited_ = -1;
};

/// Copies the parked high rows aux[0..) to the bottom half of the group: a
/// compute-free fenced get->put chain on two Local Store rows at `buf0`.
/// Callers drain every tag first, so the aux rows being re-read have
/// actually landed in main memory.
template <class T>
void copy_back_high(cell::SpeContext& ctx, Span2d<T> plane, Span2d<T> aux,
                    std::size_t x0, std::size_t cw, std::size_t hh, T* buf0) {
  T* buf[2] = {buf0, buf0 + cw};
  const std::size_t nl = (hh + 1) / 2;
  for (std::size_t j = 0; nl + j < hh; ++j) {
    const unsigned t = static_cast<unsigned>(j & 1);
    dma_getf_row_tagged(ctx.dma, buf[t], aux.row(j) + x0, cw, t);
    dma_putf_row_tagged(ctx.dma, buf[t], plane.row(nl + j) + x0, cw, t);
  }
  ctx.dma.wait_all();
}

/// The merged vertical schedule on one SPE's column group (paper §4, the
/// Kutil single loop): each input row is fetched once, lifted through every
/// step while resident, low rows are written in place and high rows parked
/// in `aux`, then copied back at the end.
template <class F, class V>
void spe_vertical_merged(cell::SpeContext& ctx, Span2d<typename F::T> plane,
                         std::size_t x0, std::size_t cw, std::size_t hh,
                         Span2d<typename F::T> aux) {
  V s = vec_policy<V>(ctx);
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(hh);
  if (n < 2) return;
  LsRing<typename F::T, F::kRing> ring(ctx, plane, x0, cw, hh);
  const auto finish = [&](std::ptrdiff_t r, std::ptrdiff_t parity,
                          Span2d<typename F::T> dst) {
    if (r < 0 || r >= n || (r & 1) != parity) return;
    if constexpr (F::kScales) {
      ring.touch(r);
      F::scale(s, ring.slot(r), parity == 1, cw);
    }
    ring.put(r, dst, r / 2);
  };
  for (std::ptrdiff_t f = 1; f < n + F::kEmitLag + 1; f += 2) {
    ring.ensure(f + 1);
    for (int step = 0; step < F::kSteps; ++step) {
      const std::ptrdiff_t i = f - step;
      if (i < 0 || i >= n) continue;
      ring.touch(i + 1);
      ring.touch(i);
      F::lift(s, step, ring.slot(i), ring.slot(i - 1), ring.slot(i + 1), cw);
    }
    finish(f - F::kParkLag, 1, aux);
    finish(f - F::kEmitLag, 0, plane);
  }
  ctx.dma.wait_all();
  copy_back_high(ctx, plane, aux, x0, cw, hh, ring.base());
  ctx.ls.reset();
}

/// Multipass scaling sweep (9/7): ping/pong on tags 0/1.  The lifting
/// sweeps put on tag r%K, which does not match this sweep's tag map, so the
/// caller's barrier keeps the re-reads ordered after those writes.
template <class F, class V>
void scale_sweep(cell::SpeContext& ctx, V& s, Span2d<typename F::T> plane,
                 std::size_t x0, std::size_t cw, std::size_t hh,
                 typename F::T* buf0) {
  typename F::T* buf[2] = {buf0, buf0 + cw};
  dma_getf_row_tagged(ctx.dma, buf[0], plane.row(0) + x0, cw, 0);
  for (std::size_t i = 0; i < hh; ++i) {
    const unsigned cur = static_cast<unsigned>(i & 1);
    const unsigned nxt = cur ^ 1u;
    if (i + 1 < hh) {
      dma_getf_row_tagged(ctx.dma, buf[nxt], plane.row(i + 1) + x0, cw, nxt);
    }
    ctx.dma.wait_tag(cur);
    ctx.dma.touch(buf[cur], cw * sizeof(typename F::T));
    F::scale(s, buf[cur], (i & 1) != 0, cw);
    dma_put_row_tagged(ctx.dma, buf[cur], plane.row(i) + x0, cw, cur);
  }
  ctx.dma.wait_all();
}

/// Multipass split sweep: low rows compact in place, high rows go through
/// `aux`.  The compaction writes row i/2 after row i/2 was read, so each
/// get is claimed before issuing the put that could otherwise overtake it
/// on a different tag; the puts themselves stay asynchronous.
template <class T>
void split_sweep(cell::SpeContext& ctx, Span2d<T> plane, Span2d<T> aux,
                 std::size_t x0, std::size_t cw, std::size_t hh, T* buf0) {
  T* buf[2] = {buf0, buf0 + cw};
  for (std::size_t i = 0; i < hh; ++i) {
    const unsigned t = static_cast<unsigned>(i & 1);
    dma_getf_row_tagged(ctx.dma, buf[t], plane.row(i) + x0, cw, t);
    ctx.dma.wait_tag(t);
    if (i % 2 == 0) {
      dma_put_row_tagged(ctx.dma, buf[t], plane.row(i / 2) + x0, cw, t);
    } else {
      dma_put_row_tagged(ctx.dma, buf[t], aux.row(i / 2) + x0, cw, t);
    }
  }
  ctx.dma.wait_all();
  copy_back_high(ctx, plane, aux, x0, cw, hh, buf0);
}

/// Naive multipass vertical schedule (ablation A): one sweep per lifting
/// step, then (9/7) a scaling sweep and a split sweep — each streams the
/// whole group through the Local Store.  Row r keeps tag r%K across the
/// lifting sweeps, so a sweep's fenced re-fetch of row r is ordered after
/// the previous sweep's put of the same row without an inter-pass barrier.
template <class F, class V>
void spe_vertical_multipass(cell::SpeContext& ctx,
                            Span2d<typename F::T> plane, std::size_t x0,
                            std::size_t cw, std::size_t hh,
                            Span2d<typename F::T> aux) {
  V s = vec_policy<V>(ctx);
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(hh);
  if (n < 2) return;
  LsRing<typename F::T, kMultipassRing> ring(ctx, plane, x0, cw, hh);
  for (int step = 0; step < F::kSteps; ++step) {
    ring.rewind();
    for (std::ptrdiff_t i = 1 - step % 2; i < n; i += 2) {
      ring.ensure(i + 1);
      ring.touch(i + 1);
      ring.touch(i);
      F::lift(s, step, ring.slot(i), ring.slot(i - 1), ring.slot(i + 1), cw);
      ring.put(i, plane, i);
    }
  }
  ctx.dma.wait_all();
  if constexpr (F::kScales) {
    scale_sweep<F>(ctx, s, plane, x0, cw, hh, ring.base());
  }
  split_sweep(ctx, plane, aux, x0, cw, hh, ring.base());
  ctx.ls.reset();
}

// ===========================================================================
// Multilevel driver
// ===========================================================================

/// Per level: the vertical pass over column groups (SPEs) plus the
/// remainder columns (PPE), then the horizontal pass over row bands — on
/// the SPEs, or on the PPE alone when there are none.
template <class F, class V>
cell::StageTiming dwt(cell::Machine& m, Span2d<typename F::T> plane,
                      int levels, const DwtOptions& opt) {
  using T = typename F::T;
  cell::StageTiming total;
  total.name = F::kName;
  const std::string vname = std::string(F::kName) + "-vertical";
  const std::string hname = std::string(F::kName) + "-horizontal";
  const auto lanes = static_cast<std::size_t>(std::max(1, m.num_spes()));
  std::size_t ww = plane.width();
  std::size_t hh = plane.height();
  std::vector<T> ppe_scratch;

  for (int l = 0; l < levels && (ww > 1 || hh > 1); ++l) {
    const auto plan =
        opt.colgroup_elems == 0
            ? decomp::plan_chunks(ww, sizeof(T),
                                  static_cast<std::size_t>(m.num_spes()))
            : decomp::plan_chunks_fixed_width(ww, sizeof(T),
                                              opt.colgroup_elems);
    // Park buffer for the high rows of every SPE group.
    AlignedBuffer<T> aux_store(plane.stride() * (hh / 2 + 1));
    Span2d<T> aux(aux_store.data(), ww, hh / 2 + 1, plane.stride());

    auto vwork = [&](int i, cell::SpeContext& ctx) {
      for (std::size_t g = static_cast<std::size_t>(i);
           g < plan.spe_chunks.size(); g += lanes) {
        const auto& ch = plan.spe_chunks[g];
        if (opt.merged_vertical) {
          spe_vertical_merged<F, V>(ctx, plane, ch.x0, ch.width, hh, aux);
        } else {
          spe_vertical_multipass<F, V>(ctx, plane, ch.x0, ch.width, hh, aux);
        }
      }
    };
    // The PPE runs the remainder columns, and the planned column groups
    // too when there is no SPE to run them.
    auto vppe = [&](cell::OpCounters& c) {
      const auto ppe_group = [&](const decomp::Chunk& ch) {
        if (ch.width == 0) return;
        F::ppe_vertical(plane.subview(ch.x0, 0, ch.width, hh), ppe_scratch);
        F::ppe_ops(c) += static_cast<std::uint64_t>(ch.width) * hh *
                         kPpeLiftOpsPerSample * F::kPpeCost;
      };
      if (m.num_spes() == 0) {
        for (const auto& ch : plan.spe_chunks) ppe_group(ch);
      }
      ppe_group(plan.remainder);
    };
    total += m.run_data_parallel(vname, vwork, vppe);

    const auto rows = decomp::split_rows(hh, lanes);
    if (m.num_spes() > 0) {
      auto hwork = [&](int i, cell::SpeContext& ctx) {
        if (static_cast<std::size_t>(i) >= rows.size()) return;
        const auto [start, count] = rows[static_cast<std::size_t>(i)];
        V s = vec_policy<V>(ctx);
        const std::size_t pad = round_up(ww, 32);
        // Whole-cache-line transfers; lin[ww..tw) is fetched, left
        // untouched, and written back, so neighbouring coefficients in the
        // stride round-trip bit-exactly.
        const std::size_t tw = padded_row_elems(ww, plane.stride());
        // Ping/pong: lin is transformed in place, so the prefetch of row
        // y+1 into the other parity *must* be fenced — that buffer's
        // write-back from row y-1 may still be in flight on the same tag.
        T* lin[2] = {ctx.ls.alloc<T>(pad), ctx.ls.alloc<T>(pad)};
        T* even = ctx.ls.alloc<T>(pad / 2 + 4);
        T* odd = ctx.ls.alloc<T>(pad / 2 + 4);
        const std::size_t nl = (ww + 1) / 2;
        dma_getf_row_tagged(ctx.dma, lin[0], plane.row(start), tw, 0);
        for (std::size_t y = start; y < start + count; ++y) {
          const unsigned cur = static_cast<unsigned>((y - start) & 1);
          const unsigned nxt = cur ^ 1u;
          if (y + 1 < start + count) {
            dma_getf_row_tagged(ctx.dma, lin[nxt], plane.row(y + 1), tw,
                                nxt);
          }
          ctx.dma.wait_tag(cur);
          ctx.dma.touch(lin[cur], tw * sizeof(T));
          F::h_row(s, lin[cur], even, odd, ww);
          // Reassemble L|H contiguously so the row goes back in one
          // aligned DMA (writing the H half alone would start at an
          // arbitrary offset and violate the MFC alignment rules).
          s.ls_copy(lin[cur], even, nl * sizeof(T));
          if (ww > nl) s.ls_copy(lin[cur] + nl, odd, (ww - nl) * sizeof(T));
          dma_put_row_tagged(ctx.dma, lin[cur], plane.row(y), tw, cur);
        }
        ctx.dma.wait_all();
        ctx.ls.reset();
      };
      total += m.run_data_parallel(hname, hwork, nullptr);
    } else {
      auto hppe = [&](cell::OpCounters& c) {
        ppe_scratch.resize(ww);
        for (std::size_t y = 0; y < hh; ++y) {
          F::ppe_row(plane.row(y), ww, ppe_scratch.data());
        }
        F::ppe_ops(c) += static_cast<std::uint64_t>(ww) * hh *
                         kPpeLiftOpsPerSample * F::kPpeCost;
      };
      total += m.run_data_parallel(
          hname, [](int, cell::SpeContext&) {}, hppe);
    }

    ww = (ww + 1) / 2;
    hh = (hh + 1) / 2;
  }
  return total;
}

template <class F>
cell::StageTiming dwt_on(backend::BackendKind bk, cell::Machine& m,
                         Span2d<typename F::T> plane, int levels,
                         const DwtOptions& opt) {
  return with_policy(bk, [&](auto v) {
    return dwt<F, typename decltype(v)::type>(m, plane, levels, opt);
  });
}

}  // namespace

cell::StageTiming stage_dwt53(cell::Machine& m, Span2d<Sample> plane,
                              int levels, const DwtOptions& opt,
                              backend::BackendKind bk) {
  return dwt_on<Rev53>(bk, m, plane, levels, opt);
}

cell::StageTiming stage_dwt97(cell::Machine& m, Span2d<float> plane,
                              int levels, const DwtOptions& opt,
                              backend::BackendKind bk) {
  return dwt_on<Irrev97>(bk, m, plane, levels, opt);
}

cell::StageTiming stage_dwt97_fixed(cell::Machine& m, Span2d<Sample> plane,
                                    int levels, const DwtOptions& opt,
                                    backend::BackendKind bk) {
  DwtOptions merged = opt;
  merged.merged_vertical = true;
  return dwt_on<Irrev97Q13>(bk, m, plane, levels, merged);
}

}  // namespace cj2k::cellenc
