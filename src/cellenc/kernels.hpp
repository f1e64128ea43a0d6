// SPE kernel building blocks shared by the pipeline stages: exact-size DMA
// row transfers and the SIMD row arithmetic.
//
// Every row kernel is written once, as a template over a vector policy `V`
// (the one-source-many-targets pattern): V is either the counting
// cell::Simd, which performs the computation AND leaves the op counts the
// cost model consumes, or the uncounted backend::HostVec (SSE2/NEON or
// scalar host code; backend/native_simd.hpp).  Both expose the same method
// names, so one kernel body yields the same bytes on either — the stage
// entry points pick the instantiation once per call (backend/
// kernel_backend.hpp).  cellcheck treats a function taking `V&` for a
// template parameter V as SPE-resident code, like one taking `Simd&`.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "backend/kernel_backend.hpp"
#include "backend/native_simd.hpp"
#include "cell/dma.hpp"
#include "cell/machine.hpp"
#include "cell/simd.hpp"
#include "common/align.hpp"
#include "image/image.hpp"
#include "jp2k/dwt97.hpp"
#include "jp2k/mct.hpp"

namespace cj2k::cellenc {

/// Tag-grouped asynchronous row transfers (double-buffering building
/// blocks): every piece of the row — bulk <=16 KB transfers plus 4-byte
/// tails — is issued on `tag` without waiting.  Completion is claimed with
/// dma.wait_tag()/wait_tag_mask()/wait_all().  The fenced variants order
/// the whole row after everything previously issued on the same tag (the
/// mfc_getf/putf idiom), which is what lets a kernel re-target a Local
/// Store buffer whose previous transfer is still in flight.
void dma_get_row_tagged(cell::DmaEngine& dma, void* ls_dst,
                        const void* main_src, std::size_t elems,
                        unsigned tag);
void dma_put_row_tagged(cell::DmaEngine& dma, const void* ls_src,
                        void* main_dst, std::size_t elems, unsigned tag);
void dma_getf_row_tagged(cell::DmaEngine& dma, void* ls_dst,
                         const void* main_src, std::size_t elems,
                         unsigned tag);
void dma_putf_row_tagged(cell::DmaEngine& dma, const void* ls_src,
                         void* main_dst, std::size_t elems, unsigned tag);

/// Audit-driven row padding: widens a row transfer of 4-byte elements to a
/// whole number of 128-byte cache lines whenever the plane's stride has
/// room, so awkward widths (e.g. the 1586-wide Fig.5 workload) keep the
/// whole transfer on the efficient bulk path instead of tripping the DMA
/// audit's tail counters.  Plane rows are cache-line aligned and their
/// stride padding is zero-initialized, so a caller widening its transfers
/// must keep the tail bytes stable: either fetch-and-restore them untouched
/// or write zeros.
inline std::size_t padded_row_elems(std::size_t elems,
                                    std::size_t stride_elems) {
  const std::size_t padded =
      round_up(elems, kCacheLineBytes / sizeof(Sample));
  return padded <= stride_elems ? padded : elems;
}

/// The vector policy an SPE region runs its kernels on: the SPE's counting
/// Simd handle, or a fresh uncounted host policy.
template <class V>
V vec_policy(cell::SpeContext& ctx) {
  if constexpr (std::is_same_v<V, cell::Simd>) {
    return ctx.simd;
  } else {
    return V{};
  }
}

/// Calls `f(std::type_identity<V>{})` with the vector policy V the backend
/// names: the one place a stage entry point turns its BackendKind into a
/// kernel instantiation.
template <class F>
decltype(auto) with_policy(backend::BackendKind bk, F&& f) {
  return bk == backend::BackendKind::kNative
             ? f(std::type_identity<backend::HostVec>{})
             : f(std::type_identity<cell::Simd>{});
}

// --- SIMD row arithmetic ----------------------------------------------------
// All row helpers require `n` to be reachable with a scalar tail; pointers
// must be quad-word aligned (Local Store allocations are).  Vector loops run
// only where all 4 lanes are in [0, n), so no kernel touches the pad words
// padded_row_elems() appends to a row transfer.

namespace detail {

/// Vector main loop + scalar tail, the shape of every row kernel.
template <class V, typename VecBody, typename ScalarBody>
void row_loop(V& s, std::size_t n, VecBody&& vec, ScalarBody&& scalar) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vec(i);
    s.scalar_ops(1);  // loop bookkeeping
  }
  for (; i < n; ++i) {
    scalar(i);
    s.scalar_ops(4);  // scalar tail: ~4 ops per element
  }
}

}  // namespace detail

/// Merged level-shift + RCT on three integer rows (lossless MCT kernel).
template <class V>
void simd_shift_rct_row(V& s, Sample* r, Sample* g, Sample* b, std::size_t n,
                        unsigned depth) {
  const auto off = s.splat(Sample{1} << (depth - 1));
  detail::row_loop(
      s, n,
      [&](std::size_t i) {
        const auto rr = s.sub(s.load(r + i), off);
        const auto gg = s.sub(s.load(g + i), off);
        const auto bb = s.sub(s.load(b + i), off);
        // Y = (R + 2G + B) >> 2; U = B - G; V = R - G.
        s.store(r + i, s.sra(s.add(s.add(rr, bb), s.add(gg, gg)), 2));
        s.store(g + i, s.sub(bb, gg));
        s.store(b + i, s.sub(rr, gg));
      },
      [&](std::size_t i) {
        const Sample off1 = Sample{1} << (depth - 1);
        const Sample rr = r[i] - off1, gg = g[i] - off1, bb = b[i] - off1;
        r[i] = (rr + 2 * gg + bb) >> 2;
        g[i] = bb - gg;
        b[i] = rr - gg;
      });
}

/// Level shift only (single-component / extra components).
template <class V>
void simd_shift_row(V& s, Sample* x, std::size_t n, unsigned depth) {
  const auto off = s.splat(Sample{1} << (depth - 1));
  detail::row_loop(
      s, n, [&](std::size_t i) { s.store(x + i, s.sub(s.load(x + i), off)); },
      [&](std::size_t i) { x[i] -= Sample{1} << (depth - 1); });
}

/// Merged level-shift + ICT: integer RGB rows -> float YCbCr rows.
template <class V>
void simd_shift_ict_row(V& s, const Sample* r, const Sample* g,
                        const Sample* b, float* y, float* cb, float* cr,
                        std::size_t n, unsigned depth) {
  const float offf = static_cast<float>(Sample{1} << (depth - 1));
  const auto off = s.splat(offf);
  const auto c_yr = s.splat(0.299f), c_yg = s.splat(0.587f),
             c_yb = s.splat(0.114f);
  const auto c_br = s.splat(-0.168736f), c_bg = s.splat(-0.331264f),
             c_bb = s.splat(0.5f);
  const auto c_rr = s.splat(0.5f), c_rg = s.splat(-0.418688f),
             c_rb = s.splat(-0.081312f);
  detail::row_loop(
      s, n,
      [&](std::size_t i) {
        const auto rr = s.sub(s.to_float(s.load(r + i)), off);
        const auto gg = s.sub(s.to_float(s.load(g + i)), off);
        const auto bb = s.sub(s.to_float(s.load(b + i)), off);
        s.store(y + i, s.madd(c_yb, bb, s.madd(c_yg, gg, s.mul(c_yr, rr))));
        s.store(cb + i, s.madd(c_bb, bb, s.madd(c_bg, gg, s.mul(c_br, rr))));
        s.store(cr + i, s.madd(c_rb, bb, s.madd(c_rg, gg, s.mul(c_rr, rr))));
      },
      [&](std::size_t i) {
        const float rr = static_cast<float>(r[i]) - offf;
        const float gg = static_cast<float>(g[i]) - offf;
        const float bb = static_cast<float>(b[i]) - offf;
        y[i] = 0.299f * rr + 0.587f * gg + 0.114f * bb;
        cb[i] = -0.168736f * rr - 0.331264f * gg + 0.5f * bb;
        cr[i] = 0.5f * rr - 0.418688f * gg - 0.081312f * bb;
      });
}

/// Integer->float with level shift (non-color lossy path).
template <class V>
void simd_shift_to_float_row(V& s, const Sample* x, float* out, std::size_t n,
                             unsigned depth) {
  const float offf = static_cast<float>(Sample{1} << (depth - 1));
  const auto off = s.splat(offf);
  detail::row_loop(
      s, n,
      [&](std::size_t i) {
        s.store(out + i, s.sub(s.to_float(s.load(x + i)), off));
      },
      [&](std::size_t i) { out[i] = static_cast<float>(x[i]) - offf; });
}

/// row_d -= (row_a + row_b) >> 1   (5/3 vertical predict, across a chunk).
template <class V>
void simd_predict53_row(V& s, Sample* d, const Sample* a, const Sample* b,
                        std::size_t n) {
  detail::row_loop(
      s, n,
      [&](std::size_t i) {
        const auto sum = s.add(s.load(a + i), s.load(b + i));
        s.store(d + i, s.sub(s.load(d + i), s.sra(sum, 1)));
      },
      [&](std::size_t i) { d[i] -= (a[i] + b[i]) >> 1; });
}

/// row_d += (row_a + row_b + 2) >> 2   (5/3 vertical update).
template <class V>
void simd_update53_row(V& s, Sample* d, const Sample* a, const Sample* b,
                       std::size_t n) {
  const auto two = s.splat(Sample{2});
  detail::row_loop(
      s, n,
      [&](std::size_t i) {
        const auto sum = s.add(s.add(s.load(a + i), s.load(b + i)), two);
        s.store(d + i, s.add(s.load(d + i), s.sra(sum, 2)));
      },
      [&](std::size_t i) { d[i] += (a[i] + b[i] + 2) >> 2; });
}

/// row_x += c * (row_a + row_b)   (9/7 vertical lifting step, float).
template <class V>
void simd_lift97_row(V& s, float* x, const float* a, const float* b, float c,
                     std::size_t n) {
  const auto cv = s.splat(c);
  detail::row_loop(
      s, n,
      [&](std::size_t i) {
        const auto sum = s.add(s.load(a + i), s.load(b + i));
        s.store(x + i, s.madd(cv, sum, s.load(x + i)));
      },
      [&](std::size_t i) { x[i] += c * (a[i] + b[i]); });
}

/// row_x *= c   (9/7 scaling).
template <class V>
void simd_scale_row(V& s, float* x, float c, std::size_t n) {
  const auto cv = s.splat(c);
  detail::row_loop(
      s, n, [&](std::size_t i) { s.store(x + i, s.mul(s.load(x + i), cv)); },
      [&](std::size_t i) { x[i] *= c; });
}

/// Dead-zone quantization of a float row into integer indices.
template <class V>
void simd_quant_row(V& s, const float* in, Sample* out, std::size_t n,
                    float inv_step) {
  const auto scalar = [&](std::size_t i) {
    const float v = in[i];
    const Sample q = static_cast<Sample>((v < 0 ? -v : v) * inv_step);
    out[i] = v < 0 ? -q : q;
    s.scalar_ops(4);
  };
  // Scalar prologue until the (co-aligned) pointers reach a quad boundary —
  // subband segments start at arbitrary offsets within the row.
  std::size_t i = 0;
  while (i < n && !is_aligned(in + i, kQuadWordBytes)) scalar(i++);
  const auto inv = s.splat(inv_step);
  const auto zero = s.splat(Sample{0});
  for (; i + 4 <= n; i += 4) {
    const auto v = s.load(in + i);
    const auto q = s.to_int_trunc(s.mul(s.abs(v), inv));
    s.store(out + i, s.select_neg(s.neg_mask(v), s.sub(zero, q), q));
    s.scalar_ops(1);
  }
  for (; i < n; ++i) scalar(i);
}

/// Splits an interleaved row (Sample or float) into its even- and
/// odd-indexed halves (the horizontal-filtering "splitting step"; 2 loads +
/// 2 shuffles + 2 stores per 8 elements on the SPU).
template <class V, typename T>
void simd_deinterleave_row(V& s, const T* in, T* even, T* odd,
                           std::size_t n) {
  // 8 interleaved elements -> one even + one odd quad word.
  const std::size_t vec_end = n - n % 8;
  for (std::size_t i = 0; i < vec_end; i += 8) {
    const auto a = s.load(in + i);
    const auto b = s.load(in + i + 4);
    s.store(even + i / 2, s.even_lanes(a, b));
    s.store(odd + i / 2, s.odd_lanes(a, b));
    s.scalar_ops(1);
  }
  for (std::size_t i = vec_end; i < n; ++i) {
    T* const half = i % 2 == 0 ? even : odd;
    half[i / 2] = in[i];
    s.scalar_ops(3);
  }
}

// --- Horizontal DWT row kernels ---------------------------------------------
// One full in-LS row each: deinterleave into even/odd halves, lifting with
// clamped mirror boundaries, (9/7) scaling — matching the host lifting
// core's dwt_merged::row_analyze_* bit for bit.

/// In-LS horizontal 5/3 of one row (matches dwt_merged::row_analyze_53).
template <class V>
void simd_dwt53_h_row(V& s, const Sample* in, Sample* even, Sample* odd,
                      std::size_t n) {
  simd_deinterleave_row(s, in, even, odd, n);
  const std::size_t nl = (n + 1) / 2;
  const std::size_t nh = n - nl;
  if (nh == 0) return;
  // Predict: odd[i] -= (even[i] + even[min(i+1, nl-1)]) >> 1.
  std::size_t i = 0;
  for (; i + 4 <= nh && i + 5 <= nl; i += 4) {
    const auto e0 = s.load(even + i);
    const auto e1 = s.load_shifted(even + i + 1);
    s.store(odd + i, s.sub(s.load(odd + i), s.sra(s.add(e0, e1), 1)));
    s.scalar_ops(1);
  }
  for (; i < nh; ++i) {
    odd[i] -= (even[i] + even[std::min(i + 1, nl - 1)]) >> 1;
    s.scalar_ops(4);
  }
  // Update: even[i] += (odd[i ? i-1 : 0] + odd[min(i, nh-1)] + 2) >> 2.
  const auto two = s.splat(Sample{2});
  even[0] += (odd[0] + odd[0] + 2) >> 2;
  s.scalar_ops(4);
  // Scalar until the even[] pointer is quad aligned again, then vectors
  // (aligned even loads/stores, shuffle-shifted odd loads).
  i = 1;
  for (; i < std::min<std::size_t>(4, nl); ++i) {
    even[i] += (odd[i - 1] + odd[std::min(i, nh - 1)] + 2) >> 2;
    s.scalar_ops(4);
  }
  for (; i + 4 <= nl && i + 4 <= nh; i += 4) {
    const auto o0 = s.load_shifted(odd + i - 1);
    const auto o1 = s.load(odd + i);
    s.store(even + i,
            s.add(s.load(even + i), s.sra(s.add(s.add(o0, o1), two), 2)));
    s.scalar_ops(1);
  }
  for (; i < nl; ++i) {
    even[i] += (odd[i - 1] + odd[std::min(i, nh - 1)] + 2) >> 2;
    s.scalar_ops(4);
  }
}

/// In-LS horizontal 9/7 of one row (matches dwt_merged::row_analyze_97).
template <class V>
void simd_dwt97_h_row(V& s, const float* in, float* even, float* odd,
                      std::size_t n) {
  simd_deinterleave_row(s, in, even, odd, n);
  const std::size_t nl = (n + 1) / 2;
  const std::size_t nh = n - nl;
  if (nh == 0) return;  // single sample: untouched
  const auto predict_like = [&](float* d, const float* e, float c) {
    // d[i] += c * (e[i] + e[min(i+1, nl-1)])
    const auto cv = s.splat(c);
    std::size_t i = 0;
    for (; i + 4 <= nh && i + 5 <= nl; i += 4) {
      const auto e0 = s.load(e + i);
      const auto e1 = s.load_shifted(e + i + 1);
      s.store(d + i, s.madd(cv, s.add(e0, e1), s.load(d + i)));
      s.scalar_ops(1);
    }
    for (; i < nh; ++i) {
      d[i] += c * (e[i] + e[std::min(i + 1, nl - 1)]);
      s.scalar_ops(4);
    }
  };
  const auto update_like = [&](float* e, const float* d, float c) {
    // e[i] += c * (d[i ? i-1 : 0] + d[min(i, nh-1)])
    const auto cv = s.splat(c);
    e[0] += c * (d[0] + d[0]);
    s.scalar_ops(4);
    std::size_t i = 1;
    for (; i < std::min<std::size_t>(4, nl); ++i) {
      e[i] += c * (d[i - 1] + d[std::min(i, nh - 1)]);
      s.scalar_ops(4);
    }
    for (; i + 4 <= nl && i + 4 <= nh; i += 4) {
      const auto d0 = s.load_shifted(d + i - 1);
      const auto d1 = s.load(d + i);
      s.store(e + i, s.madd(cv, s.add(d0, d1), s.load(e + i)));
      s.scalar_ops(1);
    }
    for (; i < nl; ++i) {
      e[i] += c * (d[i - 1] + d[std::min(i, nh - 1)]);
      s.scalar_ops(4);
    }
  };
  predict_like(odd, even, jp2k::dwt97::kAlpha);
  update_like(even, odd, jp2k::dwt97::kBeta);
  predict_like(odd, even, jp2k::dwt97::kGamma);
  update_like(even, odd, jp2k::dwt97::kDelta);
  simd_scale_row(s, even, 1.0f / jp2k::dwt97::kK, nl);
  simd_scale_row(s, odd, jp2k::dwt97::kK, nh);
}

// --- Q13 fixed-point kernels (the paper's §4 "before" arithmetic) -----------
// Each 32-bit multiply is an *emulated* SPE instruction sequence, which is
// exactly why these kernels lose to the float ones in the cost model.

/// Q13 fixed-point 9/7 lifting step (the ablation the paper replaces):
/// row_x += fix_mul(c_q13, row_a + row_b) — charged as emulated multiplies.
template <class V>
void simd_lift97_fixed_row(V& s, std::int32_t* x, const std::int32_t* a,
                           const std::int32_t* b, std::int32_t c_q13,
                           std::size_t n) {
  const auto cv = s.splat(c_q13);
  detail::row_loop(
      s, n,
      [&](std::size_t i) {
        const auto sum = s.add(s.load(a + i), s.load(b + i));
        s.store(x + i, s.add(s.load(x + i), s.mul_fix_q13(cv, sum)));
      },
      [&](std::size_t i) {
        x[i] += static_cast<std::int32_t>(
            (static_cast<std::int64_t>(c_q13) * (a[i] + b[i])) >> 13);
      });
}

/// row_x *= c_q13 (Q13 multiply; 9/7 fixed scaling step).
template <class V>
void simd_scale_fixed_row(V& s, Sample* x, Sample c_q13, std::size_t n) {
  const auto cv = s.splat(c_q13);
  detail::row_loop(
      s, n,
      [&](std::size_t i) {
        s.store(x + i, s.mul_fix_q13(s.load(x + i), cv));
      },
      [&](std::size_t i) { x[i] = jp2k::dwt97::fix_mul(x[i], c_q13); });
}

/// Merged level-shift + fixed-point ICT: integer RGB rows -> Q13 YCbCr.
template <class V>
void simd_shift_ict_fixed_row(V& s, const Sample* r, const Sample* g,
                              const Sample* b, Sample* y, Sample* cb,
                              Sample* cr, std::size_t n, unsigned depth) {
  const Sample offs = Sample{1} << (depth - 1);
  const auto off = s.splat(offs);
  const auto yr = s.splat(jp2k::kIctFxYr), yg = s.splat(jp2k::kIctFxYg),
             yb = s.splat(jp2k::kIctFxYb);
  const auto br = s.splat(jp2k::kIctFxBr), bg = s.splat(jp2k::kIctFxBg),
             bb2 = s.splat(jp2k::kIctFxBb);
  const auto rr2 = s.splat(jp2k::kIctFxRr), rg = s.splat(jp2k::kIctFxRg),
             rb = s.splat(jp2k::kIctFxRb);
  detail::row_loop(
      s, n,
      [&](std::size_t i) {
        const auto rv = s.sub(s.load(r + i), off);
        const auto gv = s.sub(s.load(g + i), off);
        const auto bv = s.sub(s.load(b + i), off);
        s.store(y + i,
                s.add(s.add(s.mul_emulated(yr, rv), s.mul_emulated(yg, gv)),
                      s.mul_emulated(yb, bv)));
        s.store(cb + i,
                s.add(s.add(s.mul_emulated(br, rv), s.mul_emulated(bg, gv)),
                      s.mul_emulated(bb2, bv)));
        s.store(cr + i,
                s.add(s.add(s.mul_emulated(rr2, rv), s.mul_emulated(rg, gv)),
                      s.mul_emulated(rb, bv)));
      },
      [&](std::size_t i) {
        const Sample rv = r[i] - offs, gv = g[i] - offs, bv = b[i] - offs;
        y[i] = jp2k::kIctFxYr * rv + jp2k::kIctFxYg * gv + jp2k::kIctFxYb * bv;
        cb[i] =
            jp2k::kIctFxBr * rv + jp2k::kIctFxBg * gv + jp2k::kIctFxBb * bv;
        cr[i] =
            jp2k::kIctFxRr * rv + jp2k::kIctFxRg * gv + jp2k::kIctFxRb * bv;
      });
}

/// Level shift to Q13 (non-color fixed path).
template <class V>
void simd_shift_to_fixed_row(V& s, const Sample* x, Sample* out,
                             std::size_t n, unsigned depth) {
  const Sample offs = Sample{1} << (depth - 1);
  const auto off = s.splat(offs);
  detail::row_loop(
      s, n,
      [&](std::size_t i) {
        s.store(out + i, s.sll(s.sub(s.load(x + i), off), 13));
      },
      [&](std::size_t i) { out[i] = (x[i] - offs) << 13; });
}

/// Fixed-point dead-zone quantization via Q16 reciprocal multiply
/// (64-bit product = two emulated multiplies per vector).
template <class V>
void simd_quant_fixed_row(V& s, const Sample* in_q13, Sample* out,
                          std::size_t n, std::int64_t inv_q16) {
  const auto scalar = [&](std::size_t i) {
    const Sample v = in_q13[i];
    const std::int64_t a = v < 0 ? -static_cast<std::int64_t>(v) : v;
    const Sample q = static_cast<Sample>((a * inv_q16) >> 29);
    out[i] = v < 0 ? -q : q;
    s.scalar_ops(6);
  };
  std::size_t i = 0;
  while (i < n && !is_aligned(in_q13 + i, kQuadWordBytes)) scalar(i++);
  for (; i + 4 <= n; i += 4) {
    s.store(out + i, s.quant_q16(s.load(in_q13 + i), inv_q16));
    s.scalar_ops(1);
  }
  for (; i < n; ++i) scalar(i);
}

/// In-LS horizontal 9/7 in Q13 fixed point (matches
/// dwt_merged::row_analyze_97_fixed).
template <class V>
void simd_dwt97_fixed_h_row(V& s, const Sample* in, Sample* even, Sample* odd,
                            std::size_t n) {
  simd_deinterleave_row(s, in, even, odd, n);
  const std::size_t nl = (n + 1) / 2;
  const std::size_t nh = n - nl;
  if (nh == 0) return;
  const auto predict_like = [&](Sample* d, const Sample* e, Sample c) {
    const auto cv = s.splat(c);
    std::size_t i = 0;
    for (; i + 4 <= nh && i + 5 <= nl; i += 4) {
      const auto e0 = s.load(e + i);
      const auto e1 = s.load_shifted(e + i + 1);
      s.store(d + i, s.add(s.load(d + i), s.mul_fix_q13(cv, s.add(e0, e1))));
      s.scalar_ops(1);
    }
    for (; i < nh; ++i) {
      d[i] += jp2k::dwt97::fix_mul(c, e[i] + e[std::min(i + 1, nl - 1)]);
      s.scalar_ops(6);
    }
  };
  const auto update_like = [&](Sample* e, const Sample* d, Sample c) {
    const auto cv = s.splat(c);
    e[0] += jp2k::dwt97::fix_mul(c, d[0] + d[0]);
    s.scalar_ops(6);
    std::size_t i = 1;
    for (; i < std::min<std::size_t>(4, nl); ++i) {
      e[i] += jp2k::dwt97::fix_mul(c, d[i - 1] + d[std::min(i, nh - 1)]);
      s.scalar_ops(6);
    }
    for (; i + 4 <= nl && i + 4 <= nh; i += 4) {
      const auto d0 = s.load_shifted(d + i - 1);
      const auto d1 = s.load(d + i);
      s.store(e + i, s.add(s.load(e + i), s.mul_fix_q13(cv, s.add(d0, d1))));
      s.scalar_ops(1);
    }
    for (; i < nl; ++i) {
      e[i] += jp2k::dwt97::fix_mul(c, d[i - 1] + d[std::min(i, nh - 1)]);
      s.scalar_ops(6);
    }
  };
  predict_like(odd, even, jp2k::dwt97::kFxAlpha);
  update_like(even, odd, jp2k::dwt97::kFxBeta);
  predict_like(odd, even, jp2k::dwt97::kFxGamma);
  update_like(even, odd, jp2k::dwt97::kFxDelta);
  simd_scale_fixed_row(s, even, jp2k::dwt97::kFxInvK, nl);
  simd_scale_fixed_row(s, odd, jp2k::dwt97::kFxK, nh);
}

}  // namespace cj2k::cellenc
