#include "cellenc/stage_mct.hpp"

#include "cellenc/kernels.hpp"
#include "common/error.hpp"
#include "decomp/chunk.hpp"
#include "jp2k/mct.hpp"

namespace cj2k::cellenc {

namespace {

/// Scalar-op charge per sample of a PPE remainder row shifted without the
/// colour transform; each path's trait names the colour transform's charge
/// (the PPE runs the same row functions the serial encoder uses).
constexpr std::uint64_t kPpeShiftOps = 4;

// ===========================================================================
// Paths
// ===========================================================================
// The three paths share the two row streams below and differ only in what
// these traits name: the output sample type, whether the transform runs in
// place, the row kernels, the PPE row functions and the PPE op charge.  `row`
// and `ppe_row` take k = 3 rows (R, G, B) for the colour transform or k = 1
// row for a level shift alone (single components, every component when the
// colour transform is off, and the components after the first three).

/// Lossless: level shift (+ RCT) in place on the integer planes.
struct Lossless53 {
  using Out = Sample;
  static constexpr const char* kName = "levelshift+mct";
  static constexpr bool kInPlace = true;
  static constexpr std::uint64_t kPpeColourOps = 12;
  static std::uint64_t& ppe_ops(cell::OpCounters& c) { return c.s_int; }

  template <class V>
  static void row(V& s, Sample* const* x, Out* const*, std::size_t k,
                  std::size_t n, unsigned depth) {
    if (k == 3) {
      simd_shift_rct_row(s, x[0], x[1], x[2], n, depth);
    } else {
      simd_shift_row(s, x[0], n, depth);
    }
  }
  static void ppe_row(const Sample* const*, Out* const* y, std::size_t k,
                      std::size_t n, unsigned depth) {
    if (k == 3) {
      jp2k::shift_rct_forward_row(y[0], y[1], y[2], n, depth);
    } else {
      jp2k::level_shift_row(y[0], n, depth);
    }
  }
};

/// Lossy: level shift (+ ICT), integer planes -> float planes.
struct LossyFloat {
  using Out = float;
  static constexpr const char* kName = "levelshift+ict";
  static constexpr bool kInPlace = false;
  static constexpr std::uint64_t kPpeColourOps = 22;
  static std::uint64_t& ppe_ops(cell::OpCounters& c) { return c.s_float; }

  template <class V>
  static void row(V& s, Sample* const* x, Out* const* y, std::size_t k,
                  std::size_t n, unsigned depth) {
    if (k == 3) {
      simd_shift_ict_row(s, x[0], x[1], x[2], y[0], y[1], y[2], n, depth);
    } else {
      simd_shift_to_float_row(s, x[0], y[0], n, depth);
    }
  }
  static void ppe_row(const Sample* const* x, Out* const* y, std::size_t k,
                      std::size_t n, unsigned depth) {
    if (k == 3) {
      jp2k::shift_ict_forward_row(x[0], x[1], x[2], y[0], y[1], y[2], n,
                                  depth);
    } else {
      jp2k::shift_to_float_row(x[0], y[0], n, depth);
    }
  }
};

/// Fixed-point lossy (the paper's §4 "before"): level shift (+ fixed ICT),
/// integer planes -> Q13 planes.
struct LossyQ13 {
  using Out = Sample;
  static constexpr const char* kName = "levelshift+ict(fx)";
  static constexpr bool kInPlace = false;
  static constexpr std::uint64_t kPpeColourOps = 22;
  static std::uint64_t& ppe_ops(cell::OpCounters& c) { return c.s_int; }

  template <class V>
  static void row(V& s, Sample* const* x, Out* const* y, std::size_t k,
                  std::size_t n, unsigned depth) {
    if (k == 3) {
      simd_shift_ict_fixed_row(s, x[0], x[1], x[2], y[0], y[1], y[2], n,
                               depth);
    } else {
      simd_shift_to_fixed_row(s, x[0], y[0], n, depth);
    }
  }
  static void ppe_row(const Sample* const* x, Out* const* y, std::size_t k,
                      std::size_t n, unsigned depth) {
    if (k == 3) {
      jp2k::shift_ict_forward_row_fixed(x[0], x[1], x[2], y[0], y[1], y[2],
                                        n, depth);
    } else {
      jp2k::shift_to_fixed_row(x[0], y[0], n, depth);
    }
  }
};

// ===========================================================================
// Driver
// ===========================================================================

template <class P>
using OutPlanes = std::vector<Span2d<typename P::Out>>;

/// Allocates the ping/pong input rows of K components, l[parity][c], then
/// their output rows o[parity][c]: the input rows themselves on an in-place
/// path, which transforms each row in the buffer it arrived in.
template <class P, std::size_t K>
void alloc_rows(cell::SpeContext& ctx, std::size_t cw, Sample* (&l)[2][K],
                typename P::Out* (&o)[2][K]) {
  for (std::size_t c = 0; c < K; ++c) {
    l[0][c] = ctx.ls.alloc<Sample>(cw);
    l[1][c] = ctx.ls.alloc<Sample>(cw);
  }
  for (std::size_t c = 0; c < K; ++c) {
    for (int p = 0; p < 2; ++p) {
      if constexpr (P::kInPlace) {
        o[p][c] = l[p][c];
      } else {
        o[p][c] = ctx.ls.alloc<typename P::Out>(cw);
      }
    }
  }
}

// Both streams ping/pong on tags 0/1 with a constant Local Store footprint.
// An in-place path's gets re-target a buffer whose write-back may still be
// in flight on the same tag, so they are fenced; the other paths write
// distinct output buffers and keep their gets unfenced.

/// Colour on: the first three components stream as (R, G, B) row triples.
/// The other components ride tag 2 as a get->wait->compute->put pipeline:
/// the put stays in flight into the next row, where the get re-targets the
/// buffer behind it.
template <class P, class V>
void colour_stream(cell::SpeContext& ctx,
                   const std::vector<Span2d<const Sample>>& in,
                   const OutPlanes<P>& out, std::size_t x0, std::size_t cw,
                   unsigned depth) {
  using Out = typename P::Out;
  V s = vec_policy<V>(ctx);
  const std::size_t h = in[0].height();
  Sample* l[2][3];
  Out* o[2][3];
  alloc_rows<P>(ctx, cw, l, o);
  Sample* lx = in.size() > 3 ? ctx.ls.alloc<Sample>(cw) : nullptr;
  Out* ox = nullptr;
  if constexpr (P::kInPlace) {
    ox = lx;
  } else {
    ox = in.size() > 3 ? ctx.ls.alloc<Out>(cw) : nullptr;
  }
  for (std::size_t c = 0; c < 3; ++c) {
    if constexpr (P::kInPlace) {
      dma_getf_row_tagged(ctx.dma, l[0][c], in[c].row(0) + x0, cw, 0);
    } else {
      dma_get_row_tagged(ctx.dma, l[0][c], in[c].row(0) + x0, cw, 0);
    }
  }
  for (std::size_t y = 0; y < h; ++y) {
    const unsigned cur = static_cast<unsigned>(y & 1);
    const unsigned nxt = cur ^ 1u;
    for (std::size_t c = 0; c < 3 && y + 1 < h; ++c) {
      const Sample* src = in[c].row(y + 1) + x0;
      if constexpr (P::kInPlace) {
        dma_getf_row_tagged(ctx.dma, l[nxt][c], src, cw, nxt);
      } else {
        dma_get_row_tagged(ctx.dma, l[nxt][c], src, cw, nxt);
      }
    }
    ctx.dma.wait_tag(cur);
    for (std::size_t c = 0; c < 3; ++c) {
      ctx.dma.touch(l[cur][c], cw * sizeof(Sample));
    }
    if constexpr (!P::kInPlace) {
      for (std::size_t c = 0; c < 3; ++c) {
        ctx.dma.touch(o[cur][c], cw * sizeof(Out));
      }
    }
    P::row(s, l[cur], o[cur], 3, cw, depth);
    for (std::size_t c = 0; c < 3; ++c) {
      dma_put_row_tagged(ctx.dma, o[cur][c], out[c].row(y) + x0, cw, cur);
    }
    for (std::size_t c = 3; c < in.size(); ++c) {
      if constexpr (P::kInPlace) {
        dma_getf_row_tagged(ctx.dma, lx, in[c].row(y) + x0, cw, 2);
      } else {
        dma_get_row_tagged(ctx.dma, lx, in[c].row(y) + x0, cw, 2);
      }
      ctx.dma.wait_tag(2);
      ctx.dma.touch(lx, cw * sizeof(Sample));
      if constexpr (!P::kInPlace) ctx.dma.touch(ox, cw * sizeof(Out));
      P::row(s, &lx, &ox, 1, cw, depth);
      dma_put_row_tagged(ctx.dma, ox, out[c].row(y) + x0, cw, 2);
    }
  }
  ctx.dma.wait_all();
  ctx.ls.reset();
}

/// Colour off: (row, component) flattens into one stream of single rows so
/// the ping/pong pipeline stays full across the component seam.
template <class P, class V>
void grey_stream(cell::SpeContext& ctx,
                 const std::vector<Span2d<const Sample>>& in,
                 const OutPlanes<P>& out, std::size_t x0, std::size_t cw,
                 unsigned depth) {
  using Out = typename P::Out;
  V s = vec_policy<V>(ctx);
  const std::size_t ncomp = in.size();
  const std::size_t nitems = in[0].height() * ncomp;
  Sample* l[2][1];
  Out* o[2][1];
  alloc_rows<P>(ctx, cw, l, o);
  const auto src = [&](std::size_t k) {
    return in[k % ncomp].row(k / ncomp) + x0;
  };
  if constexpr (P::kInPlace) {
    dma_getf_row_tagged(ctx.dma, l[0][0], src(0), cw, 0);
  } else {
    dma_get_row_tagged(ctx.dma, l[0][0], src(0), cw, 0);
  }
  for (std::size_t k = 0; k < nitems; ++k) {
    const unsigned cur = static_cast<unsigned>(k & 1);
    const unsigned nxt = cur ^ 1u;
    if (k + 1 < nitems) {
      if constexpr (P::kInPlace) {
        dma_getf_row_tagged(ctx.dma, l[nxt][0], src(k + 1), cw, nxt);
      } else {
        dma_get_row_tagged(ctx.dma, l[nxt][0], src(k + 1), cw, nxt);
      }
    }
    ctx.dma.wait_tag(cur);
    ctx.dma.touch(l[cur][0], cw * sizeof(Sample));
    if constexpr (!P::kInPlace) ctx.dma.touch(o[cur][0], cw * sizeof(Out));
    P::row(s, l[cur], o[cur], 1, cw, depth);
    dma_put_row_tagged(ctx.dma, o[cur][0],
                       out[k % ncomp].row(k / ncomp) + x0, cw, cur);
  }
  ctx.dma.wait_all();
  ctx.ls.reset();
}

/// SPE chunks stream their columns through the Local Store; the PPE takes
/// the remainder columns with the serial row functions.
template <class P, class V>
cell::StageTiming mct(cell::Machine& m,
                      const std::vector<Span2d<const Sample>>& in,
                      const OutPlanes<P>& out, bool color, unsigned depth) {
  CJ2K_CHECK(!in.empty() && in.size() == out.size());
  const auto plan = decomp::plan_chunks(
      in[0].width(), sizeof(Sample), static_cast<std::size_t>(m.num_spes()));

  auto spe_work = [&](int i, cell::SpeContext& ctx) {
    if (static_cast<std::size_t>(i) >= plan.spe_chunks.size()) return;
    const auto& ch = plan.spe_chunks[static_cast<std::size_t>(i)];
    if (color) {
      colour_stream<P, V>(ctx, in, out, ch.x0, ch.width, depth);
    } else {
      grey_stream<P, V>(ctx, in, out, ch.x0, ch.width, depth);
    }
  };

  auto ppe_work = [&](cell::OpCounters& ops) {
    const std::size_t x0 = plan.remainder.x0;
    const std::size_t n = plan.remainder.width;
    if (n == 0) return;
    for (std::size_t y = 0; y < in[0].height(); ++y) {
      for (std::size_t c = 0; c < in.size();) {
        const std::size_t k = color && c == 0 ? 3 : 1;
        const Sample* x[3];
        typename P::Out* o[3];
        for (std::size_t j = 0; j < k; ++j) {
          x[j] = in[c + j].row(y) + x0;
          o[j] = out[c + j].row(y) + x0;
        }
        P::ppe_row(x, o, k, n, depth);
        P::ppe_ops(ops) += n * (k == 3 ? P::kPpeColourOps : kPpeShiftOps);
        c += k;
      }
    }
  };

  return m.run_data_parallel(P::kName, spe_work, ppe_work);
}

template <class P>
cell::StageTiming mct_on(backend::BackendKind bk, cell::Machine& m,
                         const std::vector<Plane>& planes,
                         const OutPlanes<P>& out, bool color,
                         unsigned depth) {
  std::vector<Span2d<const Sample>> in;
  for (const Plane& p : planes) in.push_back(p.view());
  return with_policy(bk, [&](auto v) {
    return mct<P, typename decltype(v)::type>(m, in, out, color, depth);
  });
}

}  // namespace

cell::StageTiming stage_mct_lossless(cell::Machine& m,
                                     std::vector<Plane>& planes, bool color,
                                     unsigned depth, backend::BackendKind bk) {
  OutPlanes<Lossless53> out;
  for (Plane& p : planes) out.push_back(p.view());
  return mct_on<Lossless53>(bk, m, planes, out, color, depth);
}

cell::StageTiming stage_mct_lossy(cell::Machine& m,
                                  const std::vector<Plane>& planes,
                                  std::vector<AlignedBuffer<float>>& fplanes,
                                  std::size_t stride, bool color,
                                  unsigned depth, backend::BackendKind bk) {
  OutPlanes<LossyFloat> out;
  for (auto& f : fplanes) {
    out.emplace_back(f.data(), planes[0].width(), planes[0].height(), stride);
  }
  return mct_on<LossyFloat>(bk, m, planes, out, color, depth);
}

cell::StageTiming stage_mct_lossy_fixed(cell::Machine& m,
                                        const std::vector<Plane>& planes,
                                        std::vector<Plane>& fxplanes,
                                        bool color, unsigned depth,
                                        backend::BackendKind bk) {
  OutPlanes<LossyQ13> out;
  for (Plane& p : fxplanes) out.push_back(p.view());
  return mct_on<LossyQ13>(bk, m, planes, out, color, depth);
}

}  // namespace cj2k::cellenc
