#include "cellenc/stage_dwt.hpp"

#include <algorithm>

#include "backend/native_simd.hpp"
#include "cellenc/kernels.hpp"
#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "decomp/chunk.hpp"
#include "jp2k/dwt53.hpp"
#include "jp2k/dwt97.hpp"
#include "jp2k/dwt_merged.hpp"

namespace cj2k::cellenc {

namespace {

std::ptrdiff_t mirror(std::ptrdiff_t i, std::ptrdiff_t n) {
  if (n == 1) return 0;
  while (i < 0 || i >= n) {
    if (i < 0) i = -i;
    if (i >= n) i = 2 * (n - 1) - i;
  }
  return i;
}

/// PPE scalar-op charge per sample per lifting sweep (documented estimate:
/// two adds, a shift, a load and a store).
constexpr std::uint64_t kPpeLiftOpsPerSample = 5;

// ===========================================================================
// Vertical filtering
// ===========================================================================

/// Merged vertical 5/3 on one SPE's column group: Local Store ring of K
/// rows, one DMA get per input row, low rows written in place, high rows
/// parked in `aux` and copied back at the end.
template <class V>
void spe_vertical53_merged(cell::SpeContext& ctx, Span2d<Sample> plane,
                           std::size_t x0, std::size_t cw, std::size_t hh,
                           Span2d<Sample> aux) {
  V s = vec_policy<V>(ctx);
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(hh);
  if (n < 2) return;
  constexpr std::size_t K = 6;
  Sample* ring = ctx.ls.alloc<Sample>(K * cw);
  const auto slot = [&](std::ptrdiff_t i) {
    return ring + static_cast<std::size_t>(mirror(i, n)) % K * cw;
  };
  const auto tag_of = [&](std::ptrdiff_t r) {
    return static_cast<unsigned>(r) % static_cast<unsigned>(K);
  };
  // Tag-per-slot ring: row r streams in on tag r%K and the finished row
  // streams back out on the same tag, so one wait_tag_mask claims a slot's
  // whole history.  Gets are fenced, which is what lets a slot be
  // re-targeted while its previous occupant's put is still in flight.
  // ensure() prefetches one row beyond what the lifting step consumes
  // before claiming the rows it needs — the get of row f+2 rides under the
  // lifting of rows f and f-1.
  std::ptrdiff_t loaded = -1;
  std::ptrdiff_t waited = -1;
  const auto fetch = [&](std::ptrdiff_t upto) {
    upto = std::min(upto, n - 1);
    while (loaded < upto) {
      ++loaded;
      dma_getf_row_tagged(ctx.dma,
                          ring + static_cast<std::size_t>(loaded) % K * cw,
                          plane.row(static_cast<std::size_t>(loaded)) + x0,
                          cw, tag_of(loaded));
    }
  };
  const auto ensure = [&](std::ptrdiff_t upto) {
    fetch(upto + 1);
    upto = std::min(upto, n - 1);
    std::uint32_t mask = 0;
    while (waited < upto) {
      ++waited;
      mask |= 1u << tag_of(waited);
    }
    if (mask != 0) ctx.dma.wait_tag_mask(mask);
  };

  const std::size_t nl = (hh + 1) / 2;
  for (std::ptrdiff_t f = 1; f < n + 2; f += 2) {
    ensure(f + 1);
    if (f < n) {
      ctx.dma.touch(slot(f + 1), cw * sizeof(Sample));
      ctx.dma.touch(slot(f), cw * sizeof(Sample));
      simd_predict53_row(s, slot(f), slot(f - 1), slot(f + 1), cw);
    }
    if (f - 1 < n) {
      ctx.dma.touch(slot(f - 1), cw * sizeof(Sample));
      simd_update53_row(s, slot(f - 1), slot(f - 2), slot(f), cw);
    }
    if (f - 2 >= 1 && f - 2 < n) {  // park finalized high row
      dma_put_row_tagged(ctx.dma, slot(f - 2),
                         aux.row(static_cast<std::size_t>((f - 2) / 2)) + x0,
                         cw, tag_of(f - 2));
    }
    if (f - 1 >= 0 && f - 1 < n) {  // emit finalized low row
      dma_put_row_tagged(
          ctx.dma, slot(f - 1),
          plane.row(static_cast<std::size_t>((f - 1) / 2)) + x0, cw,
          tag_of(f - 1));
    }
  }
  // Copy parked high rows to the bottom half: a compute-free fenced
  // get->put chain on two ring slots.  The barrier first makes sure the
  // aux rows being re-read have actually landed in main memory.
  ctx.dma.wait_all();
  Sample* cbuf[2] = {ring, ring + cw};
  for (std::size_t j = 0; nl + j < hh; ++j) {
    const unsigned t = static_cast<unsigned>(j & 1);
    dma_getf_row_tagged(ctx.dma, cbuf[t], aux.row(j) + x0, cw, t);
    dma_putf_row_tagged(ctx.dma, cbuf[t], plane.row(nl + j) + x0, cw, t);
  }
  ctx.dma.wait_all();
  ctx.ls.reset();
}

/// Naive multipass vertical 5/3 (ablation A): predict sweep, update sweep,
/// split sweep — each streams the whole group through the Local Store.
template <class V>
void spe_vertical53_multipass(cell::SpeContext& ctx, Span2d<Sample> plane,
                              std::size_t x0, std::size_t cw, std::size_t hh,
                              Span2d<Sample> aux) {
  V s = vec_policy<V>(ctx);
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(hh);
  if (n < 2) return;
  constexpr std::size_t K = 4;
  Sample* ring = ctx.ls.alloc<Sample>(K * cw);
  const auto slot = [&](std::ptrdiff_t i) {
    return ring + static_cast<std::size_t>(mirror(i, n)) % K * cw;
  };
  const auto tag_of = [&](std::ptrdiff_t r) {
    return static_cast<unsigned>(r) % static_cast<unsigned>(K);
  };
  // Tag-per-slot ring (see the merged kernel).  Row r keeps tag r%K across
  // both sweeps, so a sweep's fenced re-fetch of row r is ordered after the
  // previous sweep's put of the same row without an inter-pass barrier.
  const auto sweep53 = [&](std::ptrdiff_t parity, const auto& lift_row) {
    std::ptrdiff_t loaded = -1;
    std::ptrdiff_t waited = -1;
    const auto fetch = [&](std::ptrdiff_t upto) {
      upto = std::min(upto, n - 1);
      while (loaded < upto) {
        ++loaded;
        dma_getf_row_tagged(
            ctx.dma, ring + static_cast<std::size_t>(loaded) % K * cw,
            plane.row(static_cast<std::size_t>(loaded)) + x0, cw,
            tag_of(loaded));
      }
    };
    for (std::ptrdiff_t i = parity; i < n; i += 2) {
      fetch(i + 2);
      std::uint32_t mask = 0;
      while (waited < std::min(i + 1, n - 1)) {
        ++waited;
        mask |= 1u << tag_of(waited);
      }
      if (mask != 0) ctx.dma.wait_tag_mask(mask);
      ctx.dma.touch(slot(i + 1), cw * sizeof(Sample));
      ctx.dma.touch(slot(i), cw * sizeof(Sample));
      lift_row(i);
      dma_put_row_tagged(ctx.dma, slot(i),
                         plane.row(static_cast<std::size_t>(i)) + x0, cw,
                         tag_of(i));
    }
  };
  // Pass 1: predict (write odd rows).
  sweep53(1, [&](std::ptrdiff_t i) {
    simd_predict53_row(s, slot(i), slot(i - 1), slot(i + 1), cw);
  });
  // Pass 2: update (write even rows).
  sweep53(0, [&](std::ptrdiff_t i) {
    simd_update53_row(s, slot(i), slot(i - 1), slot(i + 1), cw);
  });
  // Pass 3: split — low rows compact in place, high rows via aux.  The
  // compaction writes row i/2 after row i/2 was read, so each get is
  // claimed before issuing the put that could otherwise overtake it on a
  // different tag; the puts themselves stay asynchronous.
  {
    ctx.dma.wait_all();
    Sample* buf[2] = {ring, ring + cw};
    const std::size_t nl = (hh + 1) / 2;
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
    for (std::size_t j = 0; nl + j < hh; ++j) {
      const unsigned t = static_cast<unsigned>(j & 1);
      dma_getf_row_tagged(ctx.dma, buf[t], aux.row(j) + x0, cw, t);
      dma_putf_row_tagged(ctx.dma, buf[t], plane.row(nl + j) + x0, cw, t);
    }
    ctx.dma.wait_all();
  }
  ctx.ls.reset();
}

/// Merged vertical 9/7: four lifting stages + scaling + emission fused into
/// one streaming sweep (Kutil-style single loop, K-row Local Store ring).
template <class V>
void spe_vertical97_merged(cell::SpeContext& ctx, Span2d<float> plane,
                           std::size_t x0, std::size_t cw, std::size_t hh,
                           Span2d<float> aux) {
  V s = vec_policy<V>(ctx);
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(hh);
  if (n < 2) return;
  constexpr std::size_t K = 10;
  float* ring = ctx.ls.alloc<float>(K * cw);
  const auto slot = [&](std::ptrdiff_t i) {
    return ring + static_cast<std::size_t>(mirror(i, n)) % K * cw;
  };
  const auto tag_of = [&](std::ptrdiff_t r) {
    return static_cast<unsigned>(r) % static_cast<unsigned>(K);
  };
  // Tag-per-slot ring with fenced gets and a one-row prefetch, as in the
  // 5/3 merged kernel — the deeper K absorbs the four-stage lifting
  // pipeline's longer row lifetime.
  std::ptrdiff_t loaded = -1;
  std::ptrdiff_t waited = -1;
  const auto fetch = [&](std::ptrdiff_t upto) {
    upto = std::min(upto, n - 1);
    while (loaded < upto) {
      ++loaded;
      dma_getf_row_tagged(ctx.dma,
                          ring + static_cast<std::size_t>(loaded) % K * cw,
                          plane.row(static_cast<std::size_t>(loaded)) + x0,
                          cw, tag_of(loaded));
    }
  };
  const auto ensure = [&](std::ptrdiff_t upto) {
    fetch(upto + 1);
    upto = std::min(upto, n - 1);
    std::uint32_t mask = 0;
    while (waited < upto) {
      ++waited;
      mask |= 1u << tag_of(waited);
    }
    if (mask != 0) ctx.dma.wait_tag_mask(mask);
  };
  const auto lift = [&](std::ptrdiff_t i, float c, std::ptrdiff_t parity) {
    if (i < parity || i >= n || ((i ^ parity) & 1)) return;
    ctx.dma.touch(slot(i + 1), cw * sizeof(float));
    ctx.dma.touch(slot(i), cw * sizeof(float));
    simd_lift97_row(s, slot(i), slot(i - 1), slot(i + 1), c, cw);
  };
  const auto scale = [&](std::ptrdiff_t i) {
    if (i < 0 || i >= n) return;
    ctx.dma.touch(slot(i), cw * sizeof(float));
    simd_scale_row(s, slot(i),
                   (i & 1) ? jp2k::dwt97::kK : 1.0f / jp2k::dwt97::kK, cw);
  };

  const std::size_t nl = (hh + 1) / 2;
  for (std::ptrdiff_t f = 1; f < n + 6; f += 2) {
    ensure(f + 1);
    lift(f, jp2k::dwt97::kAlpha, 1);
    lift(f - 1, jp2k::dwt97::kBeta, 0);
    lift(f - 2, jp2k::dwt97::kGamma, 1);
    lift(f - 3, jp2k::dwt97::kDelta, 0);
    scale(f - 4);
    if (f - 4 >= 1 && f - 4 < n && ((f - 4) & 1)) {
      dma_put_row_tagged(ctx.dma, slot(f - 4),
                         aux.row(static_cast<std::size_t>((f - 4) / 2)) + x0,
                         cw, tag_of(f - 4));
    }
    scale(f - 5);
    if (f - 5 >= 0 && f - 5 < n && !((f - 5) & 1)) {
      dma_put_row_tagged(
          ctx.dma, slot(f - 5),
          plane.row(static_cast<std::size_t>((f - 5) / 2)) + x0, cw,
          tag_of(f - 5));
    }
  }
  // Compute-free fenced get->put chain for the parked high rows (see the
  // 5/3 merged kernel).
  ctx.dma.wait_all();
  float* cbuf[2] = {ring, ring + cw};
  for (std::size_t j = 0; nl + j < hh; ++j) {
    const unsigned t = static_cast<unsigned>(j & 1);
    dma_getf_row_tagged(ctx.dma, cbuf[t], aux.row(j) + x0, cw, t);
    dma_putf_row_tagged(ctx.dma, cbuf[t], plane.row(nl + j) + x0, cw, t);
  }
  ctx.dma.wait_all();
  ctx.ls.reset();
}

/// Naive multipass vertical 9/7 (six sweeps).
template <class V>
void spe_vertical97_multipass(cell::SpeContext& ctx, Span2d<float> plane,
                              std::size_t x0, std::size_t cw, std::size_t hh,
                              Span2d<float> aux) {
  V s = vec_policy<V>(ctx);
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(hh);
  if (n < 2) return;
  constexpr std::size_t K = 4;
  float* ring = ctx.ls.alloc<float>(K * cw);
  const auto slot = [&](std::ptrdiff_t i) {
    return ring + static_cast<std::size_t>(mirror(i, n)) % K * cw;
  };
  const auto tag_of = [&](std::ptrdiff_t r) {
    return static_cast<unsigned>(r) % static_cast<unsigned>(K);
  };
  // Tag-per-slot ring; row r keeps tag r%K across sweeps, so each sweep's
  // fenced re-fetch of a row is ordered after the previous sweep's put of
  // that row without inter-sweep barriers.
  const auto sweep = [&](float c, std::ptrdiff_t parity) {
    std::ptrdiff_t loaded = -1;
    std::ptrdiff_t waited = -1;
    const auto fetch = [&](std::ptrdiff_t upto) {
      upto = std::min(upto, n - 1);
      while (loaded < upto) {
        ++loaded;
        dma_getf_row_tagged(
            ctx.dma, ring + static_cast<std::size_t>(loaded) % K * cw,
            plane.row(static_cast<std::size_t>(loaded)) + x0, cw,
            tag_of(loaded));
      }
    };
    for (std::ptrdiff_t i = parity; i < n; i += 2) {
      fetch(i + 2);
      std::uint32_t mask = 0;
      while (waited < std::min(i + 1, n - 1)) {
        ++waited;
        mask |= 1u << tag_of(waited);
      }
      if (mask != 0) ctx.dma.wait_tag_mask(mask);
      ctx.dma.touch(slot(i + 1), cw * sizeof(float));
      ctx.dma.touch(slot(i), cw * sizeof(float));
      simd_lift97_row(s, slot(i), slot(i - 1), slot(i + 1), c, cw);
      dma_put_row_tagged(ctx.dma, slot(i),
                         plane.row(static_cast<std::size_t>(i)) + x0, cw,
                         tag_of(i));
    }
  };
  sweep(jp2k::dwt97::kAlpha, 1);
  sweep(jp2k::dwt97::kBeta, 0);
  sweep(jp2k::dwt97::kGamma, 1);
  sweep(jp2k::dwt97::kDelta, 0);
  // Scaling sweep: ping/pong on tags 0/1.  The sweeps above put on tag
  // r%K, which no longer matches this sweep's tag map, so a barrier keeps
  // the re-reads ordered after those writes.
  {
    ctx.dma.wait_all();
    float* buf[2] = {ring, ring + cw};
    dma_getf_row_tagged(ctx.dma, buf[0], plane.row(0) + x0, cw, 0);
    for (std::size_t i = 0; i < hh; ++i) {
      const unsigned cur = static_cast<unsigned>(i & 1);
      const unsigned nxt = cur ^ 1u;
      if (i + 1 < hh) {
        dma_getf_row_tagged(ctx.dma, buf[nxt], plane.row(i + 1) + x0, cw,
                            nxt);
      }
      ctx.dma.wait_tag(cur);
      ctx.dma.touch(buf[cur], cw * sizeof(float));
      simd_scale_row(s, buf[cur],
                     (i & 1) ? jp2k::dwt97::kK : 1.0f / jp2k::dwt97::kK, cw);
      dma_put_row_tagged(ctx.dma, buf[cur], plane.row(i) + x0, cw, cur);
    }
    ctx.dma.wait_all();
  }
  // Split sweep: in-place compaction (see the 5/3 multipass kernel's
  // pass 3 for why each get is claimed before its put is issued).
  {
    float* buf[2] = {ring, ring + cw};
    const std::size_t nl = (hh + 1) / 2;
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
    for (std::size_t j = 0; nl + j < hh; ++j) {
      const unsigned t = static_cast<unsigned>(j & 1);
      dma_getf_row_tagged(ctx.dma, buf[t], aux.row(j) + x0, cw, t);
      dma_putf_row_tagged(ctx.dma, buf[t], plane.row(nl + j) + x0, cw, t);
    }
    ctx.dma.wait_all();
  }
  ctx.ls.reset();
}

/// Merged vertical 9/7 in Q13 fixed point — same schedule as the float
/// kernel, emulated-multiply lifting steps.
template <class V>
void spe_vertical97_fixed_merged(cell::SpeContext& ctx, Span2d<Sample> plane,
                                 std::size_t x0, std::size_t cw, std::size_t hh,
                                 Span2d<Sample> aux) {
  V s = vec_policy<V>(ctx);
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(hh);
  if (n < 2) return;
  constexpr std::size_t K = 10;
  Sample* ring = ctx.ls.alloc<Sample>(K * cw);
  const auto slot = [&](std::ptrdiff_t i) {
    return ring + static_cast<std::size_t>(mirror(i, n)) % K * cw;
  };
  const auto tag_of = [&](std::ptrdiff_t r) {
    return static_cast<unsigned>(r) % static_cast<unsigned>(K);
  };
  // Tag-per-slot ring with fenced gets and a one-row prefetch (see the
  // float merged kernel).
  std::ptrdiff_t loaded = -1;
  std::ptrdiff_t waited = -1;
  const auto fetch = [&](std::ptrdiff_t upto) {
    upto = std::min(upto, n - 1);
    while (loaded < upto) {
      ++loaded;
      dma_getf_row_tagged(ctx.dma,
                          ring + static_cast<std::size_t>(loaded) % K * cw,
                          plane.row(static_cast<std::size_t>(loaded)) + x0,
                          cw, tag_of(loaded));
    }
  };
  const auto ensure = [&](std::ptrdiff_t upto) {
    fetch(upto + 1);
    upto = std::min(upto, n - 1);
    std::uint32_t mask = 0;
    while (waited < upto) {
      ++waited;
      mask |= 1u << tag_of(waited);
    }
    if (mask != 0) ctx.dma.wait_tag_mask(mask);
  };
  const auto lift = [&](std::ptrdiff_t i, Sample c_q13,
                        std::ptrdiff_t parity) {
    if (i < parity || i >= n || ((i ^ parity) & 1)) return;
    ctx.dma.touch(slot(i + 1), cw * sizeof(Sample));
    ctx.dma.touch(slot(i), cw * sizeof(Sample));
    simd_lift97_fixed_row(s, slot(i), slot(i - 1), slot(i + 1), c_q13, cw);
  };
  const auto scale = [&](std::ptrdiff_t i) {
    if (i < 0 || i >= n) return;
    ctx.dma.touch(slot(i), cw * sizeof(Sample));
    simd_scale_fixed_row(
        s, slot(i), (i & 1) ? jp2k::dwt97::kFxK : jp2k::dwt97::kFxInvK, cw);
  };

  const std::size_t nl = (hh + 1) / 2;
  for (std::ptrdiff_t f = 1; f < n + 6; f += 2) {
    ensure(f + 1);
    lift(f, jp2k::dwt97::kFxAlpha, 1);
    lift(f - 1, jp2k::dwt97::kFxBeta, 0);
    lift(f - 2, jp2k::dwt97::kFxGamma, 1);
    lift(f - 3, jp2k::dwt97::kFxDelta, 0);
    scale(f - 4);
    if (f - 4 >= 1 && f - 4 < n && ((f - 4) & 1)) {
      dma_put_row_tagged(ctx.dma, slot(f - 4),
                         aux.row(static_cast<std::size_t>((f - 4) / 2)) + x0,
                         cw, tag_of(f - 4));
    }
    scale(f - 5);
    if (f - 5 >= 0 && f - 5 < n && !((f - 5) & 1)) {
      dma_put_row_tagged(
          ctx.dma, slot(f - 5),
          plane.row(static_cast<std::size_t>((f - 5) / 2)) + x0, cw,
          tag_of(f - 5));
    }
  }
  // Compute-free fenced get->put chain for the parked high rows.
  ctx.dma.wait_all();
  Sample* cbuf[2] = {ring, ring + cw};
  for (std::size_t j = 0; nl + j < hh; ++j) {
    const unsigned t = static_cast<unsigned>(j & 1);
    dma_getf_row_tagged(ctx.dma, cbuf[t], aux.row(j) + x0, cw, t);
    dma_putf_row_tagged(ctx.dma, cbuf[t], plane.row(nl + j) + x0, cw, t);
  }
  ctx.dma.wait_all();
  ctx.ls.reset();
}

template <class V>
cell::StageTiming dwt53(cell::Machine& m, Span2d<Sample> plane, int levels,
                        const DwtOptions& opt) {
  cell::StageTiming total;
  total.name = "dwt53";
  std::size_t ww = plane.width();
  std::size_t hh = plane.height();
  std::vector<Sample> ppe_scratch;

  for (int l = 0; l < levels && (ww > 1 || hh > 1); ++l) {
    // Aux buffer shared by SPE groups and the PPE remainder.
    const auto plan =
        opt.colgroup_elems == 0
            ? decomp::plan_chunks(ww, sizeof(Sample),
                                  static_cast<std::size_t>(m.num_spes()))
            : decomp::plan_chunks_fixed_width(ww, sizeof(Sample),
                                              opt.colgroup_elems);
    AlignedBuffer<Sample> aux_store(plane.stride() * (hh / 2 + 1));
    Span2d<Sample> aux(aux_store.data(), ww, hh / 2 + 1, plane.stride());

    auto vwork = [&](int i, cell::SpeContext& ctx) {
      for (std::size_t g = static_cast<std::size_t>(i);
           g < plan.spe_chunks.size();
           g += static_cast<std::size_t>(std::max(1, m.num_spes()))) {
        const auto& ch = plan.spe_chunks[g];
        if (opt.merged_vertical) {
          spe_vertical53_merged<V>(ctx, plane, ch.x0, ch.width, hh, aux);
        } else {
          spe_vertical53_multipass<V>(ctx, plane, ch.x0, ch.width, hh, aux);
        }
      }
    };
    auto vppe = [&](cell::OpCounters& c) {
      const auto& rem = plan.remainder;
      if (rem.width == 0) return;
      auto region = plane.subview(rem.x0, 0, rem.width, hh);
      std::vector<Sample> aux_vec;
      jp2k::dwt_merged::vertical_analyze_53(region, aux_vec);
      c.s_int += static_cast<std::uint64_t>(rem.width) * hh *
                 kPpeLiftOpsPerSample * 2;
    };
    total += m.run_data_parallel("dwt53-vertical", vwork, vppe);

    // Horizontal.
    const auto rows = decomp::split_rows(
        hh, static_cast<std::size_t>(std::max(1, m.num_spes())));
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
        Sample* lin[2] = {ctx.ls.alloc<Sample>(pad),
                          ctx.ls.alloc<Sample>(pad)};
        Sample* even = ctx.ls.alloc<Sample>(pad / 2 + 4);
        Sample* odd = ctx.ls.alloc<Sample>(pad / 2 + 4);
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
          ctx.dma.touch(lin[cur], tw * sizeof(Sample));
          simd_dwt53_h_row(s, lin[cur], even, odd, ww);
          // Reassemble L|H contiguously so the row goes back in one
          // aligned DMA (writing the H half alone would start at an
          // arbitrary offset and violate the MFC alignment rules).
          s.ls_copy(lin[cur], even, nl * sizeof(Sample));
          if (ww > nl) {
            s.ls_copy(lin[cur] + nl, odd, (ww - nl) * sizeof(Sample));
          }
          dma_put_row_tagged(ctx.dma, lin[cur], plane.row(y), tw, cur);
        }
        ctx.dma.wait_all();
        ctx.ls.reset();
      };
      total += m.run_data_parallel("dwt53-horizontal", hwork, nullptr);
    } else {
      auto hppe = [&](cell::OpCounters& c) {
        ppe_scratch.resize(ww);
        for (std::size_t y = 0; y < hh; ++y) {
          jp2k::dwt53::analyze(plane.row(y), ww, 1, ppe_scratch.data());
        }
        c.s_int += static_cast<std::uint64_t>(ww) * hh *
                   kPpeLiftOpsPerSample * 2;
      };
      total += m.run_data_parallel(
          "dwt53-horizontal", [](int, cell::SpeContext&) {}, hppe);
    }

    ww = (ww + 1) / 2;
    hh = (hh + 1) / 2;
  }
  return total;
}

template <class V>
cell::StageTiming dwt97(cell::Machine& m, Span2d<float> plane, int levels,
                        const DwtOptions& opt) {
  cell::StageTiming total;
  total.name = "dwt97";
  std::size_t ww = plane.width();
  std::size_t hh = plane.height();
  std::vector<float> ppe_scratch;

  for (int l = 0; l < levels && (ww > 1 || hh > 1); ++l) {
    const auto plan =
        opt.colgroup_elems == 0
            ? decomp::plan_chunks(ww, sizeof(float),
                                  static_cast<std::size_t>(m.num_spes()))
            : decomp::plan_chunks_fixed_width(ww, sizeof(float),
                                              opt.colgroup_elems);
    AlignedBuffer<float> aux_store(plane.stride() * (hh / 2 + 1));
    Span2d<float> aux(aux_store.data(), ww, hh / 2 + 1, plane.stride());

    auto vwork = [&](int i, cell::SpeContext& ctx) {
      for (std::size_t g = static_cast<std::size_t>(i);
           g < plan.spe_chunks.size();
           g += static_cast<std::size_t>(std::max(1, m.num_spes()))) {
        const auto& ch = plan.spe_chunks[g];
        if (opt.merged_vertical) {
          spe_vertical97_merged<V>(ctx, plane, ch.x0, ch.width, hh, aux);
        } else {
          spe_vertical97_multipass<V>(ctx, plane, ch.x0, ch.width, hh, aux);
        }
      }
    };
    auto vppe = [&](cell::OpCounters& c) {
      const auto& rem = plan.remainder;
      if (rem.width == 0) return;
      auto region = plane.subview(rem.x0, 0, rem.width, hh);
      std::vector<float> aux_vec;
      jp2k::dwt_merged::vertical_analyze_97(region, aux_vec);
      c.s_float += static_cast<std::uint64_t>(rem.width) * hh *
                   kPpeLiftOpsPerSample * 3;
    };
    total += m.run_data_parallel("dwt97-vertical", vwork, vppe);

    const auto rows = decomp::split_rows(
        hh, static_cast<std::size_t>(std::max(1, m.num_spes())));
    if (m.num_spes() > 0) {
      auto hwork = [&](int i, cell::SpeContext& ctx) {
        if (static_cast<std::size_t>(i) >= rows.size()) return;
        const auto [start, count] = rows[static_cast<std::size_t>(i)];
        V s = vec_policy<V>(ctx);
        const std::size_t pad = round_up(ww, 32);
        // Whole-cache-line transfers, fenced ping/pong (see the 5/3
        // kernel above).
        const std::size_t tw = padded_row_elems(ww, plane.stride());
        float* lin[2] = {ctx.ls.alloc<float>(pad), ctx.ls.alloc<float>(pad)};
        float* even = ctx.ls.alloc<float>(pad / 2 + 4);
        float* odd = ctx.ls.alloc<float>(pad / 2 + 4);
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
          ctx.dma.touch(lin[cur], tw * sizeof(float));
          simd_dwt97_h_row(s, lin[cur], even, odd, ww);
          s.ls_copy(lin[cur], even, nl * sizeof(float));
          if (ww > nl) {
            s.ls_copy(lin[cur] + nl, odd, (ww - nl) * sizeof(float));
          }
          dma_put_row_tagged(ctx.dma, lin[cur], plane.row(y), tw, cur);
        }
        ctx.dma.wait_all();
        ctx.ls.reset();
      };
      total += m.run_data_parallel("dwt97-horizontal", hwork, nullptr);
    } else {
      auto hppe = [&](cell::OpCounters& c) {
        ppe_scratch.resize(ww);
        for (std::size_t y = 0; y < hh; ++y) {
          jp2k::dwt97::analyze(plane.row(y), ww, 1, ppe_scratch.data());
        }
        c.s_float += static_cast<std::uint64_t>(ww) * hh *
                     kPpeLiftOpsPerSample * 3;
      };
      total += m.run_data_parallel(
          "dwt97-horizontal", [](int, cell::SpeContext&) {}, hppe);
    }

    ww = (ww + 1) / 2;
    hh = (hh + 1) / 2;
  }
  return total;
}

template <class V>
cell::StageTiming dwt97_fixed(cell::Machine& m, Span2d<Sample> plane,
                              int levels, const DwtOptions& opt) {
  cell::StageTiming total;
  total.name = "dwt97fx";
  std::size_t ww = plane.width();
  std::size_t hh = plane.height();
  std::vector<Sample> ppe_scratch;

  for (int l = 0; l < levels && (ww > 1 || hh > 1); ++l) {
    const auto plan =
        opt.colgroup_elems == 0
            ? decomp::plan_chunks(ww, sizeof(Sample),
                                  static_cast<std::size_t>(m.num_spes()))
            : decomp::plan_chunks_fixed_width(ww, sizeof(Sample),
                                              opt.colgroup_elems);
    AlignedBuffer<Sample> aux_store(plane.stride() * (hh / 2 + 1));
    Span2d<Sample> aux(aux_store.data(), ww, hh / 2 + 1, plane.stride());

    auto vwork = [&](int i, cell::SpeContext& ctx) {
      for (std::size_t g = static_cast<std::size_t>(i);
           g < plan.spe_chunks.size();
           g += static_cast<std::size_t>(std::max(1, m.num_spes()))) {
        const auto& ch = plan.spe_chunks[g];
        spe_vertical97_fixed_merged<V>(ctx, plane, ch.x0, ch.width, hh, aux);
      }
    };
    auto vppe = [&](cell::OpCounters& c) {
      const auto& rem = plan.remainder;
      if (rem.width == 0) return;
      // PPE remainder: plain per-column fixed analysis (lifting sweeps
      // only; the merged schedule is an SPE-side DMA optimization).
      ppe_scratch.resize(hh);
      for (std::size_t x = 0; x < rem.width; ++x) {
        jp2k::dwt97::analyze_fixed(plane.data() + rem.x0 + x, hh,
                                   plane.stride(), ppe_scratch.data());
      }
      c.s_int += static_cast<std::uint64_t>(rem.width) * hh *
                 kPpeLiftOpsPerSample * 4;
    };
    total += m.run_data_parallel("dwt97fx-vertical", vwork, vppe);

    const auto rows = decomp::split_rows(
        hh, static_cast<std::size_t>(std::max(1, m.num_spes())));
    if (m.num_spes() > 0) {
      auto hwork = [&](int i, cell::SpeContext& ctx) {
        if (static_cast<std::size_t>(i) >= rows.size()) return;
        const auto [start, count] = rows[static_cast<std::size_t>(i)];
        V s = vec_policy<V>(ctx);
        const std::size_t pad = round_up(ww, 32);
        // Whole-cache-line transfers, fenced ping/pong (see the 5/3
        // kernel above).
        const std::size_t tw = padded_row_elems(ww, plane.stride());
        Sample* lin[2] = {ctx.ls.alloc<Sample>(pad),
                          ctx.ls.alloc<Sample>(pad)};
        Sample* even = ctx.ls.alloc<Sample>(pad / 2 + 4);
        Sample* odd = ctx.ls.alloc<Sample>(pad / 2 + 4);
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
          ctx.dma.touch(lin[cur], tw * sizeof(Sample));
          simd_dwt97_fixed_h_row(s, lin[cur], even, odd, ww);
          s.ls_copy(lin[cur], even, nl * sizeof(Sample));
          if (ww > nl) {
            s.ls_copy(lin[cur] + nl, odd, (ww - nl) * sizeof(Sample));
          }
          dma_put_row_tagged(ctx.dma, lin[cur], plane.row(y), tw, cur);
        }
        ctx.dma.wait_all();
        ctx.ls.reset();
      };
      total += m.run_data_parallel("dwt97fx-horizontal", hwork, nullptr);
    } else {
      auto hppe = [&](cell::OpCounters& c) {
        ppe_scratch.resize(ww);
        for (std::size_t y = 0; y < hh; ++y) {
          jp2k::dwt97::analyze_fixed(plane.row(y), ww, 1,
                                     ppe_scratch.data());
        }
        c.s_int += static_cast<std::uint64_t>(ww) * hh *
                   kPpeLiftOpsPerSample * 4;
      };
      total += m.run_data_parallel(
          "dwt97fx-horizontal", [](int, cell::SpeContext&) {}, hppe);
    }

    ww = (ww + 1) / 2;
    hh = (hh + 1) / 2;
  }
  return total;
}

}  // namespace

cell::StageTiming stage_dwt53(cell::Machine& m, Span2d<Sample> plane,
                              int levels, const DwtOptions& opt,
                              backend::BackendKind bk) {
  return bk == backend::BackendKind::kNative
             ? dwt53<backend::HostVec>(m, plane, levels, opt)
             : dwt53<cell::Simd>(m, plane, levels, opt);
}

cell::StageTiming stage_dwt97(cell::Machine& m, Span2d<float> plane,
                              int levels, const DwtOptions& opt,
                              backend::BackendKind bk) {
  return bk == backend::BackendKind::kNative
             ? dwt97<backend::HostVec>(m, plane, levels, opt)
             : dwt97<cell::Simd>(m, plane, levels, opt);
}

cell::StageTiming stage_dwt97_fixed(cell::Machine& m, Span2d<Sample> plane,
                                    int levels, const DwtOptions& opt,
                                    backend::BackendKind bk) {
  return bk == backend::BackendKind::kNative
             ? dwt97_fixed<backend::HostVec>(m, plane, levels, opt)
             : dwt97_fixed<cell::Simd>(m, plane, levels, opt);
}

}  // namespace cj2k::cellenc
