#include "cellenc/stage_mct.hpp"

#include "backend/native_simd.hpp"
#include "cellenc/kernels.hpp"
#include "common/error.hpp"
#include "decomp/chunk.hpp"
#include "jp2k/mct.hpp"

namespace cj2k::cellenc {

namespace {

/// Scalar-op charge for the PPE remainder work (ops per sample; the PPE
/// runs the same row functions the serial encoder uses).
constexpr std::uint64_t kPpeShiftRctOps = 12;
constexpr std::uint64_t kPpeShiftOps = 4;
constexpr std::uint64_t kPpeShiftIctOps = 22;

template <class V>
cell::StageTiming mct_lossless(cell::Machine& m, std::vector<Plane>& planes,
                               bool color, unsigned depth) {
  CJ2K_CHECK(!planes.empty());
  const std::size_t w = planes[0].width();
  const std::size_t h = planes[0].height();
  const auto plan = decomp::plan_chunks(
      w, sizeof(Sample), static_cast<std::size_t>(m.num_spes()));

  auto spe_work = [&](int i, cell::SpeContext& ctx) {
    if (static_cast<std::size_t>(i) >= plan.spe_chunks.size()) return;
    const auto& ch = plan.spe_chunks[static_cast<std::size_t>(i)];
    const std::size_t cw = ch.width;
    V s = vec_policy<V>(ctx);
    // Constant Local Store footprint: a ping/pong row pair per component.
    // The transform is in place (same row is get target and put source), so
    // the prefetch of row y+1 is fenced: it re-targets a buffer whose
    // write-back from row y-1 may still be in flight on the same tag.
    if (color) {
      Sample* lr[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      Sample* lg[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      Sample* lb[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      Sample* lx =
          planes.size() > 3 ? ctx.ls.alloc<Sample>(cw) : nullptr;
      dma_getf_row_tagged(ctx.dma, lr[0], planes[0].row(0) + ch.x0, cw, 0);
      dma_getf_row_tagged(ctx.dma, lg[0], planes[1].row(0) + ch.x0, cw, 0);
      dma_getf_row_tagged(ctx.dma, lb[0], planes[2].row(0) + ch.x0, cw, 0);
      for (std::size_t y = 0; y < h; ++y) {
        const unsigned cur = static_cast<unsigned>(y & 1);
        const unsigned nxt = cur ^ 1u;
        if (y + 1 < h) {
          dma_getf_row_tagged(ctx.dma, lr[nxt], planes[0].row(y + 1) + ch.x0,
                              cw, nxt);
          dma_getf_row_tagged(ctx.dma, lg[nxt], planes[1].row(y + 1) + ch.x0,
                              cw, nxt);
          dma_getf_row_tagged(ctx.dma, lb[nxt], planes[2].row(y + 1) + ch.x0,
                              cw, nxt);
        }
        ctx.dma.wait_tag(cur);
        ctx.dma.touch(lr[cur], cw * sizeof(Sample));
        ctx.dma.touch(lg[cur], cw * sizeof(Sample));
        ctx.dma.touch(lb[cur], cw * sizeof(Sample));
        simd_shift_rct_row(s, lr[cur], lg[cur], lb[cur], cw, depth);
        dma_put_row_tagged(ctx.dma, lr[cur], planes[0].row(y) + ch.x0, cw,
                           cur);
        dma_put_row_tagged(ctx.dma, lg[cur], planes[1].row(y) + ch.x0, cw,
                           cur);
        dma_put_row_tagged(ctx.dma, lb[cur], planes[2].row(y) + ch.x0, cw,
                           cur);
        // Extra components ride a third tag as a get->wait->compute->put
        // pipeline: the put stays in flight into the next iteration, where
        // the fenced get re-targets the buffer behind it.
        for (std::size_t c = 3; c < planes.size(); ++c) {
          dma_getf_row_tagged(ctx.dma, lx, planes[c].row(y) + ch.x0, cw, 2);
          ctx.dma.wait_tag(2);
          ctx.dma.touch(lx, cw * sizeof(Sample));
          simd_shift_row(s, lx, cw, depth);
          dma_put_row_tagged(ctx.dma, lx, planes[c].row(y) + ch.x0, cw, 2);
        }
      }
    } else {
      // Flatten (row, component) into one stream so the ping/pong pipeline
      // stays full across the component seam.
      Sample* lr[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      const std::size_t nitems = h * planes.size();
      const auto src = [&](std::size_t k) {
        return planes[k % planes.size()].row(k / planes.size()) + ch.x0;
      };
      dma_getf_row_tagged(ctx.dma, lr[0], src(0), cw, 0);
      for (std::size_t k = 0; k < nitems; ++k) {
        const unsigned cur = static_cast<unsigned>(k & 1);
        const unsigned nxt = cur ^ 1u;
        if (k + 1 < nitems) {
          dma_getf_row_tagged(ctx.dma, lr[nxt], src(k + 1), cw, nxt);
        }
        ctx.dma.wait_tag(cur);
        ctx.dma.touch(lr[cur], cw * sizeof(Sample));
        simd_shift_row(s, lr[cur], cw, depth);
        dma_put_row_tagged(ctx.dma, lr[cur], src(k), cw, cur);
      }
    }
    ctx.dma.wait_all();
    ctx.ls.reset();
  };

  auto ppe_work = [&](cell::OpCounters& c) {
    const auto& rem = plan.remainder;
    if (rem.width == 0) return;
    for (std::size_t y = 0; y < h; ++y) {
      if (color) {
        jp2k::shift_rct_forward_row(planes[0].row(y) + rem.x0,
                                    planes[1].row(y) + rem.x0,
                                    planes[2].row(y) + rem.x0, rem.width,
                                    depth);
        c.s_int += 3 * rem.width * kPpeShiftRctOps / 3;
        for (std::size_t cc = 3; cc < planes.size(); ++cc) {
          jp2k::level_shift_row(planes[cc].row(y) + rem.x0, rem.width, depth);
          c.s_int += rem.width * kPpeShiftOps;
        }
      } else {
        for (auto& plane : planes) {
          jp2k::level_shift_row(plane.row(y) + rem.x0, rem.width, depth);
          c.s_int += rem.width * kPpeShiftOps;
        }
      }
    }
  };

  return m.run_data_parallel("levelshift+mct", spe_work, ppe_work);
}

template <class V>
cell::StageTiming mct_lossy(cell::Machine& m, const std::vector<Plane>& planes,
                            std::vector<AlignedBuffer<float>>& fplanes,
                            std::size_t stride, bool color, unsigned depth) {
  const std::size_t w = planes[0].width();
  const std::size_t h = planes[0].height();
  const std::size_t ncomp = planes.size();
  const auto plan = decomp::plan_chunks(
      w, sizeof(Sample), static_cast<std::size_t>(m.num_spes()));

  auto spe_work = [&](int i, cell::SpeContext& ctx) {
    if (static_cast<std::size_t>(i) >= plan.spe_chunks.size()) return;
    const auto& ch = plan.spe_chunks[static_cast<std::size_t>(i)];
    const std::size_t cw = ch.width;
    V s = vec_policy<V>(ctx);
    // Ping/pong on tags 0/1.  Unlike the lossless kernel the inputs (l*)
    // and outputs (f*) are distinct buffers, so the prefetched gets never
    // re-target a buffer with a put in flight and can stay unfenced.
    if (color) {
      Sample* lr[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      Sample* lg[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      Sample* lb[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      float* fy[2] = {ctx.ls.alloc<float>(cw), ctx.ls.alloc<float>(cw)};
      float* fcb[2] = {ctx.ls.alloc<float>(cw), ctx.ls.alloc<float>(cw)};
      float* fcr[2] = {ctx.ls.alloc<float>(cw), ctx.ls.alloc<float>(cw)};
      Sample* lx = ncomp > 3 ? ctx.ls.alloc<Sample>(cw) : nullptr;
      float* fx = ncomp > 3 ? ctx.ls.alloc<float>(cw) : nullptr;
      dma_get_row_tagged(ctx.dma, lr[0], planes[0].row(0) + ch.x0, cw, 0);
      dma_get_row_tagged(ctx.dma, lg[0], planes[1].row(0) + ch.x0, cw, 0);
      dma_get_row_tagged(ctx.dma, lb[0], planes[2].row(0) + ch.x0, cw, 0);
      for (std::size_t y = 0; y < h; ++y) {
        const unsigned cur = static_cast<unsigned>(y & 1);
        const unsigned nxt = cur ^ 1u;
        if (y + 1 < h) {
          dma_get_row_tagged(ctx.dma, lr[nxt], planes[0].row(y + 1) + ch.x0,
                             cw, nxt);
          dma_get_row_tagged(ctx.dma, lg[nxt], planes[1].row(y + 1) + ch.x0,
                             cw, nxt);
          dma_get_row_tagged(ctx.dma, lb[nxt], planes[2].row(y + 1) + ch.x0,
                             cw, nxt);
        }
        ctx.dma.wait_tag(cur);
        ctx.dma.touch(lr[cur], cw * sizeof(Sample));
        ctx.dma.touch(lg[cur], cw * sizeof(Sample));
        ctx.dma.touch(lb[cur], cw * sizeof(Sample));
        ctx.dma.touch(fy[cur], cw * sizeof(float));
        ctx.dma.touch(fcb[cur], cw * sizeof(float));
        ctx.dma.touch(fcr[cur], cw * sizeof(float));
        simd_shift_ict_row(s, lr[cur], lg[cur], lb[cur], fy[cur],
                           fcb[cur], fcr[cur], cw, depth);
        dma_put_row_tagged(ctx.dma, fy[cur], &fplanes[0][y * stride + ch.x0],
                           cw, cur);
        dma_put_row_tagged(ctx.dma, fcb[cur],
                           &fplanes[1][y * stride + ch.x0], cw, cur);
        dma_put_row_tagged(ctx.dma, fcr[cur],
                           &fplanes[2][y * stride + ch.x0], cw, cur);
        for (std::size_t c = 3; c < ncomp; ++c) {
          dma_get_row_tagged(ctx.dma, lx, planes[c].row(y) + ch.x0, cw, 2);
          ctx.dma.wait_tag(2);
          ctx.dma.touch(lx, cw * sizeof(Sample));
          ctx.dma.touch(fx, cw * sizeof(float));
          simd_shift_to_float_row(s, lx, fx, cw, depth);
          dma_put_row_tagged(ctx.dma, fx, &fplanes[c][y * stride + ch.x0],
                             cw, 2);
        }
      }
    } else {
      Sample* lr[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      float* fy[2] = {ctx.ls.alloc<float>(cw), ctx.ls.alloc<float>(cw)};
      const std::size_t nitems = h * ncomp;
      const auto src = [&](std::size_t k) {
        return planes[k % ncomp].row(k / ncomp) + ch.x0;
      };
      const auto dst = [&](std::size_t k) {
        return &fplanes[k % ncomp][(k / ncomp) * stride + ch.x0];
      };
      dma_get_row_tagged(ctx.dma, lr[0], src(0), cw, 0);
      for (std::size_t k = 0; k < nitems; ++k) {
        const unsigned cur = static_cast<unsigned>(k & 1);
        const unsigned nxt = cur ^ 1u;
        if (k + 1 < nitems) {
          dma_get_row_tagged(ctx.dma, lr[nxt], src(k + 1), cw, nxt);
        }
        ctx.dma.wait_tag(cur);
        ctx.dma.touch(lr[cur], cw * sizeof(Sample));
        ctx.dma.touch(fy[cur], cw * sizeof(float));
        simd_shift_to_float_row(s, lr[cur], fy[cur], cw, depth);
        dma_put_row_tagged(ctx.dma, fy[cur], dst(k), cw, cur);
      }
    }
    ctx.dma.wait_all();
    ctx.ls.reset();
  };

  auto ppe_work = [&](cell::OpCounters& c) {
    const auto& rem = plan.remainder;
    if (rem.width == 0) return;
    const float off = static_cast<float>(Sample{1} << (depth - 1));
    for (std::size_t y = 0; y < h; ++y) {
      if (color) {
        jp2k::shift_ict_forward_row(
            planes[0].row(y) + rem.x0, planes[1].row(y) + rem.x0,
            planes[2].row(y) + rem.x0, &fplanes[0][y * stride + rem.x0],
            &fplanes[1][y * stride + rem.x0],
            &fplanes[2][y * stride + rem.x0], rem.width, depth);
        c.s_float += rem.width * kPpeShiftIctOps;
        for (std::size_t cc = 3; cc < ncomp; ++cc) {
          const Sample* src = planes[cc].row(y) + rem.x0;
          float* dst = &fplanes[cc][y * stride + rem.x0];
          for (std::size_t x = 0; x < rem.width; ++x) {
            dst[x] = static_cast<float>(src[x]) - off;
          }
          c.s_float += rem.width * kPpeShiftOps;
        }
      } else {
        for (std::size_t cc = 0; cc < ncomp; ++cc) {
          const Sample* src = planes[cc].row(y) + rem.x0;
          float* dst = &fplanes[cc][y * stride + rem.x0];
          for (std::size_t x = 0; x < rem.width; ++x) {
            dst[x] = static_cast<float>(src[x]) - off;
          }
          c.s_float += rem.width * kPpeShiftOps;
        }
      }
    }
  };

  return m.run_data_parallel("levelshift+ict", spe_work, ppe_work);
}

template <class V>
cell::StageTiming mct_lossy_fixed(cell::Machine& m,
                                  const std::vector<Plane>& planes,
                                  std::vector<Plane>& fxplanes, bool color,
                                  unsigned depth) {
  const std::size_t w = planes[0].width();
  const std::size_t h = planes[0].height();
  const std::size_t ncomp = planes.size();
  const auto plan = decomp::plan_chunks(
      w, sizeof(Sample), static_cast<std::size_t>(m.num_spes()));

  auto spe_work = [&](int i, cell::SpeContext& ctx) {
    if (static_cast<std::size_t>(i) >= plan.spe_chunks.size()) return;
    const auto& ch = plan.spe_chunks[static_cast<std::size_t>(i)];
    const std::size_t cw = ch.width;
    V s = vec_policy<V>(ctx);
    // Ping/pong on tags 0/1 with distinct in/out buffers — unfenced tagged
    // gets, as in the float lossy kernel.
    if (color) {
      Sample* lr[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      Sample* lg[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      Sample* lb[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      Sample* fy[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      Sample* fcb[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      Sample* fcr[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      Sample* lx = ncomp > 3 ? ctx.ls.alloc<Sample>(cw) : nullptr;
      Sample* fx = ncomp > 3 ? ctx.ls.alloc<Sample>(cw) : nullptr;
      dma_get_row_tagged(ctx.dma, lr[0], planes[0].row(0) + ch.x0, cw, 0);
      dma_get_row_tagged(ctx.dma, lg[0], planes[1].row(0) + ch.x0, cw, 0);
      dma_get_row_tagged(ctx.dma, lb[0], planes[2].row(0) + ch.x0, cw, 0);
      for (std::size_t y = 0; y < h; ++y) {
        const unsigned cur = static_cast<unsigned>(y & 1);
        const unsigned nxt = cur ^ 1u;
        if (y + 1 < h) {
          dma_get_row_tagged(ctx.dma, lr[nxt], planes[0].row(y + 1) + ch.x0,
                             cw, nxt);
          dma_get_row_tagged(ctx.dma, lg[nxt], planes[1].row(y + 1) + ch.x0,
                             cw, nxt);
          dma_get_row_tagged(ctx.dma, lb[nxt], planes[2].row(y + 1) + ch.x0,
                             cw, nxt);
        }
        ctx.dma.wait_tag(cur);
        ctx.dma.touch(lr[cur], cw * sizeof(Sample));
        ctx.dma.touch(lg[cur], cw * sizeof(Sample));
        ctx.dma.touch(lb[cur], cw * sizeof(Sample));
        ctx.dma.touch(fy[cur], cw * sizeof(Sample));
        ctx.dma.touch(fcb[cur], cw * sizeof(Sample));
        ctx.dma.touch(fcr[cur], cw * sizeof(Sample));
        simd_shift_ict_fixed_row(s, lr[cur], lg[cur], lb[cur],
                                 fy[cur], fcb[cur], fcr[cur], cw, depth);
        dma_put_row_tagged(ctx.dma, fy[cur], fxplanes[0].row(y) + ch.x0, cw,
                           cur);
        dma_put_row_tagged(ctx.dma, fcb[cur], fxplanes[1].row(y) + ch.x0,
                           cw, cur);
        dma_put_row_tagged(ctx.dma, fcr[cur], fxplanes[2].row(y) + ch.x0,
                           cw, cur);
        for (std::size_t c = 3; c < ncomp; ++c) {
          dma_get_row_tagged(ctx.dma, lx, planes[c].row(y) + ch.x0, cw, 2);
          ctx.dma.wait_tag(2);
          ctx.dma.touch(lx, cw * sizeof(Sample));
          ctx.dma.touch(fx, cw * sizeof(Sample));
          simd_shift_to_fixed_row(s, lx, fx, cw, depth);
          dma_put_row_tagged(ctx.dma, fx, fxplanes[c].row(y) + ch.x0, cw, 2);
        }
      }
    } else {
      Sample* lr[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      Sample* fy[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      const std::size_t nitems = h * ncomp;
      const auto src = [&](std::size_t k) {
        return planes[k % ncomp].row(k / ncomp) + ch.x0;
      };
      const auto dst = [&](std::size_t k) {
        return fxplanes[k % ncomp].row(k / ncomp) + ch.x0;
      };
      dma_get_row_tagged(ctx.dma, lr[0], src(0), cw, 0);
      for (std::size_t k = 0; k < nitems; ++k) {
        const unsigned cur = static_cast<unsigned>(k & 1);
        const unsigned nxt = cur ^ 1u;
        if (k + 1 < nitems) {
          dma_get_row_tagged(ctx.dma, lr[nxt], src(k + 1), cw, nxt);
        }
        ctx.dma.wait_tag(cur);
        ctx.dma.touch(lr[cur], cw * sizeof(Sample));
        ctx.dma.touch(fy[cur], cw * sizeof(Sample));
        simd_shift_to_fixed_row(s, lr[cur], fy[cur], cw, depth);
        dma_put_row_tagged(ctx.dma, fy[cur], dst(k), cw, cur);
      }
    }
    ctx.dma.wait_all();
    ctx.ls.reset();
  };

  auto ppe_work = [&](cell::OpCounters& c) {
    const auto& rem = plan.remainder;
    if (rem.width == 0) return;
    for (std::size_t y = 0; y < h; ++y) {
      if (color) {
        jp2k::shift_ict_forward_row_fixed(
            planes[0].row(y) + rem.x0, planes[1].row(y) + rem.x0,
            planes[2].row(y) + rem.x0, fxplanes[0].row(y) + rem.x0,
            fxplanes[1].row(y) + rem.x0, fxplanes[2].row(y) + rem.x0,
            rem.width, depth);
        c.s_int += rem.width * kPpeShiftIctOps;
        for (std::size_t cc = 3; cc < ncomp; ++cc) {
          jp2k::shift_to_fixed_row(planes[cc].row(y) + rem.x0,
                                   fxplanes[cc].row(y) + rem.x0, rem.width,
                                   depth);
          c.s_int += rem.width * kPpeShiftOps;
        }
      } else {
        for (std::size_t cc = 0; cc < ncomp; ++cc) {
          jp2k::shift_to_fixed_row(planes[cc].row(y) + rem.x0,
                                   fxplanes[cc].row(y) + rem.x0, rem.width,
                                   depth);
          c.s_int += rem.width * kPpeShiftOps;
        }
      }
    }
  };

  return m.run_data_parallel("levelshift+ict(fx)", spe_work, ppe_work);
}

}  // namespace

cell::StageTiming stage_mct_lossless(cell::Machine& m,
                                     std::vector<Plane>& planes, bool color,
                                     unsigned depth, backend::BackendKind bk) {
  return bk == backend::BackendKind::kNative
             ? mct_lossless<backend::HostVec>(m, planes, color, depth)
             : mct_lossless<cell::Simd>(m, planes, color, depth);
}

cell::StageTiming stage_mct_lossy(cell::Machine& m,
                                  const std::vector<Plane>& planes,
                                  std::vector<AlignedBuffer<float>>& fplanes,
                                  std::size_t stride, bool color,
                                  unsigned depth, backend::BackendKind bk) {
  return bk == backend::BackendKind::kNative
             ? mct_lossy<backend::HostVec>(m, planes, fplanes, stride, color,
                                           depth)
             : mct_lossy<cell::Simd>(m, planes, fplanes, stride, color, depth);
}

cell::StageTiming stage_mct_lossy_fixed(cell::Machine& m,
                                        const std::vector<Plane>& planes,
                                        std::vector<Plane>& fxplanes,
                                        bool color, unsigned depth,
                                        backend::BackendKind bk) {
  return bk == backend::BackendKind::kNative
             ? mct_lossy_fixed<backend::HostVec>(m, planes, fxplanes, color,
                                                 depth)
             : mct_lossy_fixed<cell::Simd>(m, planes, fxplanes, color, depth);
}

}  // namespace cj2k::cellenc
