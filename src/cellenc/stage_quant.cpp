#include "cellenc/stage_quant.hpp"

#include <algorithm>

#include "backend/native_simd.hpp"
#include "cellenc/kernels.hpp"
#include "common/error.hpp"
#include "decomp/chunk.hpp"
#include "jp2k/quant.hpp"

namespace cj2k::cellenc {

namespace {

/// One constant-step segment of a plane row.
struct Segment {
  std::size_t x0;
  std::size_t width;
  float inv_step;
  double step;  ///< Exact step for the (scalar) PPE path.
};

/// The subbands that intersect row y, as left-to-right segments tiling
/// [0, plane width).
std::vector<Segment> segments_for_row(const jp2k::TileComponent& tc,
                                      std::size_t y) {
  std::vector<Segment> segs;
  for (const auto& sb : tc.subbands) {
    if (y >= sb.info.y0 && y < sb.info.y0 + sb.info.h) {
      segs.push_back({sb.info.x0, sb.info.w,
                      static_cast<float>(1.0 / sb.quant_step),
                      sb.quant_step});
    }
  }
  std::sort(segs.begin(), segs.end(),
            [](const Segment& a, const Segment& b) { return a.x0 < b.x0; });
  return segs;
}

constexpr std::uint64_t kPpeQuantOpsPerSample = 7;

template <class V>
cell::StageTiming quant(cell::Machine& m, Span2d<const float> fplane,
                        Span2d<Sample> qplane, const jp2k::TileComponent& tc) {
  const std::size_t w = fplane.width();
  const std::size_t h = fplane.height();
  CJ2K_CHECK(qplane.width() == w && qplane.height() == h);

  const auto rows = decomp::split_rows(
      h, static_cast<std::size_t>(std::max(1, m.num_spes())));

  auto spe_work = [&](int i, cell::SpeContext& ctx) {
    if (m.num_spes() == 0 ||
        static_cast<std::size_t>(i) >= rows.size()) {
      return;
    }
    const auto [start, count] = rows[static_cast<std::size_t>(i)];
    V s = vec_policy<V>(ctx);
    const std::size_t pad = round_up(w, 32);
    // Whole-cache-line transfers; the fetched fplane tail is ignored and
    // qout[w..tw) writes zeros, matching the qplane's zero-initialized
    // stride padding (this stage is the plane's only writer).
    const std::size_t tw =
        padded_row_elems(w, std::min(fplane.stride(), qplane.stride()));
    // Ping/pong double buffering: row y computes on parity y&1 while row
    // y+1 streams into the other parity.  Gets and puts of one parity
    // share its tag, so one wait_tag claims the prefetched input and
    // retires the two-rows-ago output together; the prefetch is fenced so
    // each tag group stays an ordered stream (get after the retiring put),
    // the same idiom that makes in-place buffers legal elsewhere.
    float* fin[2] = {ctx.ls.alloc<float>(pad), ctx.ls.alloc<float>(pad)};
    Sample* qout[2] = {ctx.ls.alloc<Sample>(pad), ctx.ls.alloc<Sample>(pad)};
    for (std::size_t x = w; x < tw; ++x) qout[0][x] = 0;
    for (std::size_t x = w; x < tw; ++x) qout[1][x] = 0;
    dma_getf_row_tagged(ctx.dma, fin[0], fplane.row(start), tw, 0);
    for (std::size_t y = start; y < start + count; ++y) {
      const unsigned cur = static_cast<unsigned>((y - start) & 1);
      const unsigned nxt = cur ^ 1u;
      if (y + 1 < start + count) {
        dma_getf_row_tagged(ctx.dma, fin[nxt], fplane.row(y + 1), tw, nxt);
      }
      ctx.dma.wait_tag(cur);
      ctx.dma.touch(fin[cur], tw * sizeof(float));
      ctx.dma.touch(qout[cur], tw * sizeof(Sample));
      for (const auto& seg : segments_for_row(tc, y)) {
        simd_quant_row(s, fin[cur] + seg.x0, qout[cur] + seg.x0,
                       seg.width, seg.inv_step);
      }
      dma_put_row_tagged(ctx.dma, qout[cur], qplane.row(y), tw, cur);
    }
    ctx.dma.wait_all();
    ctx.ls.reset();
  };

  auto ppe_work = [&](cell::OpCounters& c) {
    if (m.num_spes() > 0) return;  // SPEs took every row
    for (std::size_t y = 0; y < h; ++y) {
      for (const auto& seg : segments_for_row(tc, y)) {
        jp2k::quantize_row(fplane.row(y) + seg.x0, qplane.row(y) + seg.x0,
                           seg.width, seg.step);
      }
      c.s_float += w * kPpeQuantOpsPerSample;
    }
  };

  return m.run_data_parallel("quantize", spe_work, ppe_work);
}

template <class V>
cell::StageTiming quant_fixed(cell::Machine& m, Span2d<const Sample> fxplane,
                              Span2d<Sample> qplane,
                              const jp2k::TileComponent& tc) {
  const std::size_t w = fxplane.width();
  const std::size_t h = fxplane.height();
  CJ2K_CHECK(qplane.width() == w && qplane.height() == h);

  const auto rows = decomp::split_rows(
      h, static_cast<std::size_t>(std::max(1, m.num_spes())));

  auto spe_work = [&](int i, cell::SpeContext& ctx) {
    if (m.num_spes() == 0 || static_cast<std::size_t>(i) >= rows.size()) {
      return;
    }
    const auto [start, count] = rows[static_cast<std::size_t>(i)];
    V s = vec_policy<V>(ctx);
    const std::size_t pad = round_up(w, 32);
    // Whole-cache-line transfers, ping/pong double buffering (see
    // stage_quant above).
    const std::size_t tw =
        padded_row_elems(w, std::min(fxplane.stride(), qplane.stride()));
    Sample* fin[2] = {ctx.ls.alloc<Sample>(pad), ctx.ls.alloc<Sample>(pad)};
    Sample* qout[2] = {ctx.ls.alloc<Sample>(pad), ctx.ls.alloc<Sample>(pad)};
    for (std::size_t x = w; x < tw; ++x) qout[0][x] = 0;
    for (std::size_t x = w; x < tw; ++x) qout[1][x] = 0;
    dma_getf_row_tagged(ctx.dma, fin[0], fxplane.row(start), tw, 0);
    for (std::size_t y = start; y < start + count; ++y) {
      const unsigned cur = static_cast<unsigned>((y - start) & 1);
      const unsigned nxt = cur ^ 1u;
      if (y + 1 < start + count) {
        dma_getf_row_tagged(ctx.dma, fin[nxt], fxplane.row(y + 1), tw, nxt);
      }
      ctx.dma.wait_tag(cur);
      ctx.dma.touch(fin[cur], tw * sizeof(Sample));
      ctx.dma.touch(qout[cur], tw * sizeof(Sample));
      for (const auto& seg : segments_for_row(tc, y)) {
        const auto inv = static_cast<std::int64_t>(
            (65536.0 / seg.step) + 0.5);
        simd_quant_fixed_row(s, fin[cur] + seg.x0, qout[cur] + seg.x0,
                             seg.width, inv);
      }
      dma_put_row_tagged(ctx.dma, qout[cur], qplane.row(y), tw, cur);
    }
    ctx.dma.wait_all();
    ctx.ls.reset();
  };

  auto ppe_work = [&](cell::OpCounters& c) {
    if (m.num_spes() > 0) return;
    for (std::size_t y = 0; y < h; ++y) {
      for (const auto& seg : segments_for_row(tc, y)) {
        jp2k::quantize_fixed_row(fxplane.row(y) + seg.x0,
                                 qplane.row(y) + seg.x0, seg.width,
                                 seg.step);
      }
      c.s_int += w * (kPpeQuantOpsPerSample + 3);
    }
  };

  return m.run_data_parallel("quantize(fx)", spe_work, ppe_work);
}

}  // namespace

cell::StageTiming stage_quant(cell::Machine& m, Span2d<const float> fplane,
                              Span2d<Sample> qplane,
                              const jp2k::TileComponent& tc,
                              backend::BackendKind bk) {
  return bk == backend::BackendKind::kNative
             ? quant<backend::HostVec>(m, fplane, qplane, tc)
             : quant<cell::Simd>(m, fplane, qplane, tc);
}

cell::StageTiming stage_quant_fixed(cell::Machine& m,
                                    Span2d<const Sample> fxplane,
                                    Span2d<Sample> qplane,
                                    const jp2k::TileComponent& tc,
                                    backend::BackendKind bk) {
  return bk == backend::BackendKind::kNative
             ? quant_fixed<backend::HostVec>(m, fxplane, qplane, tc)
             : quant_fixed<cell::Simd>(m, fxplane, qplane, tc);
}

}  // namespace cj2k::cellenc
