#include "cellenc/stage_quant.hpp"

#include <algorithm>

#include "cellenc/kernels.hpp"
#include "common/error.hpp"
#include "decomp/chunk.hpp"
#include "jp2k/quant.hpp"

namespace cj2k::cellenc {

namespace {

constexpr std::uint64_t kPpeQuantOpsPerSample = 7;

// The float and the Q13 quantizer share one row stream and differ only in
// what these traits name: the coefficient type, the row kernel, the PPE row
// function and the PPE op charge.  Each quantizes one subband's segment of
// a row at the band's step.

struct QuantFloat {
  using In = float;
  static constexpr const char* kName = "quantize";
  static constexpr std::uint64_t kPpeOps = kPpeQuantOpsPerSample;
  static std::uint64_t& ppe_ops(cell::OpCounters& c) { return c.s_float; }

  template <class V>
  static void row(V& s, const In* in, Sample* out, std::size_t n,
                  double step) {
    simd_quant_row(s, in, out, n, static_cast<float>(1.0 / step));
  }
  static void ppe_row(const In* in, Sample* out, std::size_t n, double step) {
    jp2k::quantize_row(in, out, n, step);
  }
};

/// Q13 coefficients quantized by a Q16 reciprocal multiply (emulated on
/// the SPE).
struct QuantQ13 {
  using In = Sample;
  static constexpr const char* kName = "quantize(fx)";
  static constexpr std::uint64_t kPpeOps = kPpeQuantOpsPerSample + 3;
  static std::uint64_t& ppe_ops(cell::OpCounters& c) { return c.s_int; }

  template <class V>
  static void row(V& s, const In* in, Sample* out, std::size_t n,
                  double step) {
    const auto inv = static_cast<std::int64_t>((65536.0 / step) + 0.5);
    simd_quant_fixed_row(s, in, out, n, inv);
  }
  static void ppe_row(const In* in, Sample* out, std::size_t n, double step) {
    jp2k::quantize_fixed_row(in, out, n, step);
  }
};

/// Full rows split evenly over the SPEs; the PPE runs the whole plane only
/// when there is no SPE.
template <class Q, class V>
cell::StageTiming quant(cell::Machine& m, Span2d<const typename Q::In> in,
                        Span2d<Sample> qplane, const jp2k::TileComponent& tc) {
  using In = typename Q::In;
  const std::size_t w = in.width();
  const std::size_t h = in.height();
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
    // Whole-cache-line transfers; the fetched input tail is ignored and
    // qout[w..tw) writes zeros, matching the qplane's zero-initialized
    // stride padding (this stage is the plane's only writer).
    const std::size_t tw =
        padded_row_elems(w, std::min(in.stride(), qplane.stride()));
    // Ping/pong double buffering: row y computes on parity y&1 while row
    // y+1 streams into the other parity.  Gets and puts of one parity
    // share its tag, so one wait_tag claims the prefetched input and
    // retires the two-rows-ago output together; the prefetch is fenced so
    // each tag group stays an ordered stream (get after the retiring put),
    // the same idiom that makes in-place buffers legal elsewhere.
    In* fin[2] = {ctx.ls.alloc<In>(pad), ctx.ls.alloc<In>(pad)};
    Sample* qout[2] = {ctx.ls.alloc<Sample>(pad), ctx.ls.alloc<Sample>(pad)};
    for (std::size_t x = w; x < tw; ++x) qout[0][x] = 0;
    for (std::size_t x = w; x < tw; ++x) qout[1][x] = 0;
    dma_getf_row_tagged(ctx.dma, fin[0], in.row(start), tw, 0);
    for (std::size_t y = start; y < start + count; ++y) {
      const unsigned cur = static_cast<unsigned>((y - start) & 1);
      const unsigned nxt = cur ^ 1u;
      if (y + 1 < start + count) {
        dma_getf_row_tagged(ctx.dma, fin[nxt], in.row(y + 1), tw, nxt);
      }
      ctx.dma.wait_tag(cur);
      ctx.dma.touch(fin[cur], tw * sizeof(In));
      ctx.dma.touch(qout[cur], tw * sizeof(Sample));
      for (const auto& sb : tc.subbands) {
        if (y < sb.info.y0 || y >= sb.info.y0 + sb.info.h) continue;
        Q::row(s, fin[cur] + sb.info.x0, qout[cur] + sb.info.x0, sb.info.w,
               sb.quant_step);
      }
      dma_put_row_tagged(ctx.dma, qout[cur], qplane.row(y), tw, cur);
    }
    ctx.dma.wait_all();
    ctx.ls.reset();
  };

  auto ppe_work = [&](cell::OpCounters& c) {
    if (m.num_spes() > 0) return;  // SPEs took every row
    for (std::size_t y = 0; y < h; ++y) {
      for (const auto& sb : tc.subbands) {
        if (y < sb.info.y0 || y >= sb.info.y0 + sb.info.h) continue;
        Q::ppe_row(in.row(y) + sb.info.x0, qplane.row(y) + sb.info.x0,
                   sb.info.w, sb.quant_step);
      }
      Q::ppe_ops(c) += w * Q::kPpeOps;
    }
  };

  return m.run_data_parallel(Q::kName, spe_work, ppe_work);
}

template <class Q>
cell::StageTiming quant_on(backend::BackendKind bk, cell::Machine& m,
                           Span2d<const typename Q::In> in,
                           Span2d<Sample> qplane,
                           const jp2k::TileComponent& tc) {
  return with_policy(bk, [&](auto v) {
    return quant<Q, typename decltype(v)::type>(m, in, qplane, tc);
  });
}

}  // namespace

cell::StageTiming stage_quant(cell::Machine& m, Span2d<const float> fplane,
                              Span2d<Sample> qplane,
                              const jp2k::TileComponent& tc,
                              backend::BackendKind bk) {
  return quant_on<QuantFloat>(bk, m, fplane, qplane, tc);
}

cell::StageTiming stage_quant_fixed(cell::Machine& m,
                                    Span2d<const Sample> fxplane,
                                    Span2d<Sample> qplane,
                                    const jp2k::TileComponent& tc,
                                    backend::BackendKind bk) {
  return quant_on<QuantQ13>(bk, m, fxplane, qplane, tc);
}

}  // namespace cj2k::cellenc
