// Kernel-level property tests for the one-source SPE row kernels
// (cellenc/kernels.hpp, DESIGN.md §13): every templated kernel, called
// directly on each vector policy — the counting cell::Simd, the host
// backend::HostVec and HostVec's scalar fallback — against the serial jp2k
// reference, over every width 1..97 and exact-size buffers.  The counting
// instantiation is also pinned op for op: the counters each kernel charges
// are the simulated seconds' only input.
//
// The buffers are AlignedBuffers sized to EXACTLY the element count each
// kernel is allowed to touch — no stride padding.  Under the ASan CI leg
// any kernel that reads or writes a pad lane past n faults here, which pins
// the "kernels never touch padded_row_elems pad bytes" invariant at the
// kernel level (the pipeline-level sweep would only catch it if the stray
// read changed bytes).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "dwt_reference.hpp"
#include "backend/kernel_backend.hpp"
#include "backend/native_simd.hpp"
#include "cell/counters.hpp"
#include "cell/simd.hpp"
#include "cellenc/kernels.hpp"
#include "cellenc/pipeline.hpp"
#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"
#include "common/span2d.hpp"
#include "image/synth.hpp"
#include "jp2k/dwt97.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/mct.hpp"
#include "jp2k/t1_common.hpp"

namespace cj2k {
namespace {

using namespace cellenc;

// Every width 1..97: 1-lane, sub-vector, vector-straddling, the unpaddable
// 24 (96 bytes — never a 128-byte-line multiple), primes, a clean 64.
std::vector<std::size_t> row_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 97; ++n) sizes.push_back(n);
  return sizes;
}

/// Exact-size 16-byte-aligned buffer: big enough alignment for the Cell
/// model's quad-word loads, small enough that ASan sees any pad access.
template <typename T>
AlignedBuffer<T> exact(std::size_t n) {
  return AlignedBuffer<T>(n, 16);
}

void fill_samples(Rng& rng, Sample* p, std::size_t n, int span = 255) {
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<Sample>(rng.next_below(
               static_cast<std::uint64_t>(2 * span + 1))) -
           span;
  }
}

void fill_floats(Rng& rng, float* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng.next_double() * 256.0 - 128.0);
  }
}

template <class V>
class BackendKernel : public ::testing::Test {
 protected:
  static V make_policy(cell::OpCounters& c) {
    if constexpr (std::is_same_v<V, cell::Simd>) {
      return V(c);
    } else {
      return V{};
    }
  }
  cell::OpCounters counters_;
  V s_ = make_policy(counters_);
};

// cell::BasicSimd<false> is HostVec's scalar fallback; listing it keeps
// that path tested on hosts where HostVec lowers to SSE2 or NEON.
using Policies =
    ::testing::Types<cell::Simd, backend::HostVec, cell::BasicSimd<false>>;
struct PolicyName {
  template <class V>
  static std::string GetName(int i) {
    static const char* const kNames[] = {"cell", "native", "scalar"};
    return kNames[i];
  }
};
TYPED_TEST_SUITE(BackendKernel, Policies, PolicyName);

// --- MCT rows --------------------------------------------------------------

TYPED_TEST(BackendKernel, ShiftRctRowMatchesSerialAndRoundTrips) {
  Rng rng(101);
  for (std::size_t n : row_sizes()) {
    auto r = exact<Sample>(n), g = exact<Sample>(n), b = exact<Sample>(n);
    fill_samples(rng, r.data(), n);
    fill_samples(rng, g.data(), n);
    fill_samples(rng, b.data(), n);
    for (std::size_t i = 0; i < n; ++i) {  // unshifted 8-bit samples
      r[i] = (r[i] + 256) % 256;
      g[i] = (g[i] + 256) % 256;
      b[i] = (b[i] + 256) % 256;
    }
    std::vector<Sample> rr(r.data(), r.data() + n), gg(g.data(),
                                                       g.data() + n),
        bb(b.data(), b.data() + n);
    simd_shift_rct_row(this->s_, r.data(), g.data(), b.data(), n, 8);

    auto ref_r = rr, ref_g = gg, ref_b = bb;
    jp2k::shift_rct_forward_row(ref_r.data(), ref_g.data(), ref_b.data(), n,
                                8);
    EXPECT_EQ(std::memcmp(r.data(), ref_r.data(), n * sizeof(Sample)), 0)
        << n;
    EXPECT_EQ(std::memcmp(g.data(), ref_g.data(), n * sizeof(Sample)), 0)
        << n;
    EXPECT_EQ(std::memcmp(b.data(), ref_b.data(), n * sizeof(Sample)), 0)
        << n;

    // Perfect reconstruction through the serial inverse.
    jp2k::rct_inverse_row(r.data(), g.data(), b.data(), n);
    jp2k::level_unshift_row(r.data(), n, 8);
    jp2k::level_unshift_row(g.data(), n, 8);
    jp2k::level_unshift_row(b.data(), n, 8);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(r[i], rr[i]) << n << ":" << i;
      EXPECT_EQ(g[i], gg[i]) << n << ":" << i;
      EXPECT_EQ(b[i], bb[i]) << n << ":" << i;
    }
  }
}

TYPED_TEST(BackendKernel, ShiftRowMatchesSerialLevelShift) {
  Rng rng(102);
  for (std::size_t n : row_sizes()) {
    auto x = exact<Sample>(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = static_cast<Sample>(rng.next_below(256));
    }
    std::vector<Sample> ref(x.data(), x.data() + n);
    simd_shift_row(this->s_, x.data(), n, 8);
    jp2k::level_shift_row(ref.data(), n, 8);
    EXPECT_EQ(std::memcmp(x.data(), ref.data(), n * sizeof(Sample)), 0) << n;
  }
}

TYPED_TEST(BackendKernel, ShiftIctRowMatchesSerialBitwise) {
  Rng rng(103);
  for (std::size_t n : row_sizes()) {
    auto r = exact<Sample>(n), g = exact<Sample>(n), b = exact<Sample>(n);
    auto y = exact<float>(n), cb = exact<float>(n), cr = exact<float>(n);
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = static_cast<Sample>(rng.next_below(256));
      g[i] = static_cast<Sample>(rng.next_below(256));
      b[i] = static_cast<Sample>(rng.next_below(256));
    }
    simd_shift_ict_row(this->s_, r.data(), g.data(), b.data(), y.data(),
                       cb.data(), cr.data(), n, 8);
    std::vector<float> ry(n), rcb(n), rcr(n);
    jp2k::shift_ict_forward_row(r.data(), g.data(), b.data(), ry.data(),
                                rcb.data(), rcr.data(), n, 8);
    // Bitwise: same operation order under -ffp-contract=off.
    EXPECT_EQ(std::memcmp(y.data(), ry.data(), n * sizeof(float)), 0) << n;
    EXPECT_EQ(std::memcmp(cb.data(), rcb.data(), n * sizeof(float)), 0) << n;
    EXPECT_EQ(std::memcmp(cr.data(), rcr.data(), n * sizeof(float)), 0) << n;
  }
}

TYPED_TEST(BackendKernel, ShiftFixedRowsMatchSerial) {
  Rng rng(104);
  for (std::size_t n : row_sizes()) {
    auto r = exact<Sample>(n), g = exact<Sample>(n), b = exact<Sample>(n);
    auto y = exact<Sample>(n), cb = exact<Sample>(n), cr = exact<Sample>(n);
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = static_cast<Sample>(rng.next_below(256));
      g[i] = static_cast<Sample>(rng.next_below(256));
      b[i] = static_cast<Sample>(rng.next_below(256));
    }
    simd_shift_ict_fixed_row(this->s_, r.data(), g.data(), b.data(),
                             y.data(), cb.data(), cr.data(), n, 8);
    std::vector<Sample> ry(n), rcb(n), rcr(n);
    jp2k::shift_ict_forward_row_fixed(r.data(), g.data(), b.data(),
                                      ry.data(), rcb.data(), rcr.data(), n,
                                      8);
    EXPECT_EQ(std::memcmp(y.data(), ry.data(), n * sizeof(Sample)), 0) << n;
    EXPECT_EQ(std::memcmp(cb.data(), rcb.data(), n * sizeof(Sample)), 0)
        << n;
    EXPECT_EQ(std::memcmp(cr.data(), rcr.data(), n * sizeof(Sample)), 0)
        << n;

    auto fx = exact<Sample>(n);
    simd_shift_to_fixed_row(this->s_, r.data(), fx.data(), n, 8);
    std::vector<Sample> rfx(n);
    jp2k::shift_to_fixed_row(r.data(), rfx.data(), n, 8);
    EXPECT_EQ(std::memcmp(fx.data(), rfx.data(), n * sizeof(Sample)), 0)
        << n;
  }
}

TYPED_TEST(BackendKernel, ShiftToFloatRowMatchesScalarContract) {
  Rng rng(105);
  for (std::size_t n : row_sizes()) {
    auto x = exact<Sample>(n);
    auto out = exact<float>(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = static_cast<Sample>(rng.next_below(256));
    }
    simd_shift_to_float_row(this->s_, x.data(), out.data(), n, 8);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], static_cast<float>(x[i] - 128)) << n << ":" << i;
    }
  }
}

// --- DWT vertical lifting rows ---------------------------------------------

TYPED_TEST(BackendKernel, VerticalLiftRowsMatchScalarContracts) {
  Rng rng(106);
  for (std::size_t n : row_sizes()) {
    auto d = exact<Sample>(n), a = exact<Sample>(n), b = exact<Sample>(n);
    fill_samples(rng, d.data(), n, 1 << 12);
    fill_samples(rng, a.data(), n, 1 << 12);
    fill_samples(rng, b.data(), n, 1 << 12);
    std::vector<Sample> pd(d.data(), d.data() + n);
    simd_predict53_row(this->s_, d.data(), a.data(), b.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(d[i], pd[i] - ((a[i] + b[i]) >> 1)) << n << ":" << i;
    }
    std::vector<Sample> ud(d.data(), d.data() + n);
    simd_update53_row(this->s_, d.data(), a.data(), b.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(d[i], ud[i] + ((a[i] + b[i] + 2) >> 2)) << n << ":" << i;
    }

    auto x = exact<float>(n), fa = exact<float>(n), fb = exact<float>(n);
    fill_floats(rng, x.data(), n);
    fill_floats(rng, fa.data(), n);
    fill_floats(rng, fb.data(), n);
    std::vector<float> px(x.data(), x.data() + n);
    simd_lift97_row(this->s_, x.data(), fa.data(), fb.data(),
                    jp2k::dwt97::kAlpha, n);
    for (std::size_t i = 0; i < n; ++i) {
      // mul-then-add, never fused; the final add commutes bitwise.
      const float expect = jp2k::dwt97::kAlpha * (fa[i] + fb[i]) + px[i];
      EXPECT_EQ(x[i], expect) << n << ":" << i;
    }
    std::vector<float> sx(x.data(), x.data() + n);
    simd_scale_row(this->s_, x.data(), jp2k::dwt97::kK, n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(x[i], sx[i] * jp2k::dwt97::kK) << n << ":" << i;
    }

    auto fxx = exact<std::int32_t>(n), fxa = exact<std::int32_t>(n),
         fxb = exact<std::int32_t>(n);
    fill_samples(rng, fxx.data(), n, 1 << 20);
    fill_samples(rng, fxa.data(), n, 1 << 20);
    fill_samples(rng, fxb.data(), n, 1 << 20);
    std::vector<std::int32_t> pfx(fxx.data(), fxx.data() + n);
    const std::int32_t c13 = jp2k::dwt97::fix_const(jp2k::dwt97::kGamma);
    simd_lift97_fixed_row(this->s_, fxx.data(), fxa.data(), fxb.data(), c13,
                          n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(fxx[i], pfx[i] + jp2k::dwt97::fix_mul(c13, fxa[i] + fxb[i]))
          << n << ":" << i;
    }
    auto sfx = exact<Sample>(n);
    fill_samples(rng, sfx.data(), n, 1 << 20);
    std::vector<Sample> psf(sfx.data(), sfx.data() + n);
    simd_scale_fixed_row(this->s_, sfx.data(), c13, n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(sfx[i], jp2k::dwt97::fix_mul(c13, psf[i])) << n << ":" << i;
    }
  }
}

// --- DWT horizontal full rows ----------------------------------------------

TYPED_TEST(BackendKernel, Dwt53HRowMatchesSerialAnalyzeAndReconstructs) {
  Rng rng(107);
  for (std::size_t n : row_sizes()) {
    if (n < 2) continue;  // the pipeline never splits a 1-sample row
    const std::size_t nl = (n + 1) / 2, nh = n / 2;
    auto in = exact<Sample>(n), even = exact<Sample>(nl),
         odd = exact<Sample>(nh);
    fill_samples(rng, in.data(), n, 1 << 12);
    simd_dwt53_h_row(this->s_, in.data(), even.data(), odd.data(), n);

    std::vector<Sample> ref(in.data(), in.data() + n), scratch(n);
    jp2k::ref::analyze53(ref.data(), n, 1, scratch.data());
    EXPECT_EQ(std::memcmp(even.data(), ref.data(), nl * sizeof(Sample)), 0)
        << n;
    EXPECT_EQ(std::memcmp(odd.data(), ref.data() + nl, nh * sizeof(Sample)),
              0)
        << n;

    // Perfect reconstruction: L|H back through the serial synthesis.
    std::vector<Sample> lh(n);
    std::copy(even.data(), even.data() + nl, lh.begin());
    std::copy(odd.data(), odd.data() + nh, lh.begin() + nl);
    jp2k::ref::synthesize53(lh.data(), n, 1, scratch.data());
    EXPECT_EQ(std::memcmp(lh.data(), in.data(), n * sizeof(Sample)), 0) << n;
  }
}

TYPED_TEST(BackendKernel, Dwt97HRowMatchesSerialAnalyzeBitwise) {
  Rng rng(108);
  for (std::size_t n : row_sizes()) {
    if (n < 2) continue;
    const std::size_t nl = (n + 1) / 2, nh = n / 2;
    auto in = exact<float>(n), even = exact<float>(nl),
         odd = exact<float>(nh);
    fill_floats(rng, in.data(), n);
    simd_dwt97_h_row(this->s_, in.data(), even.data(), odd.data(), n);

    std::vector<float> ref(in.data(), in.data() + n), scratch(n);
    jp2k::ref::analyze97(ref.data(), n, 1, scratch.data());
    EXPECT_EQ(std::memcmp(even.data(), ref.data(), nl * sizeof(float)), 0)
        << n;
    EXPECT_EQ(std::memcmp(odd.data(), ref.data() + nl, nh * sizeof(float)),
              0)
        << n;
  }
}

TYPED_TEST(BackendKernel, Dwt97FixedHRowMatchesSerialAnalyze) {
  Rng rng(109);
  for (std::size_t n : row_sizes()) {
    if (n < 2) continue;
    const std::size_t nl = (n + 1) / 2, nh = n / 2;
    auto in = exact<Sample>(n), even = exact<Sample>(nl),
         odd = exact<Sample>(nh);
    fill_samples(rng, in.data(), n, 1 << 20);  // Q13-scaled magnitudes
    simd_dwt97_fixed_h_row(this->s_, in.data(), even.data(), odd.data(), n);

    std::vector<jp2k::dwt97::Fix> ref(in.data(), in.data() + n), scratch(n);
    jp2k::ref::analyze97_fixed(ref.data(), n, 1, scratch.data());
    EXPECT_EQ(std::memcmp(even.data(), ref.data(), nl * sizeof(Sample)), 0)
        << n;
    EXPECT_EQ(std::memcmp(odd.data(), ref.data() + nl, nh * sizeof(Sample)),
              0)
        << n;
  }
}

// --- Quantization -----------------------------------------------------------

TYPED_TEST(BackendKernel, QuantRowMatchesScalarContractAndIsMonotone) {
  Rng rng(110);
  for (std::size_t n : row_sizes()) {
    auto in = exact<float>(n);
    auto out = exact<Sample>(n);
    fill_floats(rng, in.data(), n);
    if (n >= 4) {  // adversarial lanes: negative zero, exact ties
      in[0] = -0.0f;
      in[1] = 0.0f;
      in[2] = -1.0f;
      in[3] = 1.0f;
    }
    const float inv = 1.0f / 0.37f;
    simd_quant_row(this->s_, in.data(), out.data(), n, inv);
    for (std::size_t i = 0; i < n; ++i) {
      const float v = in[i];
      const float mag = (v < 0.0f ? -v : v) * inv;
      const Sample q = static_cast<Sample>(mag);
      EXPECT_EQ(out[i], v < 0.0f ? -q : q) << n << ":" << i;
    }
  }

  // Monotonicity: |v1| <= |v2|  =>  |q1| <= |q2| (dead-zone quantizer).
  auto in = exact<float>(64);
  auto out = exact<Sample>(64);
  for (std::size_t i = 0; i < 64; ++i) {
    in[i] = 0.05f * static_cast<float>(i);
  }
  simd_quant_row(this->s_, in.data(), out.data(), 64, 1.0f / 0.13f);
  for (std::size_t i = 1; i < 64; ++i) {
    EXPECT_LE(out[i - 1], out[i]) << i;
  }
}

TYPED_TEST(BackendKernel, QuantFixedRowMatchesScalarContract) {
  Rng rng(111);
  for (std::size_t n : row_sizes()) {
    auto in = exact<Sample>(n);
    auto out = exact<Sample>(n);
    fill_samples(rng, in.data(), n, 1 << 20);
    const std::int64_t inv = static_cast<std::int64_t>((65536.0 / 0.37) + 0.5);
    simd_quant_fixed_row(this->s_, in.data(), out.data(), n, inv);
    for (std::size_t i = 0; i < n; ++i) {
      const Sample v = in[i];
      const std::int64_t a = v < 0 ? -static_cast<std::int64_t>(v) : v;
      const Sample q = static_cast<Sample>((a * inv) >> 29);
      EXPECT_EQ(out[i], v < 0 ? -q : q) << n << ":" << i;
    }
  }
}

// --- Local Store shuffles ---------------------------------------------------

TYPED_TEST(BackendKernel, DeinterleaveAndCopyMatchScalarContracts) {
  Rng rng(112);
  for (std::size_t n : row_sizes()) {
    if (n < 2) continue;  // a 1-sample row has no odd half to deinterleave
    const std::size_t nl = (n + 1) / 2, nh = n / 2;
    auto in = exact<Sample>(n), even = exact<Sample>(nl),
         odd = exact<Sample>(nh);
    fill_samples(rng, in.data(), n);
    simd_deinterleave_row(this->s_, in.data(), even.data(), odd.data(), n);
    for (std::size_t i = 0; i < nl; ++i) EXPECT_EQ(even[i], in[2 * i]) << n;
    for (std::size_t i = 0; i < nh; ++i) {
      EXPECT_EQ(odd[i], in[2 * i + 1]) << n;
    }

    auto fin = exact<float>(n), feven = exact<float>(nl),
         fodd = exact<float>(nh);
    fill_floats(rng, fin.data(), n);
    simd_deinterleave_row(this->s_, fin.data(), feven.data(), fodd.data(), n);
    for (std::size_t i = 0; i < nl; ++i) {
      EXPECT_EQ(feven[i], fin[2 * i]) << n;
    }
    for (std::size_t i = 0; i < nh; ++i) {
      EXPECT_EQ(fodd[i], fin[2 * i + 1]) << n;
    }

    auto dst = exact<Sample>(n);
    this->s_.ls_copy(dst.data(), in.data(), n * sizeof(Sample));
    EXPECT_EQ(std::memcmp(dst.data(), in.data(), n * sizeof(Sample)), 0)
        << n;
  }
}

// --- The unpaddable column-group geometry, end to end -----------------------

// colgroup_elems=24 forces 96-byte column groups whose row transfers can
// never round up to a 128-byte line: the geometry where a kernel that
// touches padded_row_elems pad lanes has nowhere to hide.  Full encodes
// must still match the serial reference byte for byte, counted and as a
// memo hit.
TEST(BackendKernelPipeline, UnpaddableColgroupMatchesSerial) {
  const Image img = synth::photographic(100, 84, 3, 4242);
  for (const bool lossy : {false, true}) {
    jp2k::CodingParams p;
    p.levels = 3;
    if (lossy) {
      p.wavelet = jp2k::WaveletKind::kIrreversible97;
      p.rate = 0.25;
    }
    const auto serial = jp2k::encode(img, p);

    cell::MachineConfig cfg;
    cfg.num_spes = 3;
    cfg.num_ppe_threads = 1;
    cellenc::CellEncoder enc(cfg);
    cellenc::PipelineOptions opt;
    opt.dwt.colgroup_elems = 24;
    for (const std::size_t hits : {0, 1}) {
      const auto res = enc.encode(img, p, opt);
      EXPECT_EQ(res.front_memo_hits, hits);
      EXPECT_EQ(res.codestream, serial)
          << (lossy ? "lossy" : "lossless") << " memo hits " << hits;
    }
  }
}

// --- T1 prescan -------------------------------------------------------------

TEST(BlockPrescan, MagSignAndMaxMatchScalarReference) {
  Rng rng(113);
  for (const auto& [w, h] : {std::pair<std::size_t, std::size_t>{1, 1},
                            {7, 5},
                            {24, 24},
                            {33, 31},
                            {64, 17}}) {
    // Exact-size coefficient plane (no stride padding to hide in).
    auto coeffs = exact<Sample>(w * h);
    fill_samples(rng, coeffs.data(), w * h, 1 << 16);
    Span2d<const Sample> view(coeffs.data(), w, h, w);

    // Magnitudes land in stripe-column order; a partial last stripe's
    // padding lanes are left alone.
    jp2k::T1Flags flags(w, h);
    const std::size_t stripe = jp2k::kStripeHeight;
    std::vector<std::uint32_t> mag(flags.stripes() * stripe * w, 0xDEADBEEF);
    const std::uint32_t maxmag =
        jp2k::block_prescan(view, mag.data(), &flags);

    std::uint32_t ref_max = 0;
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        const Sample v = view(y, x);
        const std::uint32_t m =
            static_cast<std::uint32_t>(v < 0 ? -static_cast<std::int64_t>(v)
                                             : v);
        EXPECT_EQ(mag[(y / stripe * w + x) * stripe + y % stripe], m)
            << w << "x" << h;
        EXPECT_EQ(flags.at(y, x) & jp2k::kFlagSign,
                  v < 0 ? jp2k::kFlagSign : 0)
            << w << "x" << h;
        if (m > ref_max) ref_max = m;
      }
    }
    for (std::size_t y = h; y < flags.stripes() * stripe; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        EXPECT_EQ(mag[(y / stripe * w + x) * stripe + y % stripe],
                  0xDEADBEEF)
            << w << "x" << h;
      }
    }
    EXPECT_EQ(maxmag, ref_max) << w << "x" << h;
    EXPECT_EQ(jp2k::block_prescan(view), ref_max) << w << "x" << h;
  }

  // The all-zero block: both prescan forms must report zero.
  auto zeros = exact<Sample>(12 * 9);
  std::memset(zeros.data(), 0, 12 * 9 * sizeof(Sample));
  Span2d<const Sample> zview(zeros.data(), 12, 9, 12);
  jp2k::T1Flags zflags(12, 9);
  std::vector<std::uint32_t> zmag(zflags.stripes() * jp2k::kStripeHeight * 12);
  EXPECT_EQ(jp2k::block_prescan(zview, zmag.data(), &zflags), 0u);
  EXPECT_EQ(jp2k::block_prescan(zview), 0u);
}

// --- The counting instantiation, op for op ----------------------------------

/// OpCounters each kernel charged on cell::Simd at widths 5, 24 and 97
/// before the kernels were templated over the vector policy, in field order
/// v_load, v_store, v_add, v_mul_f, v_mul_i_emul, v_shift, v_cmp_sel,
/// v_shuffle, v_cvt, s_int.  The simulated seconds are a pure function of
/// these counts, so any drift here moves every sim_s figure.
struct CounterPin {
  const char* kernel;
  std::size_t n;
  std::array<std::uint64_t, 10> ops;
};

const CounterPin kCounterPins[] = {
    {"shift_rct_row", 5, {3, 3, 8, 0, 0, 1, 0, 1, 0, 5}},
    {"shift_rct_row", 24, {18, 18, 48, 0, 0, 6, 0, 1, 0, 6}},
    {"shift_rct_row", 97, {72, 72, 192, 0, 0, 24, 0, 1, 0, 28}},
    {"shift_row", 5, {1, 1, 1, 0, 0, 0, 0, 1, 0, 5}},
    {"shift_row", 24, {6, 6, 6, 0, 0, 0, 0, 1, 0, 6}},
    {"shift_row", 97, {24, 24, 24, 0, 0, 0, 0, 1, 0, 28}},
    {"shift_ict_row", 5, {3, 3, 3, 9, 0, 0, 0, 10, 3, 5}},
    {"shift_ict_row", 24, {18, 18, 18, 54, 0, 0, 0, 10, 18, 6}},
    {"shift_ict_row", 97, {72, 72, 72, 216, 0, 0, 0, 10, 72, 28}},
    {"shift_to_float_row", 5, {1, 1, 1, 0, 0, 0, 0, 1, 1, 5}},
    {"shift_to_float_row", 24, {6, 6, 6, 0, 0, 0, 0, 1, 6, 6}},
    {"shift_to_float_row", 97, {24, 24, 24, 0, 0, 0, 0, 1, 24, 28}},
    {"shift_ict_fixed_row", 5, {3, 3, 9, 0, 9, 0, 0, 10, 0, 5}},
    {"shift_ict_fixed_row", 24, {18, 18, 54, 0, 54, 0, 0, 10, 0, 6}},
    {"shift_ict_fixed_row", 97, {72, 72, 216, 0, 216, 0, 0, 10, 0, 28}},
    {"shift_to_fixed_row", 5, {1, 1, 1, 0, 0, 1, 0, 1, 0, 5}},
    {"shift_to_fixed_row", 24, {6, 6, 6, 0, 0, 6, 0, 1, 0, 6}},
    {"shift_to_fixed_row", 97, {24, 24, 24, 0, 0, 24, 0, 1, 0, 28}},
    {"predict53_row", 5, {3, 1, 2, 0, 0, 1, 0, 0, 0, 5}},
    {"predict53_row", 24, {18, 6, 12, 0, 0, 6, 0, 0, 0, 6}},
    {"predict53_row", 97, {72, 24, 48, 0, 0, 24, 0, 0, 0, 28}},
    {"update53_row", 5, {3, 1, 3, 0, 0, 1, 0, 1, 0, 5}},
    {"update53_row", 24, {18, 6, 18, 0, 0, 6, 0, 1, 0, 6}},
    {"update53_row", 97, {72, 24, 72, 0, 0, 24, 0, 1, 0, 28}},
    {"lift97_row", 5, {3, 1, 1, 1, 0, 0, 0, 1, 0, 5}},
    {"lift97_row", 24, {18, 6, 6, 6, 0, 0, 0, 1, 0, 6}},
    {"lift97_row", 97, {72, 24, 24, 24, 0, 0, 0, 1, 0, 28}},
    {"scale_row", 5, {1, 1, 0, 1, 0, 0, 0, 1, 0, 5}},
    {"scale_row", 24, {6, 6, 0, 6, 0, 0, 0, 1, 0, 6}},
    {"scale_row", 97, {24, 24, 0, 24, 0, 0, 0, 1, 0, 28}},
    {"lift97_fixed_row", 5, {3, 1, 2, 0, 1, 1, 0, 1, 0, 5}},
    {"lift97_fixed_row", 24, {18, 6, 12, 0, 6, 6, 0, 1, 0, 6}},
    {"lift97_fixed_row", 97, {72, 24, 48, 0, 24, 24, 0, 1, 0, 28}},
    {"scale_fixed_row", 5, {1, 1, 0, 0, 1, 1, 0, 1, 0, 5}},
    {"scale_fixed_row", 24, {6, 6, 0, 0, 6, 6, 0, 1, 0, 6}},
    {"scale_fixed_row", 97, {24, 24, 0, 0, 24, 24, 0, 1, 0, 28}},
    {"dwt53_h_row", 5, {0, 0, 0, 0, 0, 0, 0, 1, 0, 35}},
    {"dwt53_h_row", 24, {22, 10, 10, 0, 0, 4, 0, 11, 0, 39}},
    {"dwt53_h_row", 97, {116, 47, 57, 0, 0, 23, 0, 48, 0, 58}},
    {"dwt97_h_row", 5, {0, 0, 0, 0, 0, 0, 0, 6, 0, 75}},
    {"dwt97_h_row", 24, {44, 20, 8, 14, 0, 0, 0, 20, 0, 81}},
    {"dwt97_h_row", 97, {232, 94, 46, 70, 0, 0, 0, 76, 0, 129}},
    {"dwt97_fixed_h_row", 5, {0, 0, 0, 0, 0, 0, 0, 6, 0, 95}},
    {"dwt97_fixed_h_row", 24, {44, 20, 16, 0, 14, 14, 0, 20, 0, 113}},
    {"dwt97_fixed_h_row", 97, {232, 94, 92, 0, 70, 70, 0, 76, 0, 149}},
    {"quant_row", 5, {1, 1, 1, 1, 0, 0, 3, 2, 1, 5}},
    {"quant_row", 24, {6, 6, 6, 6, 0, 0, 18, 2, 6, 6}},
    {"quant_row", 97, {24, 24, 24, 24, 0, 0, 72, 2, 24, 28}},
    {"quant_fixed_row", 5, {1, 1, 0, 0, 2, 1, 2, 0, 0, 7}},
    {"quant_fixed_row", 24, {6, 6, 0, 0, 12, 6, 12, 0, 0, 6}},
    {"quant_fixed_row", 97, {24, 24, 0, 0, 48, 24, 48, 0, 0, 30}},
    {"deinterleave_row_i", 5, {0, 0, 0, 0, 0, 0, 0, 0, 0, 15}},
    {"deinterleave_row_i", 24, {6, 6, 0, 0, 0, 0, 0, 6, 0, 3}},
    {"deinterleave_row_i", 97, {24, 24, 0, 0, 0, 0, 0, 24, 0, 15}},
    {"deinterleave_row_f", 5, {0, 0, 0, 0, 0, 0, 0, 0, 0, 15}},
    {"deinterleave_row_f", 24, {6, 6, 0, 0, 0, 0, 0, 6, 0, 3}},
    {"deinterleave_row_f", 97, {24, 24, 0, 0, 0, 0, 0, 24, 0, 15}},
    {"ls_copy", 5, {2, 2, 0, 0, 0, 0, 0, 2, 0, 0}},
    {"ls_copy", 24, {6, 6, 0, 0, 0, 0, 0, 6, 0, 0}},
    {"ls_copy", 97, {25, 25, 0, 0, 0, 0, 0, 25, 0, 0}},
};

TEST(KernelCounters, CountingInstantiationChargesThePinnedOps) {
  // Quad-aligned buffers with room for the widest pinned row; the counts
  // are data-independent, so any deterministic contents will do.
  constexpr std::size_t kCap = 128;
  AlignedBuffer<Sample> a(kCap, 16), b(kCap, 16), c(kCap, 16), d(kCap, 16),
      e(kCap, 16), f(kCap, 16);
  AlignedBuffer<float> fa(kCap, 16), fb(kCap, 16), fc(kCap, 16);
  for (std::size_t i = 0; i < kCap; ++i) {
    a[i] = static_cast<Sample>(i * 7 % 251);
    b[i] = static_cast<Sample>(i * 13 % 241);
    c[i] = static_cast<Sample>(i * 17 % 239);
    d[i] = e[i] = f[i] = 0;
    fa[i] = static_cast<float>(i) * 0.5f - 20.0f;
    fb[i] = static_cast<float>(i) * -0.25f + 3.0f;
    fc[i] = 0;
  }
  using Kernel = std::function<void(cell::Simd&, std::size_t)>;
  const std::vector<std::pair<std::string, Kernel>> kernels = {
      {"shift_rct_row",
       [&](cell::Simd& s, std::size_t n) {
         simd_shift_rct_row(s, a.data(), b.data(), c.data(), n, 8);
       }},
      {"shift_row",
       [&](cell::Simd& s, std::size_t n) {
         simd_shift_row(s, a.data(), n, 8);
       }},
      {"shift_ict_row",
       [&](cell::Simd& s, std::size_t n) {
         simd_shift_ict_row(s, a.data(), b.data(), c.data(), fa.data(),
                            fb.data(), fc.data(), n, 8);
       }},
      {"shift_to_float_row",
       [&](cell::Simd& s, std::size_t n) {
         simd_shift_to_float_row(s, a.data(), fa.data(), n, 8);
       }},
      {"shift_ict_fixed_row",
       [&](cell::Simd& s, std::size_t n) {
         simd_shift_ict_fixed_row(s, a.data(), b.data(), c.data(), d.data(),
                                  e.data(), f.data(), n, 8);
       }},
      {"shift_to_fixed_row",
       [&](cell::Simd& s, std::size_t n) {
         simd_shift_to_fixed_row(s, a.data(), d.data(), n, 8);
       }},
      {"predict53_row",
       [&](cell::Simd& s, std::size_t n) {
         simd_predict53_row(s, d.data(), a.data(), b.data(), n);
       }},
      {"update53_row",
       [&](cell::Simd& s, std::size_t n) {
         simd_update53_row(s, d.data(), a.data(), b.data(), n);
       }},
      {"lift97_row",
       [&](cell::Simd& s, std::size_t n) {
         simd_lift97_row(s, fc.data(), fa.data(), fb.data(),
                         jp2k::dwt97::kAlpha, n);
       }},
      {"scale_row",
       [&](cell::Simd& s, std::size_t n) {
         simd_scale_row(s, fa.data(), jp2k::dwt97::kK, n);
       }},
      {"lift97_fixed_row",
       [&](cell::Simd& s, std::size_t n) {
         simd_lift97_fixed_row(s, d.data(), a.data(), b.data(), 13000, n);
       }},
      {"scale_fixed_row",
       [&](cell::Simd& s, std::size_t n) {
         simd_scale_fixed_row(s, a.data(), 13000, n);
       }},
      {"dwt53_h_row",
       [&](cell::Simd& s, std::size_t n) {
         simd_dwt53_h_row(s, a.data(), d.data(), e.data(), n);
       }},
      {"dwt97_h_row",
       [&](cell::Simd& s, std::size_t n) {
         simd_dwt97_h_row(s, fa.data(), fb.data(), fc.data(), n);
       }},
      {"dwt97_fixed_h_row",
       [&](cell::Simd& s, std::size_t n) {
         simd_dwt97_fixed_h_row(s, a.data(), d.data(), e.data(), n);
       }},
      {"quant_row",
       [&](cell::Simd& s, std::size_t n) {
         simd_quant_row(s, fa.data(), d.data(), n, 1.0f / 0.37f);
       }},
      {"quant_fixed_row",
       [&](cell::Simd& s, std::size_t n) {
         simd_quant_fixed_row(s, a.data(), d.data(), n, 177124);
       }},
      {"deinterleave_row_i",
       [&](cell::Simd& s, std::size_t n) {
         simd_deinterleave_row(s, a.data(), d.data(), e.data(), n);
       }},
      {"deinterleave_row_f",
       [&](cell::Simd& s, std::size_t n) {
         simd_deinterleave_row(s, fa.data(), fb.data(), fc.data(), n);
       }},
      {"ls_copy",
       [&](cell::Simd& s, std::size_t n) {
         s.ls_copy(d.data(), a.data(), n * sizeof(Sample));
       }},
  };
  std::size_t checked = 0;
  for (const CounterPin& pin : kCounterPins) {
    const auto it =
        std::find_if(kernels.begin(), kernels.end(),
                     [&](const auto& k) { return k.first == pin.kernel; });
    ASSERT_NE(it, kernels.end()) << pin.kernel;
    cell::OpCounters oc;
    cell::Simd s(oc);
    it->second(s, pin.n);
    const std::array<std::uint64_t, 10> ops = {
        oc.v_load,       oc.v_store, oc.v_add,     oc.v_mul_f,
        oc.v_mul_i_emul, oc.v_shift, oc.v_cmp_sel, oc.v_shuffle,
        oc.v_cvt,        oc.s_int};
    EXPECT_EQ(ops, pin.ops) << pin.kernel << " n=" << pin.n;
    EXPECT_EQ(oc.s_float + oc.s_branch + oc.dma_bytes() + oc.t1_symbols, 0u)
        << pin.kernel << " n=" << pin.n;
    ++checked;
  }
  EXPECT_EQ(checked, kernels.size() * 3);
}

}  // namespace
}  // namespace cj2k
