// Differential test of the host lifting core: the six strip-parallel 2-D
// transforms of jp2k/dwt2d (merged row sweeps over column strips, rows and
// strips on the host pool) against a column-by-column reference built on
// the textbook 1-D kernels of dwt_reference — the serial loops the
// transforms used to be.  Lifting fixes the operation order per
// sample, so every coefficient must match bit for bit, for every geometry,
// level count and sample range the encoder produces.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "dwt_reference.hpp"
#include "common/rng.hpp"
#include "jp2k/dwt2d.hpp"
#include "jp2k/dwt97.hpp"
#include "jp2k/dwt_merged.hpp"

namespace cj2k::jp2k {
namespace {

// --- Reference: one column, then one row, at a time -------------------------

template <typename T>
using Kernel1d = void (*)(T*, std::size_t, std::size_t, T*);

/// The (ww, hh) extent of every level that runs, finest first.
template <typename T>
std::vector<std::pair<std::size_t, std::size_t>> level_dims(Span2d<T> plane,
                                                            int levels) {
  std::vector<std::pair<std::size_t, std::size_t>> dims;
  std::size_t ww = plane.width();
  std::size_t hh = plane.height();
  for (int l = 0; l < levels && (ww > 1 || hh > 1); ++l) {
    dims.emplace_back(ww, hh);
    ww = (ww + 1) / 2;
    hh = (hh + 1) / 2;
  }
  return dims;
}

template <typename T>
void reference_forward(Span2d<T> plane, int levels, Kernel1d<T> analyze) {
  std::vector<T> scratch(std::max(plane.width(), plane.height()));
  for (const auto& [ww, hh] : level_dims(plane, levels)) {
    for (std::size_t x = 0; x < ww; ++x) {
      analyze(plane.data() + x, hh, plane.stride(), scratch.data());
    }
    for (std::size_t y = 0; y < hh; ++y) {
      analyze(plane.row(y), ww, 1, scratch.data());
    }
  }
}

template <typename T>
void reference_inverse(Span2d<T> plane, int levels, Kernel1d<T> synthesize) {
  std::vector<T> scratch(std::max(plane.width(), plane.height()));
  const auto dims = level_dims(plane, levels);
  for (auto it = dims.rbegin(); it != dims.rend(); ++it) {
    for (std::size_t y = 0; y < it->second; ++y) {
      synthesize(plane.row(y), it->first, 1, scratch.data());
    }
    for (std::size_t x = 0; x < it->first; ++x) {
      synthesize(plane.data() + x, it->second, plane.stride(),
                 scratch.data());
    }
  }
}

// --- Cases -------------------------------------------------------------------

struct Geometry {
  std::size_t w, h;
  int levels;
};

/// The degenerate extents, strip-width edges and odd sizes by hand, then
/// seeded random draws; every level count 0..8 appears.
std::vector<Geometry> geometries() {
  constexpr std::size_t sw = dwt_merged::kStripWidth;
  std::vector<Geometry> g = {
      {1, 1, 3},       {1, 97, 4},      {97, 1, 4},      {1, 2, 1},
      {2, 1, 1},       {2, 2, 8},       {3, 3, 2},       {sw, 9, 2},
      {sw + 1, 33, 3}, {sw - 1, 31, 5}, {2 * sw + 5, 7, 6},
      {300, 2, 8},     {5, 300, 8},     {131, 77, 0},
  };
  Rng rng(0x2d0c07e);
  for (int i = 0; i < 40; ++i) {
    const std::size_t w = 1 + rng.next_below(3 * sw);
    const std::size_t h = 1 + rng.next_below(3 * sw);
    g.push_back({w, h, static_cast<int>(i % 9)});
  }
  return g;
}

std::string label(const Geometry& g) {
  return std::to_string(g.w) + "x" + std::to_string(g.h) + " L" +
         std::to_string(g.levels);
}

/// A plane with padding columns (stride > width) filled with a sentinel, so
/// a strip that runs past the region's width shows up as a changed byte.
template <typename T>
struct TestPlane {
  TestPlane(std::size_t width, std::size_t height)
      : w(width), h(height), stride(width + 3), buf(stride * height, T(-7)) {}
  Span2d<T> view() { return {buf.data(), w, h, stride}; }
  std::size_t w, h, stride;
  std::vector<T> buf;
};

/// Content over [-amp, amp] (plus a fraction for floats): `amp` = 2^16
/// covers a 16-bit component after the RCT; Q13 planes pass it in Q13
/// units.
template <typename T>
TestPlane<T> random_plane(const Geometry& g, std::int64_t amp,
                          std::uint64_t seed) {
  TestPlane<T> p(g.w, g.h);
  Rng rng(seed);
  for (std::size_t y = 0; y < g.h; ++y) {
    for (std::size_t x = 0; x < g.w; ++x) {
      T v = static_cast<T>(rng.next_in(-amp, amp));
      if constexpr (std::is_same_v<T, float>) {
        v += static_cast<float>(rng.next_double());
      }
      p.view()(y, x) = v;
    }
  }
  return p;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

template <typename T>
using Core2d = void (*)(const std::vector<Span2d<T>>&, int);

/// Forward core against the reference on random content, then the inverse
/// core against the reference on the forward output, for every geometry.
template <typename T>
void check_pair(Core2d<T> fwd, Core2d<T> inv, Kernel1d<T> analyze,
                Kernel1d<T> synthesize, std::int64_t amp) {
  for (const Geometry& g : geometries()) {
    SCOPED_TRACE(label(g));
    TestPlane<T> core = random_plane<T>(g, amp, g.w * 1009 + g.h);
    TestPlane<T> ref = core;
    fwd({core.view()}, g.levels);
    reference_forward(ref.view(), g.levels, analyze);
    ASSERT_TRUE(same_bits(core.buf, ref.buf)) << "forward";
    inv({core.view()}, g.levels);
    reference_inverse(ref.view(), g.levels, synthesize);
    ASSERT_TRUE(same_bits(core.buf, ref.buf)) << "inverse";
  }
}

TEST(Dwt2dCore, Reversible53MatchesColumnwiseReference) {
  check_pair<Sample>(&forward53, &inverse53, &ref::analyze53,
                     &ref::synthesize53, std::int64_t{1} << 16);
}

TEST(Dwt2dCore, Irreversible97MatchesColumnwiseReference) {
  check_pair<float>(&forward97, &inverse97, &ref::analyze97,
                    &ref::synthesize97, std::int64_t{1} << 16);
}

TEST(Dwt2dCore, FixedPoint97MatchesColumnwiseReference) {
  // 12-bit samples in Q13 (2^25): deeper than the Q13 path's 8-bit use,
  // still inside int32 through eight levels.
  check_pair<Sample>(&forward97_fixed, &inverse97_fixed, &ref::analyze97_fixed,
                     &ref::synthesize97_fixed,
                     std::int64_t{1} << (12 + dwt97::kFixShift));
}

TEST(Dwt2dCore, InverseOfRandomCoefficientsMatchesReference) {
  // Coefficients that are not a forward transform's output: every band
  // full of independent values.
  for (const Geometry& g : geometries()) {
    SCOPED_TRACE(label(g));
    TestPlane<Sample> core = random_plane<Sample>(g, 1 << 16, g.w + g.h * 7);
    TestPlane<Sample> ref = core;
    inverse53({core.view()}, g.levels);
    reference_inverse(ref.view(), g.levels, &ref::synthesize53);
    ASSERT_TRUE(same_bits(core.buf, ref.buf));

    TestPlane<float> fcore = random_plane<float>(g, 1 << 16, g.w * 3 + g.h);
    TestPlane<float> fref = fcore;
    inverse97({fcore.view()}, g.levels);
    reference_inverse(fref.view(), g.levels, &ref::synthesize97);
    ASSERT_TRUE(same_bits(fcore.buf, fref.buf));
  }
}

TEST(Dwt2dCore, BatchedPlanesMatchOneAtATime) {
  // The decoder hands every component to one call, whose strips and row
  // bands share one flat index space; planes of different sizes must come
  // out as if transformed alone.
  const std::vector<Geometry> g = {{130, 70, 5}, {65, 35, 5}, {1, 9, 5}};
  std::vector<TestPlane<float>> batch, alone;
  for (std::size_t i = 0; i < g.size(); ++i) {
    batch.push_back(random_plane<float>(g[i], 255, i + 1));
  }
  alone = batch;
  std::vector<Span2d<float>> views;
  for (auto& p : batch) views.push_back(p.view());
  forward97(views, 5);
  for (auto& p : alone) forward97({p.view()}, 5);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_TRUE(same_bits(batch[i].buf, alone[i].buf)) << label(g[i]);
  }
  inverse97(views, 5);
  for (auto& p : alone) inverse97({p.view()}, 5);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_TRUE(same_bits(batch[i].buf, alone[i].buf)) << label(g[i]);
  }
}

TEST(Dwt2dCore, VerticalSynthesisInvertsAnalysisPerColumn) {
  // The merged synthesis sweeps against the per-column 1-D synthesis.
  for (auto [w, h] : {std::pair<std::size_t, std::size_t>{5, 2},
                      {3, 3},
                      {7, 8},
                      {9, 33},
                      {64, 64},
                      {13, 101}}) {
    SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
    const Geometry g{w, h, 1};
    TestPlane<Sample> a = random_plane<Sample>(g, 1 << 16, w * h);
    TestPlane<Sample> b = a;
    std::vector<Sample> scratch(h), aux;
    for (std::size_t x = 0; x < w; ++x) {
      ref::synthesize53(a.buf.data() + x, h, a.stride, scratch.data());
    }
    dwt_merged::vertical_synthesize_53(b.view(), aux);
    EXPECT_TRUE(same_bits(a.buf, b.buf)) << "5/3";

    TestPlane<float> fa = random_plane<float>(g, 1 << 16, w + h);
    TestPlane<float> fb = fa;
    std::vector<float> fscratch(h), faux;
    for (std::size_t x = 0; x < w; ++x) {
      ref::synthesize97(fa.buf.data() + x, h, fa.stride, fscratch.data());
    }
    dwt_merged::vertical_synthesize_97(fb.view(), faux);
    EXPECT_TRUE(same_bits(fa.buf, fb.buf)) << "9/7";

    TestPlane<Sample> qa =
        random_plane<Sample>(g, std::int64_t{1} << 21, w * 5 + h);
    TestPlane<Sample> qb = qa;
    for (std::size_t x = 0; x < w; ++x) {
      ref::synthesize97_fixed(qa.buf.data() + x, h, qa.stride,
                              scratch.data());
    }
    dwt_merged::vertical_synthesize_97_fixed(qb.view(), aux);
    EXPECT_TRUE(same_bits(qa.buf, qb.buf)) << "Q13";
  }
}

}  // namespace
}  // namespace cj2k::jp2k
