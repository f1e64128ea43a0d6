#include "jp2k/dwt_merged.hpp"

#include <algorithm>

#include "jp2k/dwt97.hpp"
#include "jp2k/dwt_extend.hpp"

namespace cj2k::jp2k::dwt_merged {

namespace {

// ---------------------------------------------------------------------------
// Filters
// ---------------------------------------------------------------------------
// A filter is kSteps row-wise lifting steps.  Analysis step s lifts the rows
// of parity 1 - s%2 from their two neighbours; synthesis undoes them in
// reverse order, its step s lifting the rows of parity s%2.  `analysis_out`
// writes a final analysis row to its place (scaled, for 9/7) and
// `synthesis_in` brings a deinterleaved row into the interleaved order
// (scaled back).  Each expression is the one the 1-D dwt53/dwt97 kernels
// evaluate per sample, so the results are bit-identical.

struct Rev53 {
  using T = Sample;
  static constexpr std::ptrdiff_t kSteps = 2;

  static void lift(std::ptrdiff_t s, T* x, const T* a, const T* b,
                   std::size_t w) {
    if (s == 0) {
      for (std::size_t k = 0; k < w; ++k) x[k] -= (a[k] + b[k]) >> 1;
    } else {
      for (std::size_t k = 0; k < w; ++k) x[k] += (a[k] + b[k] + 2) >> 2;
    }
  }
  static void unlift(std::ptrdiff_t s, T* x, const T* a, const T* b,
                     std::size_t w) {
    if (s == 0) {
      for (std::size_t k = 0; k < w; ++k) x[k] -= (a[k] + b[k] + 2) >> 2;
    } else {
      for (std::size_t k = 0; k < w; ++k) x[k] += (a[k] + b[k]) >> 1;
    }
  }
  static void analysis_out(T* dst, const T* src, bool, std::size_t w) {
    std::copy_n(src, w, dst);
  }
  static void synthesis_in(T* dst, const T* src, bool, std::size_t w) {
    std::copy_n(src, w, dst);
  }
};

struct Irrev97 {
  using T = float;
  static constexpr std::ptrdiff_t kSteps = 4;
  static constexpr float kCoef[kSteps] = {dwt97::kAlpha, dwt97::kBeta,
                                          dwt97::kGamma, dwt97::kDelta};

  static void lift(std::ptrdiff_t s, T* x, const T* a, const T* b,
                   std::size_t w) {
    const float c = kCoef[s];
    for (std::size_t k = 0; k < w; ++k) x[k] += c * (a[k] + b[k]);
  }
  static void unlift(std::ptrdiff_t s, T* x, const T* a, const T* b,
                     std::size_t w) {
    const float c = kCoef[kSteps - 1 - s];
    for (std::size_t k = 0; k < w; ++k) x[k] -= c * (a[k] + b[k]);
  }
  static void analysis_out(T* dst, const T* src, bool high, std::size_t w) {
    const float c = high ? dwt97::kK : 1.0f / dwt97::kK;
    for (std::size_t k = 0; k < w; ++k) dst[k] = src[k] * c;
  }
  static void synthesis_in(T* dst, const T* src, bool high, std::size_t w) {
    const float c = high ? 1.0f / dwt97::kK : dwt97::kK;
    for (std::size_t k = 0; k < w; ++k) dst[k] = src[k] * c;
  }
};

struct Irrev97Q13 {
  using T = dwt97::Fix;
  static constexpr std::ptrdiff_t kSteps = 4;
  static constexpr T kCoef[kSteps] = {dwt97::kFxAlpha, dwt97::kFxBeta,
                                      dwt97::kFxGamma, dwt97::kFxDelta};

  static void lift(std::ptrdiff_t s, T* x, const T* a, const T* b,
                   std::size_t w) {
    const T c = kCoef[s];
    for (std::size_t k = 0; k < w; ++k) x[k] += dwt97::fix_mul(c, a[k] + b[k]);
  }
  // The neighbour sum is taken in 64 bits: a decoded stream's values may
  // reach 2^30 (inverse_fits), and two of them need not fit 32.
  static void unlift(std::ptrdiff_t s, T* x, const T* a, const T* b,
                     std::size_t w) {
    const std::int64_t c = kCoef[kSteps - 1 - s];
    for (std::size_t k = 0; k < w; ++k) {
      x[k] -= static_cast<T>(
          (c * (std::int64_t{a[k]} + b[k])) >> dwt97::kFixShift);
    }
  }
  static void analysis_out(T* dst, const T* src, bool high, std::size_t w) {
    const T c = high ? dwt97::kFxK : dwt97::kFxInvK;
    for (std::size_t k = 0; k < w; ++k) dst[k] = dwt97::fix_mul(src[k], c);
  }
  static void synthesis_in(T* dst, const T* src, bool high, std::size_t w) {
    const T c = high ? dwt97::kFxInvK : dwt97::kFxK;
    for (std::size_t k = 0; k < w; ++k) dst[k] = dwt97::fix_mul(src[k], c);
  }
};

// ---------------------------------------------------------------------------
// Merged schedules
// ---------------------------------------------------------------------------

/// One sweep down the group: at front f (odd) step s lifts row f - s.  A
/// high row is final once the last step has lifted both its neighbours, S
/// rows behind the front, and is parked in `aux`; a low row is final one
/// row later and moves to its place in the top half, which every row above
/// it has already left.  The parked rows are copied back at the end.
template <class F>
Traffic analyze(Span2d<typename F::T> g, std::vector<typename F::T>& aux) {
  constexpr std::ptrdiff_t kS = F::kSteps;
  const std::size_t n = g.height();
  const std::size_t w = g.width();
  Traffic t;
  if (n < 2) return t;
  const std::size_t nl = (n + 1) / 2;
  const std::size_t nh = n - nl;
  if (aux.size() < nh * w) aux.resize(nh * w);
  const auto sn = static_cast<std::ptrdiff_t>(n);
  const auto row = [&](std::ptrdiff_t i) { return g.row(mirror(i, n)); };

  for (std::ptrdiff_t f = 1; f < sn + kS; f += 2) {
    for (std::ptrdiff_t s = 0; s < kS; ++s) {
      const std::ptrdiff_t i = f - s;
      if (i >= 0 && i < sn) F::lift(s, row(i), row(i - 1), row(i + 1), w);
    }
    if (const std::ptrdiff_t i = f - kS; i >= 0 && i < sn) {
      F::analysis_out(aux.data() + static_cast<std::size_t>(i / 2) * w,
                      row(i), true, w);
    }
    if (const std::ptrdiff_t i = f - kS + 1; i >= 0 && i < sn) {
      F::analysis_out(row(i / 2), row(i), false, w);
    }
  }
  for (std::size_t j = 0; j < nh; ++j) {
    std::copy_n(aux.data() + j * w, w, g.row(nl + j));
  }
  // Each input row is read once and written once; the parked rows once
  // more each way.
  t.rows_read = n + nh;
  t.rows_written = n + nh;
  return t;
}

/// The inverse sweep: the low half is saved to `aux`, then interleaved row
/// i arrives one row ahead of the front (f even, step s lifting row f - s)
/// — an even row from `aux`, an odd row from the high half, which the
/// interleaved order never overtakes (2j + 1 <= nl + j).  Rows are final in
/// place.
template <class F>
void synthesize(Span2d<typename F::T> g, std::vector<typename F::T>& aux) {
  constexpr std::ptrdiff_t kS = F::kSteps;
  const std::size_t n = g.height();
  const std::size_t w = g.width();
  if (n < 2) return;
  const std::size_t nl = (n + 1) / 2;
  if (aux.size() < nl * w) aux.resize(nl * w);
  for (std::size_t j = 0; j < nl; ++j) {
    F::synthesis_in(aux.data() + j * w, g.row(j), false, w);
  }
  const auto sn = static_cast<std::ptrdiff_t>(n);
  const auto row = [&](std::ptrdiff_t i) { return g.row(mirror(i, n)); };

  std::size_t loaded = 0;  // rows [0, loaded) are in interleaved order
  for (std::ptrdiff_t f = 0; f < sn + kS - 1; f += 2) {
    for (const std::size_t end = std::min(static_cast<std::size_t>(f) + 2, n);
         loaded < end; ++loaded) {
      if (loaded % 2 == 0) {
        std::copy_n(aux.data() + loaded / 2 * w, w, g.row(loaded));
      } else {
        F::synthesis_in(g.row(loaded), g.row(nl + loaded / 2), true, w);
      }
    }
    for (std::ptrdiff_t s = 0; s < kS; ++s) {
      const std::ptrdiff_t i = f - s;
      if (i >= 0 && i < sn) F::unlift(s, row(i), row(i - 1), row(i + 1), w);
    }
  }
}

// ---------------------------------------------------------------------------
// Rows
// ---------------------------------------------------------------------------

/// One lifting step of a row held split into its low (even) and high (odd)
/// samples: the high half from the low half, or the low half from the high
/// half, each a contiguous row operation plus the mirrored ends.
template <class F, class Op>
void split_step(Op op, std::ptrdiff_t s, bool lift_high, typename F::T* lo,
                typename F::T* hi, std::size_t nl, std::size_t nh) {
  if (lift_high) {
    // x[2j+1] from x[2j] and x[2j+2]; the last x[2j+2] of an even-length
    // row mirrors to x[2j].
    const std::size_t inner = nl == nh ? nh - 1 : nh;
    op(s, hi, lo, lo + 1, inner);
    if (inner < nh) op(s, hi + inner, lo + inner, lo + inner, 1);
  } else {
    // x[2j] from x[2j-1] and x[2j+1]; x[-1] mirrors to x[1], and the last
    // x[2j+1] of an odd-length row to x[2j-1].
    op(s, lo, hi, hi, 1);
    op(s, lo + 1, hi, hi + 1, nh - 1);
    if (nl > nh) op(s, lo + nh, hi + nh - 1, hi + nh - 1, 1);
  }
}

/// Row analysis: deinterleave into `scratch`, lift the halves, and write
/// L|H back scaled.
template <class F>
void row_analyze(typename F::T* row, std::size_t n, typename F::T* scratch) {
  if (n < 2) return;
  const std::size_t nl = (n + 1) / 2;
  const std::size_t nh = n - nl;
  typename F::T* lo = scratch;
  typename F::T* hi = scratch + nl;
  for (std::size_t j = 0; j < nh; ++j) {
    lo[j] = row[2 * j];
    hi[j] = row[2 * j + 1];
  }
  if (nl > nh) lo[nh] = row[n - 1];
  for (std::ptrdiff_t s = 0; s < F::kSteps; ++s) {
    split_step<F>(F::lift, s, s % 2 == 0, lo, hi, nl, nh);
  }
  F::analysis_out(row, lo, false, nl);
  F::analysis_out(row + nl, hi, true, nh);
}

/// Row synthesis: bring L|H into `scratch` scaled, undo the lifting on the
/// halves, and interleave back.
template <class F>
void row_synthesize(typename F::T* row, std::size_t n,
                    typename F::T* scratch) {
  if (n < 2) return;
  const std::size_t nl = (n + 1) / 2;
  const std::size_t nh = n - nl;
  typename F::T* lo = scratch;
  typename F::T* hi = scratch + nl;
  F::synthesis_in(lo, row, false, nl);
  F::synthesis_in(hi, row + nl, true, nh);
  for (std::ptrdiff_t s = 0; s < F::kSteps; ++s) {
    split_step<F>(F::unlift, s, s % 2 == 1, lo, hi, nl, nh);
  }
  for (std::size_t j = 0; j < nh; ++j) {
    row[2 * j] = lo[j];
    row[2 * j + 1] = hi[j];
  }
  if (nl > nh) row[n - 1] = lo[nh];
}

}  // namespace

void row_analyze_53(Sample* row, std::size_t n, Sample* scratch) {
  row_analyze<Rev53>(row, n, scratch);
}

void row_synthesize_53(Sample* row, std::size_t n, Sample* scratch) {
  row_synthesize<Rev53>(row, n, scratch);
}

void row_analyze_97(float* row, std::size_t n, float* scratch) {
  row_analyze<Irrev97>(row, n, scratch);
}

void row_synthesize_97(float* row, std::size_t n, float* scratch) {
  row_synthesize<Irrev97>(row, n, scratch);
}

void row_analyze_97_fixed(Sample* row, std::size_t n, Sample* scratch) {
  row_analyze<Irrev97Q13>(row, n, scratch);
}

void row_synthesize_97_fixed(Sample* row, std::size_t n, Sample* scratch) {
  row_synthesize<Irrev97Q13>(row, n, scratch);
}

Traffic vertical_analyze_53(Span2d<Sample> group, std::vector<Sample>& aux) {
  return analyze<Rev53>(group, aux);
}

void vertical_synthesize_53(Span2d<Sample> group, std::vector<Sample>& aux) {
  synthesize<Rev53>(group, aux);
}

Traffic vertical_analyze_97(Span2d<float> group, std::vector<float>& aux) {
  return analyze<Irrev97>(group, aux);
}

void vertical_synthesize_97(Span2d<float> group, std::vector<float>& aux) {
  synthesize<Irrev97>(group, aux);
}

Traffic vertical_analyze_97_fixed(Span2d<Sample> group,
                                  std::vector<Sample>& aux) {
  return analyze<Irrev97Q13>(group, aux);
}

void vertical_synthesize_97_fixed(Span2d<Sample> group,
                                  std::vector<Sample>& aux) {
  synthesize<Irrev97Q13>(group, aux);
}

Traffic vertical_analyze_53_multipass(Span2d<Sample> group,
                                      std::vector<Sample>& scratch_column) {
  Traffic t;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(group.height());
  const std::size_t w = group.width();
  if (n < 2) return t;

  const auto row = [&](std::ptrdiff_t i) {
    return group.row(mirror(i, group.height()));
  };
  // Pass 1: predict sweep over the whole group.
  for (std::ptrdiff_t i = 1; i < n; i += 2) {
    Rev53::lift(0, row(i), row(i - 1), row(i + 1), w);
  }
  t.rows_read += static_cast<std::uint64_t>(n);
  t.rows_written += static_cast<std::uint64_t>(n) / 2;
  // Pass 2: update sweep.
  for (std::ptrdiff_t i = 0; i < n; i += 2) {
    Rev53::lift(1, row(i), row(i - 1), row(i + 1), w);
  }
  t.rows_read += static_cast<std::uint64_t>(n);
  t.rows_written += (static_cast<std::uint64_t>(n) + 1) / 2;
  // Pass 3: splitting sweep via a full-group scratch (per column).
  const std::size_t nl = (static_cast<std::size_t>(n) + 1) / 2;
  scratch_column.resize(static_cast<std::size_t>(n));
  for (std::size_t x = 0; x < w; ++x) {
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      scratch_column[i] = group(i, x);
    }
    for (std::size_t i = 0; i < nl; ++i) group(i, x) = scratch_column[2 * i];
    for (std::size_t i = nl; i < static_cast<std::size_t>(n); ++i) {
      group(i, x) = scratch_column[2 * (i - nl) + 1];
    }
  }
  t.rows_read += static_cast<std::uint64_t>(n);
  t.rows_written += static_cast<std::uint64_t>(n);
  return t;
}

}  // namespace cj2k::jp2k::dwt_merged
