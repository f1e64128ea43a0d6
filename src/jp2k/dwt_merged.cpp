#include "jp2k/dwt_merged.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "jp2k/dwt53.hpp"
#include "jp2k/dwt97.hpp"
#include "jp2k/dwt_extend.hpp"

namespace cj2k::jp2k::dwt_merged {

// ---------------------------------------------------------------------------
// 5/3
// ---------------------------------------------------------------------------

Traffic vertical_analyze_53(Span2d<Sample> group, std::vector<Sample>& aux) {
  Traffic t;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(group.height());
  const std::size_t w = group.width();
  if (n < 2) return t;
  const std::size_t nl = (static_cast<std::size_t>(n) + 1) / 2;
  const std::size_t nh = static_cast<std::size_t>(n) - nl;
  aux.assign(nh * w, 0);

  const auto row = [&](std::ptrdiff_t i) {
    return group.row(mirror(i, group.height()));
  };
  // Row-wise predict: row[i] -= (row[i-1] + row[i+1]) >> 1  (i odd).
  const auto predict = [&](std::ptrdiff_t i) {
    if (i < 1 || i >= n) return;
    Sample* d = row(i);
    const Sample* a = row(i - 1);
    const Sample* b = row(i + 1);
    for (std::size_t x = 0; x < w; ++x) d[x] -= (a[x] + b[x]) >> 1;
  };
  // Row-wise update: row[i] += (row[i-1] + row[i+1] + 2) >> 2  (i even).
  const auto update = [&](std::ptrdiff_t i) {
    if (i < 0 || i >= n) return;
    Sample* s = row(i);
    const Sample* a = row(i - 1);
    const Sample* b = row(i + 1);
    for (std::size_t x = 0; x < w; ++x) s[x] += (a[x] + b[x] + 2) >> 2;
  };
  // Emit: finalized low row i moves to position i/2; finalized high row i
  // is parked in the aux buffer (the paper's overwrite-hazard fix).
  const auto emit_high = [&](std::ptrdiff_t i) {
    if (i < 1 || i >= n || (i & 1) == 0) return;
    const Sample* src = group.row(static_cast<std::size_t>(i));
    std::copy_n(src, w, aux.data() + static_cast<std::size_t>(i / 2) * w);
    t.rows_written += 1;  // aux write
  };
  const auto emit_low = [&](std::ptrdiff_t i) {
    if (i < 0 || i >= n || (i & 1) != 0) return;
    const std::size_t dst = static_cast<std::size_t>(i / 2);
    if (dst != static_cast<std::size_t>(i)) {
      std::copy_n(group.row(static_cast<std::size_t>(i)), w, group.row(dst));
    }
    t.rows_written += 1;  // in-place low write
  };

  // Single fused sweep (see dwt53::lift_interleaved for the schedule
  // derivation): predict runs at the front, update one pair behind, and a
  // row is emitted as soon as its last reader has run.
  for (std::ptrdiff_t f = 1; f < n + 2; f += 2) {
    predict(f);
    update(f - 1);
    emit_high(f - 2);
    emit_low(f - 1);
  }
  t.rows_read = static_cast<std::uint64_t>(n);  // each input row read once

  // Copy the parked high rows into the bottom half of the group.
  for (std::size_t j = 0; j < nh; ++j) {
    std::copy_n(aux.data() + j * w, w, group.row(nl + j));
    t.rows_read += 1;
    t.rows_written += 1;
  }
  return t;
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
    Sample* d = row(i);
    const Sample* a = row(i - 1);
    const Sample* b = row(i + 1);
    for (std::size_t x = 0; x < w; ++x) d[x] -= (a[x] + b[x]) >> 1;
  }
  t.rows_read += static_cast<std::uint64_t>(n);
  t.rows_written += static_cast<std::uint64_t>(n) / 2;
  // Pass 2: update sweep.
  for (std::ptrdiff_t i = 0; i < n; i += 2) {
    Sample* s = row(i);
    const Sample* a = row(i - 1);
    const Sample* b = row(i + 1);
    for (std::size_t x = 0; x < w; ++x) s[x] += (a[x] + b[x] + 2) >> 2;
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

// ---------------------------------------------------------------------------
// 9/7
// ---------------------------------------------------------------------------

Traffic vertical_analyze_97(Span2d<float> group, std::vector<float>& aux) {
  Traffic t;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(group.height());
  const std::size_t w = group.width();
  if (n < 2) return t;
  const std::size_t nl = (static_cast<std::size_t>(n) + 1) / 2;
  const std::size_t nh = static_cast<std::size_t>(n) - nl;
  aux.assign(nh * w, 0.0f);

  const auto row = [&](std::ptrdiff_t i) {
    return group.row(mirror(i, group.height()));
  };
  const auto lift = [&](std::ptrdiff_t i, float c, std::ptrdiff_t parity) {
    if (i < parity || i >= n || ((i ^ parity) & 1)) return;
    float* x = row(i);
    const float* a = row(i - 1);
    const float* b = row(i + 1);
    for (std::size_t k = 0; k < w; ++k) x[k] += c * (a[k] + b[k]);
  };
  const auto scale = [&](std::ptrdiff_t i) {
    if (i < 0 || i >= n) return;
    float* x = row(i);
    const float c = (i & 1) ? dwt97::kK : 1.0f / dwt97::kK;
    for (std::size_t k = 0; k < w; ++k) x[k] *= c;
  };
  const auto emit_high = [&](std::ptrdiff_t i) {
    if (i < 1 || i >= n || (i & 1) == 0) return;
    std::copy_n(group.row(static_cast<std::size_t>(i)), w,
                aux.data() + static_cast<std::size_t>(i / 2) * w);
    t.rows_written += 1;
  };
  const auto emit_low = [&](std::ptrdiff_t i) {
    if (i < 0 || i >= n || (i & 1) != 0) return;
    const std::size_t dst = static_cast<std::size_t>(i / 2);
    if (dst != static_cast<std::size_t>(i)) {
      std::copy_n(group.row(static_cast<std::size_t>(i)), w, group.row(dst));
    }
    t.rows_written += 1;
  };

  // Fused pipeline (schedule mirrors dwt97::lift_interleaved): alpha at the
  // front, each later stage one pair behind, scaling + emission at the tail.
  for (std::ptrdiff_t f = 1; f < n + 6; f += 2) {
    lift(f, dwt97::kAlpha, 1);
    lift(f - 1, dwt97::kBeta, 0);
    lift(f - 2, dwt97::kGamma, 1);
    lift(f - 3, dwt97::kDelta, 0);
    scale(f - 4);
    emit_high(f - 4);
    scale(f - 5);
    emit_low(f - 5);
  }
  t.rows_read = static_cast<std::uint64_t>(n);  // exact: each row read once

  for (std::size_t j = 0; j < nh; ++j) {
    std::copy_n(aux.data() + j * w, w, group.row(nl + j));
    t.rows_read += 1;
    t.rows_written += 1;
  }
  return t;
}

Traffic vertical_analyze_97_multipass(Span2d<float> group,
                                      std::vector<float>& scratch_column) {
  Traffic t;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(group.height());
  const std::size_t w = group.width();
  if (n < 2) return t;

  const auto row = [&](std::ptrdiff_t i) {
    return group.row(mirror(i, group.height()));
  };
  const auto sweep = [&](float c, std::ptrdiff_t parity) {
    for (std::ptrdiff_t i = parity; i < n; i += 2) {
      float* x = row(i);
      const float* a = row(i - 1);
      const float* b = row(i + 1);
      for (std::size_t k = 0; k < w; ++k) x[k] += c * (a[k] + b[k]);
    }
    t.rows_read += static_cast<std::uint64_t>(n);
    t.rows_written += static_cast<std::uint64_t>(n) / 2;
  };
  sweep(dwt97::kAlpha, 1);
  sweep(dwt97::kBeta, 0);
  sweep(dwt97::kGamma, 1);
  sweep(dwt97::kDelta, 0);
  // Scaling sweep.
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    float* x = group.row(static_cast<std::size_t>(i));
    const float c = (i & 1) ? dwt97::kK : 1.0f / dwt97::kK;
    for (std::size_t k = 0; k < w; ++k) x[k] *= c;
  }
  t.rows_read += static_cast<std::uint64_t>(n);
  t.rows_written += static_cast<std::uint64_t>(n);
  // Splitting sweep.
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
