#include "jp2k/dwt2d.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <type_traits>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "decomp/host_pool.hpp"
#include "jp2k/dwt97.hpp"
#include "jp2k/dwt_extend.hpp"
#include "jp2k/dwt_merged.hpp"

namespace cj2k::jp2k {

std::vector<SubbandInfo> subband_layout(std::size_t w, std::size_t h,
                                        int levels) {
  CJ2K_CHECK_MSG(levels >= 0 && levels <= 32, "bad decomposition level count");
  std::vector<std::size_t> lw(static_cast<std::size_t>(levels) + 1);
  std::vector<std::size_t> lh(static_cast<std::size_t>(levels) + 1);
  lw[0] = w;
  lh[0] = h;
  for (int l = 1; l <= levels; ++l) {
    lw[l] = (lw[l - 1] + 1) / 2;
    lh[l] = (lh[l - 1] + 1) / 2;
  }
  std::vector<SubbandInfo> bands;
  bands.push_back({SubbandOrient::LL, levels, 0, 0, lw[levels], lh[levels]});
  for (int l = levels; l >= 1; --l) {
    const std::size_t wl = lw[l], hl = lh[l];
    const std::size_t wh = lw[l - 1] - wl;  // high-pass width
    const std::size_t hh = lh[l - 1] - hl;  // high-pass height
    if (wh > 0 && hl > 0)
      bands.push_back({SubbandOrient::HL, l, wl, 0, wh, hl});
    if (wl > 0 && hh > 0)
      bands.push_back({SubbandOrient::LH, l, 0, hl, wl, hh});
    if (wh > 0 && hh > 0)
      bands.push_back({SubbandOrient::HH, l, wl, hl, wh, hh});
  }
  // Drop degenerate layers (possible when levels exceed log2 of the size).
  std::vector<SubbandInfo> out;
  for (const auto& b : bands) {
    if (b.w > 0 && b.h > 0) out.push_back(b);
  }
  return out;
}

namespace {

/// Rows per task of the horizontal pass.
constexpr std::size_t kRowBand = 32;

template <class T>
using RowKernel = void (*)(T*, std::size_t, T*);

/// The top-left corners each level transforms: every plane that still has
/// more than one sample, at that level's extent.
template <class T>
std::vector<std::vector<Span2d<T>>> level_regions(
    std::vector<Span2d<T>> regions, int levels) {
  std::vector<std::vector<Span2d<T>>> out;
  for (int l = 0; l < levels; ++l) {
    std::erase_if(regions, [](const Span2d<T>& r) {
      return r.width() <= 1 && r.height() <= 1;
    });
    if (regions.empty()) break;
    out.push_back(regions);
    for (Span2d<T>& r : regions) {
      r = r.subview(0, 0, (r.width() + 1) / 2, (r.height() + 1) / 2);
    }
  }
  return out;
}

/// Runs `fn(region, item)` for every item of every region — `items`
/// counts them — as one flat index space on the host pool, so a few
/// planes still fill every core.
template <class T, class Fn>
void for_each_item(const std::vector<Span2d<T>>& regions,
                   std::size_t (*items)(const Span2d<T>&), const Fn& fn) {
  std::vector<std::size_t> first(regions.size() + 1, 0);
  for (std::size_t r = 0; r < regions.size(); ++r) {
    first[r + 1] = first[r] + items(regions[r]);
  }
  decomp::parallel_for(first.back(), [&](std::size_t i, std::size_t) {
    const std::size_t r = static_cast<std::size_t>(
        std::upper_bound(first.begin(), first.end(), i) - first.begin() - 1);
    fn(regions[r], i - first[r]);
  });
}

/// The running thread's scratch: one strip's parked rows or one row.  A
/// thread runs one task at a time and no kernel starts a nested task, so
/// the buffer is never shared.  It lives as long as the thread and only
/// grows (to half the tallest plane's height × kStripWidth samples):
/// allocating it per call would free a block above glibc's mmap threshold
/// on every transform, which raises that threshold and fragments the heap
/// the rest of an encode allocates from.
template <class T>
std::vector<T>& thread_scratch() {
  thread_local std::vector<T> buf;
  return buf;
}

/// Vertical pass of one level: each region's columns in strips of
/// dwt_merged::kStripWidth, through the merged row sweep.
template <class T, class Kernel>
void vertical_pass(const std::vector<Span2d<T>>& regions, Kernel kernel) {
  constexpr std::size_t sw = dwt_merged::kStripWidth;
  for_each_item<T>(
      regions,
      [](const Span2d<T>& r) {
        return r.height() > 1 ? (r.width() + sw - 1) / sw : 0;
      },
      [&](const Span2d<T>& r, std::size_t strip) {
        const std::size_t x0 = strip * sw;
        kernel(r.subview(x0, 0, std::min(sw, r.width() - x0), r.height()),
               thread_scratch<T>());
      });
}

/// Horizontal pass of one level: each region's rows in bands of kRowBand.
template <class T>
void row_pass(const std::vector<Span2d<T>>& regions, RowKernel<T> kernel) {
  for_each_item<T>(
      regions,
      [](const Span2d<T>& r) {
        return r.width() > 1 ? (r.height() + kRowBand - 1) / kRowBand : 0;
      },
      [&](const Span2d<T>& r, std::size_t band) {
        std::vector<T>& buf = thread_scratch<T>();
        if (buf.size() < r.width()) buf.resize(r.width());
        const std::size_t y_end = std::min(r.height(), (band + 1) * kRowBand);
        for (std::size_t y = band * kRowBand; y < y_end; ++y) {
          kernel(r.row(y), r.width(), buf.data());
        }
      });
}

/// Forward: per level, the vertical pass then the horizontal pass (the
/// paper's stage order).
template <class T, class Kernel>
void forward(const std::vector<Span2d<T>>& planes, int levels,
             Kernel vertical, RowKernel<T> row) {
  for (const auto& regions : level_regions(planes, levels)) {
    vertical_pass(regions, vertical);
    row_pass(regions, row);
  }
}

/// Inverse: coarsest level first, each undone rows then columns.
template <class T, class Kernel>
void inverse(const std::vector<Span2d<T>>& planes, int levels,
             Kernel vertical, RowKernel<T> row) {
  const auto per_level = level_regions(planes, levels);
  for (auto it = per_level.rbegin(); it != per_level.rend(); ++it) {
    row_pass(*it, row);
    vertical_pass(*it, vertical);
  }
}

}  // namespace

void forward53(const std::vector<Span2d<Sample>>& planes, int levels) {
  forward<Sample>(planes, levels, &dwt_merged::vertical_analyze_53,
                  &dwt_merged::row_analyze_53);
}

void inverse53(const std::vector<Span2d<Sample>>& planes, int levels) {
  inverse<Sample>(planes, levels, &dwt_merged::vertical_synthesize_53,
                  &dwt_merged::row_synthesize_53);
}

void forward97(const std::vector<Span2d<float>>& planes, int levels) {
  forward<float>(planes, levels, &dwt_merged::vertical_analyze_97,
                 &dwt_merged::row_analyze_97);
}

void inverse97(const std::vector<Span2d<float>>& planes, int levels) {
  inverse<float>(planes, levels, &dwt_merged::vertical_synthesize_97,
                 &dwt_merged::row_synthesize_97);
}

void forward97_fixed(const std::vector<Span2d<Sample>>& planes, int levels) {
  static_assert(std::is_same_v<Sample, dwt97::Fix>);
  forward<Sample>(planes, levels, &dwt_merged::vertical_analyze_97_fixed,
                  &dwt_merged::row_analyze_97_fixed);
}

void inverse97_fixed(const std::vector<Span2d<Sample>>& planes, int levels) {
  inverse<Sample>(planes, levels, &dwt_merged::vertical_synthesize_97_fixed,
                  &dwt_merged::row_synthesize_97_fixed);
}

double subband_synthesis_gain(WaveletKind kind, int level,
                              SubbandOrient orient, int total_levels) {
  // Place a unit impulse in the middle of the subband of a canonical-size
  // plane, synthesize, and measure the output energy.  Memoized: the gain
  // depends only on (kind, level, orient), not on the image.
  struct Key {
    WaveletKind kind;
    int level;
    SubbandOrient orient;
    bool operator<(const Key& o) const {
      return std::tie(kind, level, orient) <
             std::tie(o.kind, o.level, o.orient);
    }
  };
  static std::map<Key, double> cache;
  static std::mutex mu;

  // The canonical plane resolves levels 0-7; deeper bands take the level-7
  // gain, as OpenJPEG clamps its norm table.  Growing the gain further
  // (it doubles per level on an unbounded plane) would shrink the steps of
  // bands the transform never reaches: past log2 of a tile's size the LL
  // band keeps its nominal level but stops being transformed, and a step
  // 2^25 times too fine overflows its quantized coefficients.
  constexpr int kDeepest = 7;
  level = std::min(level, kDeepest);
  const Key key{kind, level, orient};
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }

  const std::size_t n = std::size_t{2} << kDeepest;
  CJ2K_CHECK(level >= 0);
  const auto bands = subband_layout(n, n, std::max(level, 1));
  const SubbandInfo* target = nullptr;
  for (const auto& b : bands) {
    if (b.orient == orient &&
        (orient == SubbandOrient::LL ? b.level >= level : b.level == level)) {
      target = &b;
      break;
    }
  }
  CJ2K_CHECK_MSG(target != nullptr, "subband not present in canonical layout");

  double gain2 = 0.0;
  if (kind == WaveletKind::kIrreversible97) {
    std::vector<float> buf(n * n, 0.0f);
    Span2d<float> plane(buf.data(), n, n, n);
    plane(target->y0 + target->h / 2, target->x0 + target->w / 2) = 1.0f;
    inverse97({plane}, std::max(level, 1));
    for (float v : buf) gain2 += static_cast<double>(v) * v;
  } else {
    // For the reversible 5/3 we use the linearized (float) 5/3 synthesis to
    // measure basis energy; rounding makes the integer kernel non-linear
    // but the linear part dominates the distortion mapping.
    std::vector<float> buf(n * n, 0.0f);
    Span2d<float> plane(buf.data(), n, n, n);
    plane(target->y0 + target->h / 2, target->x0 + target->w / 2) = 1.0f;
    // Linear 5/3 synthesis: reuse the 9/7 driver shape with 5/3 weights via
    // a local lambda-free implementation.
    struct Linear53 {
      static void synthesize(float* data, std::size_t len, std::size_t stride,
                             float* scratch) {
        if (len == 1) return;
        const std::size_t nl = (len + 1) / 2;
        for (std::size_t i = 0; i < nl; ++i) scratch[2 * i] = data[i * stride];
        for (std::size_t i = nl; i < len; ++i)
          scratch[2 * (i - nl) + 1] = data[i * stride];
        for (std::size_t i = 0; i < len; ++i) data[i * stride] = scratch[i];
        const std::ptrdiff_t sn = static_cast<std::ptrdiff_t>(len);
        for (std::ptrdiff_t i = 0; i < sn; i += 2) {
          data[static_cast<std::size_t>(i) * stride] -=
              0.25f * (data[mirror(i - 1, len) * stride] +
                       data[mirror(i + 1, len) * stride]);
        }
        for (std::ptrdiff_t i = 1; i < sn; i += 2) {
          data[static_cast<std::size_t>(i) * stride] +=
              0.5f * (data[mirror(i - 1, len) * stride] +
                      data[mirror(i + 1, len) * stride]);
        }
      }
    };
    std::vector<std::pair<std::size_t, std::size_t>> dims;
    std::size_t ww = n, hh = n;
    for (int l = 0; l < std::max(level, 1); ++l) {
      dims.emplace_back(ww, hh);
      ww = (ww + 1) / 2;
      hh = (hh + 1) / 2;
    }
    std::vector<float> scratch(n);
    for (auto it = dims.rbegin(); it != dims.rend(); ++it) {
      for (std::size_t y = 0; y < it->second; ++y) {
        Linear53::synthesize(plane.row(y), it->first, 1, scratch.data());
      }
      for (std::size_t x = 0; x < it->first; ++x) {
        Linear53::synthesize(plane.data() + x, it->second, plane.stride(),
                             scratch.data());
      }
    }
    for (float v : buf) gain2 += static_cast<double>(v) * v;
  }
  const double gain = std::sqrt(gain2);

  std::lock_guard<std::mutex> lock(mu);
  cache[key] = gain;
  (void)total_levels;
  return gain;
}

namespace {

/// How many earlier passes pass_norms follows a coefficient's actual
/// weights through; past that, PassNorms::at composes one pass at a time.
constexpr int kExactPasses = 8;

/// One kind's 1-D synthesis pass, stage by stage: the interleaved inputs,
/// then (Q13) their scaling, then each lifting step, which lifts the samples
/// of parity s%2 by steps[s] × (left + right).  A stage's value is linear
/// in the coefficients up to the rounding of the integer kernels.
///
/// norm[t][d][s]: a band of type t (0 low, 1 high) whose coefficients d
/// earlier passes have synthesized — a lattice with period 2^(d+1) in the
/// pass's samples — at stage s of the next pass: the largest sum of |weight|
/// over the band of a value.  It follows the actual weights, so the
/// cancellation between passes counts.  rounding[s]: the rounding a pass
/// with exact inputs has accumulated at stage s (less than one unit per
/// scaling or lifting step, weighted through the later steps).
struct PassNorms {
  std::array<std::vector<std::vector<double>>, 2> norm;
  std::vector<double> rounding;

  double at(int t, int d, std::size_t s) const {
    if (d <= kExactPasses) return norm[t][d][s];
    // The triangle inequality over the pass's even inputs.
    return norm[0][0][s] * at(t, d - 1, rounding.size() - 1);
  }
};

PassNorms pass_norms(WaveletKind kind) {
  constexpr double q = 1 << dwt97::kFixShift;
  const bool rev = kind == WaveletKind::kReversible53;
  const std::vector<double> scale =
      rev ? std::vector<double>{}
          : std::vector<double>{dwt97::kFxK / q, dwt97::kFxInvK / q};
  const std::vector<double> steps =
      rev ? std::vector<double>{-0.25, 0.5}
          : std::vector<double>{-dwt97::kFxDelta / q, -dwt97::kFxGamma / q,
                                -dwt97::kFxBeta / q, -dwt97::kFxAlpha / q};
  PassNorms pn;
  std::array<double, 2> r{0, 0};  // per parity, far from the ends
  pn.rounding.push_back(0);
  if (!rev) {
    r = {1, 1};
    pn.rounding.push_back(1);
  }
  for (std::size_t s = 0; s < steps.size(); ++s) {
    r[s % 2] += std::fabs(steps[s]) * 2 * r[1 - s % 2] + 1;
    pn.rounding.push_back(std::max(r[0], r[1]));
  }
  // One impulse per type, synthesized pass after pass on a line long
  // enough that its support never reaches the (zero) ends.
  for (int t = 0; t < 2; ++t) {
    std::vector<double> x(64, 0.0);
    x[32 + static_cast<std::size_t>(t)] = 1.0;
    for (int d = 0; d <= kExactPasses; ++d) {
      if (d > 0) {
        std::vector<double> up(2 * x.size(), 0.0);
        for (std::size_t i = 0; i < x.size(); ++i) up[2 * i] = x[i];
        x.swap(up);
      }
      const std::size_t period = std::size_t{2} << d;
      std::vector<double> stage;
      const auto record = [&] {
        double m = 0;
        for (std::size_t p = 0; p < period; ++p) {
          double sum = 0;
          for (std::size_t i = p; i < x.size(); i += period) {
            sum += std::fabs(x[i]);
          }
          m = std::max(m, sum);
        }
        stage.push_back(m);
      };
      record();
      if (!scale.empty()) {
        for (std::size_t i = 0; i < x.size(); ++i) x[i] *= scale[i % 2];
        record();
      }
      for (std::size_t s = 0; s < steps.size(); ++s) {
        for (std::size_t i = 2 - s % 2; i + 1 < x.size(); i += 2) {
          x[i] += steps[s] * (x[i - 1] + x[i + 1]);
        }
        record();
      }
      pn.norm[static_cast<std::size_t>(t)].push_back(std::move(stage));
    }
  }
  return pn;
}

}  // namespace

int transform_levels(std::size_t n, int levels) {
  int e = 0;
  for (; e < levels && n > 1; ++e) n = (n + 1) / 2;
  return e;
}

double analysis_norm(WaveletKind kind, bool high, int level) {
  constexpr int kExact = 12;
  using Table = std::array<std::vector<double>, 2>;  // [high][level]
  const auto compute = [](WaveletKind kind) {
    // One level's filters, read off the forward transform itself: the
    // weights of an interior low and high coefficient, impulse by impulse
    // (the 5/3's scaled so its rounding vanishes).
    constexpr std::size_t n = 32;
    Table taps{std::vector<double>(n), std::vector<double>(n)};
    for (std::size_t j = 0; j < n; ++j) {
      std::vector<float> v(n, 0.0f);
      if (kind == WaveletKind::kReversible53) {
        Plane p(n, 1);
        p.row(0)[j] = 1 << 16;
        forward53({p.view()}, 1);
        for (std::size_t i = 0; i < n; ++i) v[i] = p.row(0)[i] / 65536.0f;
      } else {
        v[j] = 1.0f;
        forward97({Span2d<float>(v.data(), n, 1, n)}, 1);
      }
      taps[0][j] = v[n / 4];
      taps[1][j] = v[n / 2 + n / 4];
    }
    // Level l's weights: level l-1's low band filtered once more, the
    // filter's taps spread 2^(l-1) input samples apart.
    Table norm{std::vector<double>{1.0}, std::vector<double>{0.0}};
    std::vector<double> lo{1.0};
    for (int l = 1; l <= kExact; ++l) {
      const std::size_t spread = std::size_t{1} << (l - 1);
      Table next;
      for (int t = 0; t < 2; ++t) {
        next[t].assign(lo.size() + spread * (n - 1), 0.0);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; taps[t][i] != 0 && j < lo.size(); ++j) {
            next[t][j + spread * i] += taps[t][i] * lo[j];
          }
        }
        double sum = 0;
        for (const double c : next[t]) sum += std::fabs(c);
        norm[t].push_back(sum);
      }
      lo = std::move(next[0]);
    }
    return norm;
  };
  static const Table n53 = compute(WaveletKind::kReversible53);
  static const Table n97 = compute(WaveletKind::kIrreversible97);
  const Table& norm = kind == WaveletKind::kReversible53 ? n53 : n97;
  CJ2K_CHECK(level >= 0 && (level > 0 || !high));
  if (level <= kExact) return norm[high][static_cast<std::size_t>(level)];
  // One more level's filter: its L1 norm is the level-1 norm.
  return norm[high][1] * analysis_norm(kind, false, level - 1);
}

double inverse_peak(WaveletKind kind, std::size_t w, std::size_t h,
                    int levels, const std::vector<double>& band_peak) {
  static const PassNorms norms53 = pass_norms(WaveletKind::kReversible53);
  static const PassNorms norms97 = pass_norms(WaveletKind::kIrreversible97);
  const PassNorms& pn =
      kind == WaveletKind::kReversible53 ? norms53 : norms97;
  const std::size_t last = pn.rounding.size() - 1;
  const auto bands = subband_layout(w, h, levels);
  CJ2K_CHECK(band_peak.size() == bands.size());
  // A band's coefficients pass the levels whose row (column) pass does not
  // run unchanged.
  const int eh = transform_levels(w, levels), ev = transform_levels(h, levels);
  // The weight, in one direction, of a band of type t entering at level
  // `origin`, at stage s of that direction's pass of level l.
  const auto weight = [&](int t, int origin, int e, int l, std::size_t s) {
    return l > e ? 1.0 : pn.at(t, std::min(origin, e) - l, s);
  };
  struct Band {
    int th, tv, origin;
    double peak;
  };
  std::vector<Band> in;
  double top = 0;
  for (std::size_t b = 0; b < bands.size(); ++b) {
    const SubbandOrient o = bands[b].orient;
    in.push_back({o == SubbandOrient::HL || o == SubbandOrient::HH,
                  o == SubbandOrient::LH || o == SubbandOrient::HH,
                  bands[b].level, band_peak[b]});
    top = std::max(top, band_peak[b]);
  }
  // Level by level, rows then columns, as the inverse runs.  A value is
  // bounded by the sum over bands of peak × row weight × column weight
  // (the weights of a separable transform multiply), plus its rounding.
  double rounding = 0;  // on the level's inputs
  for (int l = std::max(eh, ev); l >= 1; --l) {
    if (l <= eh) {
      // A row holds either this level's LH and HH coefficients (odd rows)
      // or everything else.
      for (std::size_t s = 0; s <= last; ++s) {
        double upper = 0, lower = 0;
        for (const Band& b : in) {
          if (b.origin < l) continue;
          const double v = b.peak * weight(b.th, b.origin, eh, l, s);
          if (b.tv == 1 && b.origin == l) {
            lower += v;
          } else {
            upper += v * weight(b.tv, b.origin, ev, l, 0);
          }
        }
        top = std::max({top, upper + pn.at(0, 0, s) * rounding +
                                 pn.rounding[s],
                        lower + pn.rounding[s]});
      }
      rounding = pn.at(0, 0, last) * rounding + pn.rounding[last];
    }
    if (l <= ev) {
      for (std::size_t s = 0; s <= last; ++s) {
        double sum = 0;
        for (const Band& b : in) {
          if (b.origin < l) continue;
          sum += b.peak * weight(b.th, b.origin, eh, l, last) *
                 weight(b.tv, b.origin, ev, l, s);
        }
        top = std::max(top, sum + (pn.at(0, 0, s) + pn.at(1, 0, s)) *
                                      rounding +
                                  pn.rounding[s]);
      }
      rounding = (pn.at(0, 0, last) + pn.at(1, 0, last)) * rounding +
                 pn.rounding[last];
    }
  }
  return top;
}

}  // namespace cj2k::jp2k
