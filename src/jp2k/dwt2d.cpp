#include "jp2k/dwt2d.hpp"

#include <cmath>
#include <map>
#include <type_traits>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "jp2k/dwt53.hpp"
#include "jp2k/dwt97.hpp"
#include "jp2k/dwt_extend.hpp"

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

/// Applies one decomposition level to the top-left ww×hh region:
/// vertical filtering (columns) then horizontal (rows), matching the
/// paper's stage order.  Template over the sample/kernel pair.
template <typename T, typename Analyze>
void level_forward(Span2d<T> plane, std::size_t ww, std::size_t hh,
                   Analyze&& analyze, std::vector<T>& scratch) {
  scratch.resize(std::max(ww, hh));
  // Vertical: every column independently.
  for (std::size_t x = 0; x < ww; ++x) {
    analyze(plane.data() + x, hh, plane.stride(), scratch.data());
  }
  // Horizontal: every row independently.
  for (std::size_t y = 0; y < hh; ++y) {
    analyze(plane.row(y), ww, 1, scratch.data());
  }
}

template <typename T, typename Synthesize>
void level_inverse(Span2d<T> plane, std::size_t ww, std::size_t hh,
                   Synthesize&& synthesize, std::vector<T>& scratch) {
  scratch.resize(std::max(ww, hh));
  for (std::size_t y = 0; y < hh; ++y) {
    synthesize(plane.row(y), ww, 1, scratch.data());
  }
  for (std::size_t x = 0; x < ww; ++x) {
    synthesize(plane.data() + x, hh, plane.stride(), scratch.data());
  }
}

template <typename T>
void run_levels_forward(Span2d<T> plane, int levels,
                        void (*analyze)(T*, std::size_t, std::size_t, T*)) {
  std::vector<T> scratch;
  std::size_t ww = plane.width();
  std::size_t hh = plane.height();
  for (int l = 0; l < levels && (ww > 1 || hh > 1); ++l) {
    level_forward(plane, ww, hh, analyze, scratch);
    ww = (ww + 1) / 2;
    hh = (hh + 1) / 2;
  }
}

template <typename T>
void run_levels_inverse(Span2d<T> plane, int levels,
                        void (*synthesize)(T*, std::size_t, std::size_t,
                                           T*)) {
  // Recompute the level geometry, then undo coarsest-first.
  std::vector<std::pair<std::size_t, std::size_t>> dims;
  std::size_t ww = plane.width();
  std::size_t hh = plane.height();
  for (int l = 0; l < levels && (ww > 1 || hh > 1); ++l) {
    dims.emplace_back(ww, hh);
    ww = (ww + 1) / 2;
    hh = (hh + 1) / 2;
  }
  std::vector<T> scratch;
  for (auto it = dims.rbegin(); it != dims.rend(); ++it) {
    level_inverse(plane, it->first, it->second, synthesize, scratch);
  }
}

}  // namespace

void forward53(Span2d<Sample> plane, int levels) {
  run_levels_forward<Sample>(plane, levels, &dwt53::analyze);
}

void inverse53(Span2d<Sample> plane, int levels) {
  run_levels_inverse<Sample>(plane, levels, &dwt53::synthesize);
}

void forward97(Span2d<float> plane, int levels) {
  run_levels_forward<float>(plane, levels, &dwt97::analyze);
}

void inverse97(Span2d<float> plane, int levels) {
  run_levels_inverse<float>(plane, levels, &dwt97::synthesize);
}

void forward97_fixed(Span2d<Sample> plane, int levels) {
  static_assert(std::is_same_v<Sample, dwt97::Fix>);
  run_levels_forward<Sample>(plane, levels, &dwt97::analyze_fixed);
}

void inverse97_fixed(Span2d<Sample> plane, int levels) {
  run_levels_inverse<Sample>(plane, levels, &dwt97::synthesize_fixed);
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

  const Key key{kind, level, orient};
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }

  const std::size_t n = 256;
  CJ2K_CHECK(level >= 0 && (1u << level) < n);
  const auto bands = subband_layout(n, n, std::max(level, 1));
  const SubbandInfo* target = nullptr;
  for (const auto& b : bands) {
    const int blevel = (orient == SubbandOrient::LL) ? level : level;
    if (b.orient == orient &&
        (orient == SubbandOrient::LL ? b.level >= blevel : b.level == blevel)) {
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
    inverse97(plane, std::max(level, 1));
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

}  // namespace cj2k::jp2k
