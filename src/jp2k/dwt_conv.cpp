#include "jp2k/dwt_conv.hpp"

#include <mutex>
#include <vector>

#include "jp2k/dwt97.hpp"
#include "jp2k/dwt_extend.hpp"

namespace cj2k::jp2k::dwt_conv {

namespace {

struct Taps97 {
  std::array<float, 9> low;
  std::array<float, 7> high;
};

/// Derives the analysis filters by feeding impulses through the lifting
/// implementation: low tap h[k] is the response of L[c] to an impulse at
/// 2c+k (far from the boundary), likewise g[k] for H[c] at 2c+1+k.
Taps97 derive_taps97() {
  constexpr std::size_t n = 64;
  constexpr std::size_t c = 16;  // central output index
  Taps97 t{};
  std::vector<float> sig(n), scratch(n);
  for (int k = -4; k <= 4; ++k) {
    std::fill(sig.begin(), sig.end(), 0.0f);
    sig[static_cast<std::size_t>(static_cast<std::ptrdiff_t>(2 * c) + k)] =
        1.0f;
    dwt97::analyze(sig.data(), n, 1, scratch.data());
    t.low[static_cast<std::size_t>(k + 4)] = sig[c];  // h[k] response
  }
  const std::size_t nl = (n + 1) / 2;
  for (int k = -3; k <= 3; ++k) {
    std::fill(sig.begin(), sig.end(), 0.0f);
    sig[static_cast<std::size_t>(static_cast<std::ptrdiff_t>(2 * c + 1) +
                                 k)] = 1.0f;
    dwt97::analyze(sig.data(), n, 1, scratch.data());
    t.high[static_cast<std::size_t>(k + 3)] = sig[nl + c];
  }
  return t;
}

const Taps97& taps97() {
  static const Taps97 t = derive_taps97();
  return t;
}

}  // namespace

const std::array<float, 9>& taps97_low() { return taps97().low; }
const std::array<float, 7>& taps97_high() { return taps97().high; }

const std::array<float, 5>& taps53_low() {
  static const std::array<float, 5> t = {-0.125f, 0.25f, 0.75f, 0.25f,
                                         -0.125f};
  return t;
}
const std::array<float, 3>& taps53_high() {
  static const std::array<float, 3> t = {-0.5f, 1.0f, -0.5f};
  return t;
}

namespace {

template <std::size_t NL, std::size_t NH>
void analyze_generic(float* data, std::size_t n, std::size_t stride,
                     float* scratch, const std::array<float, NL>& low,
                     const std::array<float, NH>& high) {
  if (n < 2) return;
  const std::size_t nl = (n + 1) / 2;
  constexpr std::ptrdiff_t rl = static_cast<std::ptrdiff_t>(NL / 2);
  constexpr std::ptrdiff_t rh = static_cast<std::ptrdiff_t>(NH / 2);
  for (std::size_t c = 0; c < nl; ++c) {
    float acc = 0.0f;
    const std::ptrdiff_t center = static_cast<std::ptrdiff_t>(2 * c);
    for (std::ptrdiff_t k = -rl; k <= rl; ++k) {
      acc += low[static_cast<std::size_t>(k + rl)] *
             data[mirror(center + k, n) * stride];
    }
    scratch[c] = acc;
  }
  for (std::size_t c = 0; c + nl < n; ++c) {
    float acc = 0.0f;
    const std::ptrdiff_t center = static_cast<std::ptrdiff_t>(2 * c + 1);
    for (std::ptrdiff_t k = -rh; k <= rh; ++k) {
      acc += high[static_cast<std::size_t>(k + rh)] *
             data[mirror(center + k, n) * stride];
    }
    scratch[nl + c] = acc;
  }
  for (std::size_t i = 0; i < n; ++i) data[i * stride] = scratch[i];
}

}  // namespace

void analyze97(float* data, std::size_t n, std::size_t stride,
               float* scratch) {
  analyze_generic(data, n, stride, scratch, taps97_low(), taps97_high());
}

void analyze53(float* data, std::size_t n, std::size_t stride,
               float* scratch) {
  analyze_generic(data, n, stride, scratch, taps53_low(), taps53_high());
}

}  // namespace cj2k::jp2k::dwt_conv
