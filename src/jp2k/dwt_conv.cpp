#include "jp2k/dwt_conv.hpp"

#include "jp2k/dwt_extend.hpp"

namespace cj2k::jp2k::dwt_conv {

const std::array<float, 5>& taps53_low() {
  static const std::array<float, 5> t = {-0.125f, 0.25f, 0.75f, 0.25f,
                                         -0.125f};
  return t;
}
const std::array<float, 3>& taps53_high() {
  static const std::array<float, 3> t = {-0.5f, 1.0f, -0.5f};
  return t;
}

void analyze(float* data, std::size_t n, std::size_t stride, float* scratch,
             std::span<const float> low, std::span<const float> high) {
  if (n < 2) return;
  const std::size_t nl = (n + 1) / 2;
  const auto rl = static_cast<std::ptrdiff_t>(low.size() / 2);
  const auto rh = static_cast<std::ptrdiff_t>(high.size() / 2);
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

void analyze53(float* data, std::size_t n, std::size_t stride,
               float* scratch) {
  analyze(data, n, stride, scratch, taps53_low(), taps53_high());
}

}  // namespace cj2k::jp2k::dwt_conv
