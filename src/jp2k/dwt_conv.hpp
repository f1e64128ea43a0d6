// Convolution-based DWT — the formulation Muta et al.'s Motion JPEG2000
// encoder uses (the paper's comparison baseline).  Per output sample it
// costs a full 5- or 3-tap FIR instead of the lifting scheme's
// multiply-accumulate pair, and it cannot be done in place.
#pragma once

#include <array>
#include <cstddef>
#include <span>

namespace cj2k::jp2k::dwt_conv {

/// Analysis filter taps matching the linearized 5/3:
/// low [-1/8, 1/4, 3/4, 1/4, -1/8], high [-1/2, 1, -1/2].
const std::array<float, 5>& taps53_low();
const std::array<float, 3>& taps53_high();

/// Convolution analysis of a strided signal with odd-length, centred
/// low/high taps: writes ceil(n/2) low samples then floor(n/2) high samples
/// over the input (via `scratch`, n floats).  Whole-sample symmetric
/// extension at the boundaries.
void analyze(float* data, std::size_t n, std::size_t stride, float* scratch,
             std::span<const float> low, std::span<const float> high);

/// analyze() with the 5/3 taps.
void analyze53(float* data, std::size_t n, std::size_t stride,
               float* scratch);

}  // namespace cj2k::jp2k::dwt_conv
