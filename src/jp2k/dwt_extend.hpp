// Whole-sample symmetric extension (ISO/IEC 15444-1 Annex F.3.7), the
// boundary rule every DWT formulation here shares: the serial 1-D lifting
// and convolution filters, the merged vertical reference and the Cell
// stage's Local Store row ring.
#pragma once

#include <cstddef>

namespace cj2k::jp2k {

/// Mirrors index `i` into [0, n) about the first and last samples
/// (... 2 1 | 0 1 2 ... n-2 n-1 | n-2 ...); n must be at least 1.
inline std::size_t mirror(std::ptrdiff_t i, std::size_t n) {
  const std::ptrdiff_t last = static_cast<std::ptrdiff_t>(n) - 1;
  if (n == 1) return 0;
  while (i < 0 || i > last) {
    if (i < 0) i = -i;
    if (i > last) i = 2 * last - i;
  }
  return static_cast<std::size_t>(i);
}

}  // namespace cj2k::jp2k
