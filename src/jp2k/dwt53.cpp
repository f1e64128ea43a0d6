#include "jp2k/dwt53.hpp"

#include "common/error.hpp"
#include "jp2k/dwt_extend.hpp"

namespace cj2k::jp2k::dwt53 {

void lift_two_pass(Sample* data, std::size_t n, std::size_t stride) {
  if (n < 2) return;
  const auto at = [&](std::ptrdiff_t i) -> Sample& {
    return data[mirror(i, n) * stride];
  };
  const std::ptrdiff_t sn = static_cast<std::ptrdiff_t>(n);
  // Step 1: predict the odd (high) samples.
  for (std::ptrdiff_t i = 1; i < sn; i += 2) {
    at(i) -= (at(i - 1) + at(i + 1)) >> 1;
  }
  // Step 2: update the even (low) samples.
  for (std::ptrdiff_t i = 0; i < sn; i += 2) {
    at(i) += (at(i - 1) + at(i + 1) + 2) >> 2;
  }
}

void lift_interleaved(Sample* data, std::size_t n, std::size_t stride) {
  // Paper Algorithm 2: fuse the two sweeps.  The update of even sample i
  // needs high samples i-1 and i+1, so the fused loop runs the predict step
  // one position ahead of the update step.
  if (n < 2) return;
  const auto at = [&](std::ptrdiff_t i) -> Sample& {
    return data[mirror(i, n) * stride];
  };
  const std::ptrdiff_t sn = static_cast<std::ptrdiff_t>(n);
  // Prologue: predict d[1], then update s[0] (uses mirrored d[-1] = d[1]).
  at(1) -= (at(0) + at(2)) >> 1;
  at(0) += (at(1) + at(1) + 2) >> 2;  // mirrored left neighbor
  // Steady state: predict d[i+1], then update s[i].
  for (std::ptrdiff_t i = 2; i < sn; i += 2) {
    if (i + 1 < sn) {
      at(i + 1) -= (at(i) + at(i + 2)) >> 1;
    }
    at(i) += (at(i - 1) + at(i + 1) + 2) >> 2;
  }
}

void unlift(Sample* data, std::size_t n, std::size_t stride) {
  if (n < 2) return;
  const auto at = [&](std::ptrdiff_t i) -> Sample& {
    return data[mirror(i, n) * stride];
  };
  const std::ptrdiff_t sn = static_cast<std::ptrdiff_t>(n);
  // Only the first and last samples have a neighbour outside [0, n); the
  // interior reads its neighbours directly.
  at(0) -= (at(-1) + at(1) + 2) >> 2;
  std::ptrdiff_t i = 2;
  for (; i + 1 < sn; i += 2) {
    const std::size_t k = static_cast<std::size_t>(i) * stride;
    data[k] -= (data[k - stride] + data[k + stride] + 2) >> 2;
  }
  if (i < sn) at(i) -= (at(i - 1) + at(i + 1) + 2) >> 2;
  for (i = 1; i + 1 < sn; i += 2) {
    const std::size_t k = static_cast<std::size_t>(i) * stride;
    data[k] += (data[k - stride] + data[k + stride]) >> 1;
  }
  if (i < sn) at(i) += (at(i - 1) + at(i + 1)) >> 1;
}

void analyze(Sample* data, std::size_t n, std::size_t stride,
             Sample* scratch) {
  CJ2K_DCHECK(n >= 1);
  if (n == 1) return;  // single sample: low band = sample, untouched.
  lift_interleaved(data, n, stride);
  // Deinterleave: evens to the front, odds to the back.
  const std::size_t nl = low_count(n);
  for (std::size_t i = 0; i < n; ++i) scratch[i] = data[i * stride];
  for (std::size_t i = 0; i < nl; ++i) data[i * stride] = scratch[2 * i];
  for (std::size_t i = nl; i < n; ++i) {
    data[i * stride] = scratch[2 * (i - nl) + 1];
  }
}

void synthesize(Sample* data, std::size_t n, std::size_t stride,
                Sample* scratch) {
  CJ2K_DCHECK(n >= 1);
  if (n == 1) return;
  const std::size_t nl = low_count(n);
  for (std::size_t i = 0; i < nl; ++i) scratch[2 * i] = data[i * stride];
  for (std::size_t i = nl; i < n; ++i) {
    scratch[2 * (i - nl) + 1] = data[i * stride];
  }
  for (std::size_t i = 0; i < n; ++i) data[i * stride] = scratch[i];
  unlift(data, n, stride);
}

}  // namespace cj2k::jp2k::dwt53
