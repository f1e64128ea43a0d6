#include "dwt_reference.hpp"

#include "common/error.hpp"
#include "jp2k/dwt_extend.hpp"

namespace cj2k::jp2k::ref {

using namespace dwt97;

void lift53_interleaved(Sample* data, std::size_t n, std::size_t stride) {
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

void unlift53(Sample* data, std::size_t n, std::size_t stride) {
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

void analyze53(Sample* data, std::size_t n, std::size_t stride,
             Sample* scratch) {
  CJ2K_DCHECK(n >= 1);
  if (n == 1) return;  // single sample: low band = sample, untouched.
  lift53_interleaved(data, n, stride);
  // Deinterleave: evens to the front, odds to the back.
  const std::size_t nl = (n + 1) / 2;
  for (std::size_t i = 0; i < n; ++i) scratch[i] = data[i * stride];
  for (std::size_t i = 0; i < nl; ++i) data[i * stride] = scratch[2 * i];
  for (std::size_t i = nl; i < n; ++i) {
    data[i * stride] = scratch[2 * (i - nl) + 1];
  }
}

void synthesize53(Sample* data, std::size_t n, std::size_t stride,
                Sample* scratch) {
  CJ2K_DCHECK(n >= 1);
  if (n == 1) return;
  const std::size_t nl = (n + 1) / 2;
  for (std::size_t i = 0; i < nl; ++i) scratch[2 * i] = data[i * stride];
  for (std::size_t i = nl; i < n; ++i) {
    scratch[2 * (i - nl) + 1] = data[i * stride];
  }
  for (std::size_t i = 0; i < n; ++i) data[i * stride] = scratch[i];
  unlift53(data, n, stride);
}


namespace {

/// One predict/update sweep: data[odd or even] += c * (left + right).
/// Only the first and last samples have a neighbour outside [0, n); the
/// interior reads its neighbours directly.
template <typename T, typename MulAdd>
void lift_step(T* data, std::size_t n, std::size_t stride,
               std::ptrdiff_t parity, MulAdd&& step) {
  const std::ptrdiff_t sn = static_cast<std::ptrdiff_t>(n);
  const auto mirrored = [&](std::ptrdiff_t i) {
    step(data[static_cast<std::size_t>(i) * stride],
         data[mirror(i - 1, n) * stride], data[mirror(i + 1, n) * stride]);
  };
  std::ptrdiff_t i = parity;
  if (i == 0) {
    mirrored(0);
    i = 2;
  }
  for (; i + 1 < sn; i += 2) {
    const std::size_t k = static_cast<std::size_t>(i) * stride;
    step(data[k], data[k - stride], data[k + stride]);
  }
  if (i < sn) mirrored(i);
}

}  // namespace

void lift97_interleaved(float* data, std::size_t n, std::size_t stride) {
  // Kutil-style single loop: the four lifting steps form a software
  // pipeline, each stage trailing the previous by one sample pair, followed
  // by the scaling applied as soon as a value is final.  For clarity and
  // guaranteed bit-equality we express it as a per-index dataflow walk: at
  // step k the value at interleaved index i is final once every stage whose
  // stencil covers i has run.  With n up to full image height this is still
  // a single sweep over memory, which is what matters for the DMA model.
  if (n < 2) return;
  const auto at = [&](std::ptrdiff_t i) -> float& {
    return data[mirror(i, n) * stride];
  };
  const std::ptrdiff_t sn = static_cast<std::ptrdiff_t>(n);

  // Stage offsets: alpha runs at the front; beta trails alpha by 1 pair;
  // gamma trails beta; delta trails gamma; scaling trails delta.
  // We advance the front pointer two interleaved samples per iteration.
  const auto alpha_at = [&](std::ptrdiff_t i) {  // i odd
    if (i >= 1 && i < sn) at(i) += kAlpha * (at(i - 1) + at(i + 1));
  };
  const auto beta_at = [&](std::ptrdiff_t i) {  // i even
    if (i >= 0 && i < sn) at(i) += kBeta * (at(i - 1) + at(i + 1));
  };
  const auto gamma_at = [&](std::ptrdiff_t i) {  // i odd
    if (i >= 1 && i < sn) at(i) += kGamma * (at(i - 1) + at(i + 1));
  };
  const auto delta_at = [&](std::ptrdiff_t i) {  // i even
    if (i >= 0 && i < sn) at(i) += kDelta * (at(i - 1) + at(i + 1));
  };
  const auto scale_at = [&](std::ptrdiff_t i) {
    if (i >= 0 && i < sn) {
      float& x = at(i);
      x = (i & 1) ? x * kK : x * (1.0f / kK);
    }
  };

  // Mirrored boundaries mean the left neighbors of early stages are the
  // *post-stage* right-side values; running each stage with a lag of 2
  // interleaved indices (1 pair) relative to its producer reproduces the
  // multi-pass order exactly.
  for (std::ptrdiff_t f = 1; f < sn + 8; f += 2) {
    alpha_at(f);
    beta_at(f - 1);   // even index, needs alpha at f-2 and f (just done)
    gamma_at(f - 2);  // odd, needs beta at f-3 and f-1 (just done)
    delta_at(f - 3);  // even, needs gamma at f-4 and f-2 (just done)
    scale_at(f - 4);
    scale_at(f - 5);
  }
}

void unlift97(float* data, std::size_t n, std::size_t stride) {
  if (n < 2) return;
  const std::ptrdiff_t sn = static_cast<std::ptrdiff_t>(n);
  for (std::ptrdiff_t i = 0; i < sn; ++i) {
    float& x = data[static_cast<std::size_t>(i) * stride];
    x = (i & 1) ? x * (1.0f / kK) : x * kK;
  }
  lift_step(data, n, stride, 0, [](float& x, float l, float r) {
    x -= kDelta * (l + r);
  });
  lift_step(data, n, stride, 1, [](float& x, float l, float r) {
    x -= kGamma * (l + r);
  });
  lift_step(data, n, stride, 0, [](float& x, float l, float r) {
    x -= kBeta * (l + r);
  });
  lift_step(data, n, stride, 1, [](float& x, float l, float r) {
    x -= kAlpha * (l + r);
  });
}

void analyze97(float* data, std::size_t n, std::size_t stride, float* scratch) {
  CJ2K_DCHECK(n >= 1);
  if (n == 1) return;
  lift_step(data, n, stride, 1, [](float& x, float l, float r) {
    x += kAlpha * (l + r);
  });
  lift_step(data, n, stride, 0, [](float& x, float l, float r) {
    x += kBeta * (l + r);
  });
  lift_step(data, n, stride, 1, [](float& x, float l, float r) {
    x += kGamma * (l + r);
  });
  lift_step(data, n, stride, 0, [](float& x, float l, float r) {
    x += kDelta * (l + r);
  });
  const std::ptrdiff_t sn = static_cast<std::ptrdiff_t>(n);
  for (std::ptrdiff_t i = 0; i < sn; ++i) {
    float& x = data[static_cast<std::size_t>(i) * stride];
    x = (i & 1) ? x * kK : x * (1.0f / kK);
  }
  const std::size_t nl = (n + 1) / 2;
  for (std::size_t i = 0; i < n; ++i) scratch[i] = data[i * stride];
  for (std::size_t i = 0; i < nl; ++i) data[i * stride] = scratch[2 * i];
  for (std::size_t i = nl; i < n; ++i) {
    data[i * stride] = scratch[2 * (i - nl) + 1];
  }
}

void synthesize97(float* data, std::size_t n, std::size_t stride,
                float* scratch) {
  CJ2K_DCHECK(n >= 1);
  if (n == 1) return;
  const std::size_t nl = (n + 1) / 2;
  for (std::size_t i = 0; i < nl; ++i) scratch[2 * i] = data[i * stride];
  for (std::size_t i = nl; i < n; ++i) {
    scratch[2 * (i - nl) + 1] = data[i * stride];
  }
  for (std::size_t i = 0; i < n; ++i) data[i * stride] = scratch[i];
  unlift97(data, n, stride);
}

// ---------------------------------------------------------------------------
// Q13 fixed point.
// ---------------------------------------------------------------------------

void analyze97_fixed(Fix* data, std::size_t n, std::size_t stride,
                   Fix* scratch) {
  CJ2K_DCHECK(n >= 1);
  if (n == 1) return;
  lift_step(data, n, stride, 1, [](Fix& x, Fix l, Fix r) {
    x += fix_mul(kFxAlpha, l + r);
  });
  lift_step(data, n, stride, 0, [](Fix& x, Fix l, Fix r) {
    x += fix_mul(kFxBeta, l + r);
  });
  lift_step(data, n, stride, 1, [](Fix& x, Fix l, Fix r) {
    x += fix_mul(kFxGamma, l + r);
  });
  lift_step(data, n, stride, 0, [](Fix& x, Fix l, Fix r) {
    x += fix_mul(kFxDelta, l + r);
  });
  const std::ptrdiff_t sn = static_cast<std::ptrdiff_t>(n);
  for (std::ptrdiff_t i = 0; i < sn; ++i) {
    Fix& x = data[static_cast<std::size_t>(i) * stride];
    x = (i & 1) ? fix_mul(x, kFxK) : fix_mul(x, kFxInvK);
  }
  const std::size_t nl = (n + 1) / 2;
  for (std::size_t i = 0; i < n; ++i) scratch[i] = data[i * stride];
  for (std::size_t i = 0; i < nl; ++i) data[i * stride] = scratch[2 * i];
  for (std::size_t i = nl; i < n; ++i) {
    data[i * stride] = scratch[2 * (i - nl) + 1];
  }
}

void synthesize97_fixed(Fix* data, std::size_t n, std::size_t stride,
                      Fix* scratch) {
  CJ2K_DCHECK(n >= 1);
  if (n == 1) return;
  const std::size_t nl = (n + 1) / 2;
  for (std::size_t i = 0; i < nl; ++i) scratch[2 * i] = data[i * stride];
  for (std::size_t i = nl; i < n; ++i) {
    scratch[2 * (i - nl) + 1] = data[i * stride];
  }
  for (std::size_t i = 0; i < n; ++i) data[i * stride] = scratch[i];
  const std::ptrdiff_t sn = static_cast<std::ptrdiff_t>(n);
  for (std::ptrdiff_t i = 0; i < sn; ++i) {
    Fix& x = data[static_cast<std::size_t>(i) * stride];
    x = (i & 1) ? fix_mul(x, kFxInvK) : fix_mul(x, kFxK);
  }
  lift_step(data, n, stride, 0, [](Fix& x, Fix l, Fix r) {
    x -= fix_mul(kFxDelta, l + r);
  });
  lift_step(data, n, stride, 1, [](Fix& x, Fix l, Fix r) {
    x -= fix_mul(kFxGamma, l + r);
  });
  lift_step(data, n, stride, 0, [](Fix& x, Fix l, Fix r) {
    x -= fix_mul(kFxBeta, l + r);
  });
  lift_step(data, n, stride, 1, [](Fix& x, Fix l, Fix r) {
    x -= fix_mul(kFxAlpha, l + r);
  });
}

}  // namespace cj2k::jp2k::ref
