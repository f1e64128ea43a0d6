// Plain 4-lane vector value types of the SPE vector model.  They carry no
// instrumentation of their own: cell::Simd computes on their lanes and
// charges op counters around them.  The host SSE2/NEON policy
// (backend::HostVec) uses native register types instead; the scalar host
// fallback reuses these.
#pragma once

#include <cstdint>

namespace cj2k::cell {

struct VecF4 {
  float lane[4];
};

struct VecI4 {
  std::int32_t lane[4];
};

}  // namespace cj2k::cell
