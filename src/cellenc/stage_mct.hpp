// Pipeline stage: merged level shift + inter-component transform over the
// chunk decomposition (paper §3.2 — fully parallelized on PPE + SPEs, the
// two stages fused to halve their DMA traffic).
#pragma once

#include <vector>

#include "backend/kernel_backend.hpp"
#include "cell/machine.hpp"
#include "common/aligned_buffer.hpp"
#include "image/image.hpp"

namespace cj2k::cellenc {

/// Lossless path: level shift (+ RCT when `color`) in place on the planes.
cell::StageTiming stage_mct_lossless(
    cell::Machine& m, std::vector<Plane>& planes, bool color, unsigned depth,
    backend::BackendKind bk = backend::BackendKind::kCellModel);

/// Lossy path: level shift (+ ICT when `color`), integer planes -> float
/// planes of the same stride (cache-line aligned storage).  Reads directly
/// from the working planes the read stage produced — no intermediate copy.
cell::StageTiming stage_mct_lossy(
    cell::Machine& m, const std::vector<Plane>& planes,
    std::vector<AlignedBuffer<float>>& fplanes, std::size_t stride,
    bool color, unsigned depth,
    backend::BackendKind bk = backend::BackendKind::kCellModel);

/// Fixed-point lossy path: level shift (+ fixed ICT when `color`), integer
/// planes -> Q13 planes (the paper's §4 "before" configuration).
cell::StageTiming stage_mct_lossy_fixed(
    cell::Machine& m, const std::vector<Plane>& planes,
    std::vector<Plane>& fxplanes, bool color, unsigned depth,
    backend::BackendKind bk = backend::BackendKind::kCellModel);

}  // namespace cj2k::cellenc
