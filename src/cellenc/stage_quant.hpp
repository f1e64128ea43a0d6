// Pipeline stage: dead-zone quantization of the 9/7 coefficient plane into
// integer indices (lossy path only; parallelized over full rows with
// per-subband step segments, per the paper's decomposition scheme).
#pragma once

#include <vector>

#include "backend/kernel_backend.hpp"
#include "cell/machine.hpp"
#include "common/span2d.hpp"
#include "image/image.hpp"
#include "jp2k/tile.hpp"

namespace cj2k::cellenc {

/// Quantizes `fplane` (the transformed component) into `qplane`, using each
/// subband's `quant_step` (already set on the tile component's subbands).
cell::StageTiming stage_quant(
    cell::Machine& m, Span2d<const float> fplane, Span2d<Sample> qplane,
    const jp2k::TileComponent& tc,
    backend::BackendKind bk = backend::BackendKind::kCellModel);

/// Fixed-point variant: quantizes a Q13 coefficient plane via reciprocal
/// multiplies (emulated on the SPE).
cell::StageTiming stage_quant_fixed(
    cell::Machine& m, Span2d<const Sample> fxplane, Span2d<Sample> qplane,
    const jp2k::TileComponent& tc,
    backend::BackendKind bk = backend::BackendKind::kCellModel);

}  // namespace cj2k::cellenc
