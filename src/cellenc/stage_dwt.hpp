// Pipeline stage: multilevel 2-D DWT on the Cell (paper §3.2/§4).
//
// Vertical filtering: the plane is split into constant-width column groups
// via the chunk decomposition; each SPE streams its group's rows through a
// small Local Store ring, running the merged split+lift(+scale) schedule
// (one DMA read and ~1.5 writes per row instead of 3/6 passes).  The PPE
// handles the remainder columns.
//
// Horizontal filtering: rows are split evenly across the SPEs; each row is
// fetched, deinterleaved (shuffles), lifted on its halves and written back
// as L|H.
#pragma once

#include "backend/kernel_backend.hpp"
#include "cell/machine.hpp"
#include "common/span2d.hpp"
#include "image/image.hpp"

namespace cj2k::cellenc {

struct DwtOptions {
  bool merged_vertical = true;   ///< false = naive multipass (ablation A).
  std::size_t colgroup_elems = 0;  ///< 0 = auto (width/SPEs); else fixed
                                   ///< column-group width (ablation C).

  bool operator==(const DwtOptions&) const = default;
};

/// In-place multilevel 5/3; returns the summed stage timing across levels.
cell::StageTiming stage_dwt53(
    cell::Machine& m, Span2d<Sample> plane, int levels,
    const DwtOptions& opt = {},
    backend::BackendKind bk = backend::BackendKind::kCellModel);

/// In-place multilevel 9/7 (float).
cell::StageTiming stage_dwt97(
    cell::Machine& m, Span2d<float> plane, int levels,
    const DwtOptions& opt = {},
    backend::BackendKind bk = backend::BackendKind::kCellModel);

/// In-place multilevel 9/7 in Q13 fixed point — the arithmetic the paper
/// replaces with float on the SPE (§4).  Always uses the merged vertical
/// schedule.
cell::StageTiming stage_dwt97_fixed(
    cell::Machine& m, Span2d<Sample> plane, int levels,
    const DwtOptions& opt = {},
    backend::BackendKind bk = backend::BackendKind::kCellModel);

}  // namespace cj2k::cellenc
