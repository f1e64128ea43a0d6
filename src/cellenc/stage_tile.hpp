// Tile-parallel scheduling for multi-tile encodes (DESIGN.md §7): the SPE
// pool is carved into groups of at least a full paper-scale pipeline
// (decomp::plan_tile_groups), independent tiles run their data-parallel
// fronts on the groups in waves, and the serial PPE slots (per-stage
// remainders, per-tile Tier-2) are replayed through a shared-resource
// pipeline schedule (decomp::schedule_pipeline) so a later tile's SPE work
// hides an earlier tile's PPE time.
//
// Tiles run and are assembled in tile-index order, and the lossy path feeds
// every tile's hull segments into one k-way merge, so a single global λ
// holds over the whole image — output is byte-identical to jp2k::encode
// with the same tile grid.
#pragma once

#include "cellenc/pipeline.hpp"
#include "jp2k/tile_grid.hpp"

namespace cj2k::cellenc {

/// Runs the full multi-tile pipeline on the simulated machine.  `machine`
/// is the whole-pool machine; group machines are derived from its config.
/// Called by CellEncoder::encode when the grid has more than one tile;
/// every tile front consults `memo` (see encode_tile_front).
PipelineResult encode_tiled(cell::Machine& machine, const Image& img,
                            const jp2k::CodingParams& params,
                            const PipelineOptions& opt,
                            const jp2k::TileGrid& grid,
                            FrontMemo* memo = nullptr);

}  // namespace cj2k::cellenc
