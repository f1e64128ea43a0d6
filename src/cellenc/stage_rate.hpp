// Pipeline stage: the distributed lossy tail — PCRD rate control plus
// precinct-parallel Tier-2 (going past the paper, which leaves this whole
// span serial on the PPE and watches it grow to ~60% of lossy encode time
// at 16 SPEs; Fig. 5).
//
// Decomposition (DESIGN.md §5):
//   * per-block R-D hulls were already built on the Tier-1 workers
//     (stage_t1 + HullCapture) — their cost hides under the T1 span;
//   * the per-worker slope-sorted lists are k-way merged on the PPE
//     (O(S log K), charged per segment) — replacing the serial O(S log S)
//     sort;
//   * the greedy λ-threshold scan stays serial: every truncation decision
//     depends on the global slope order (the paper's ordering constraint);
//   * each budget-refinement iteration sizes the stream by coding the
//     independent (component, resolution) precinct streams in parallel on
//     SPE + PPE workers, with only the stitch/sum serial;
//   * final Tier-2 body assembly reuses the same precinct decomposition,
//     followed by a serial header-stitch pass.
//
// The serial residue that remains is further *pipelined* (DESIGN.md §5):
//   * the greedy λ scan is resumable (jp2k::IncrementalScan), so each
//     refinement iteration's precinct sizing jobs are released the moment
//     the scan prefix covering a precinct's blocks is decided — sizing
//     overlaps the scan instead of waiting for it;
//   * the final Tier-2 stitch is modelled as a streaming consumer (the
//     ordered hand-off replay, decomp::schedule_ordered_handoff): the PPE
//     concatenates finished precinct packets in progression order while
//     the pool still codes later precincts.  The host codes every stream
//     and then stitches; only the virtual clock overlaps the two;
//   * when a rate target drove the allocation, the last sizing pass already
//     coded the final selection, so its precinct streams are reused verbatim.
// Each stage reports as overlap_saved what the overlap hides against the
// phase-ordered accounting (every iteration's scan, then its sizing; the
// whole coding pass, then a serial stitch of the framed stream), so
// seconds + overlap_saved is the phase-ordered tail's time.
//
// serial_tail charges the paper's own configuration instead: rate control
// and Tier-2 run serially on the PPE through jp2k::finish_tiles.
//
// The stage reuses jp2k's allocate_rate_across_tiles and t2_encode_precincts
// directly, so the codestream is byte-identical to jp2k::encode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cell/machine.hpp"
#include "cellenc/stage_t1.hpp"
#include "image/image.hpp"
#include "jp2k/codestream.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/rate_control.hpp"
#include "jp2k/tile_grid.hpp"

namespace cj2k::cellenc {

struct LossyTailResult {
  std::vector<std::uint8_t> codestream;
  cell::StageTiming rate_timing;  ///< "rate": merge + scans + sizing.
  cell::StageTiming t2_timing;    ///< "t2": parallel assembly + stitch.
  jp2k::RateControlStats stats;
  /// What the paper's serial tail would have charged for the same work
  /// (rate allocation at ppe_rate_cycles_per_pass, Tier-2 at
  /// ppe_t2_cycles_per_byte) — the baseline the benches print alongside.
  double serial_rate_seconds = 0;
  double serial_t2_seconds = 0;
};

/// Runs rate control (single- or multi-layer, mirroring jp2k::finish_tiles)
/// and Tier-2 + framing over the machine model.  `hulls` is the capture
/// filled by stage_t1; its worker lists are consumed (moved out).
LossyTailResult stage_rate_tail(cell::Machine& m, jp2k::Tile& tile,
                                const Image& img,
                                const jp2k::CodingParams& params,
                                HullCapture& hulls);

/// Multi-tile form: one global λ over the whole tile set (the worker lists
/// in `hulls` carry segments from every tile, ordinals offset per tile), a
/// precinct-parallel Tier-2 per tile, tile-part framing.  Byte-identical
/// to jp2k::finish_tiles.  One tile degenerates to stage_rate_tail.
LossyTailResult stage_rate_tail_tiles(cell::Machine& m,
                                      const jp2k::TileGrid& grid,
                                      const std::vector<jp2k::Tile*>& tiles,
                                      const Image& img,
                                      const jp2k::CodingParams& params,
                                      HullCapture& hulls);

/// The paper's serial tail (Fig. 5 baseline), charged from the work the
/// serial jp2k::finish_tiles reported in `stats`: rate
/// allocation at passes_considered x ppe_rate_cycles_per_pass, Tier-2 and
/// framing at codestream_bytes x ppe_t2_cycles_per_byte.  Returns the
/// "rate" stage (lossy runs only) then "t2", each wholly PPE-serial, and
/// emits their PPE and driver spans on `trace` when it is non-null.
std::vector<cell::StageTiming> serial_tail(const cell::CostParams& cp,
                                           cell::TraceRecorder* trace,
                                           const jp2k::EncodeStats& stats,
                                           std::size_t codestream_bytes,
                                           bool lossy);

}  // namespace cj2k::cellenc
