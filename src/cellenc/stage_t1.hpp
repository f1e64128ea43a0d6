// Pipeline stage: Tier-1 EBCOT over a code-block work queue (paper §3.2).
//
// Blocks have content-dependent coding cost, so the stage uses a shared
// FIFO of blocks drained by all processing elements — SPE threads *and* PPE
// threads (the lossy rate-control stage between T1 and T2 prevents the
// Muta-style PPE/Tier-2 overlap, so the paper dedicates the PPE to T1).
// Simulated time comes from replaying the queue in virtual time with each
// worker's per-symbol speed.
//
// Going past the paper: when a HullCapture is supplied, every worker also
// builds the R-D convex hull of each block it just coded (the first phase
// of PCRD rate control), keeping per-worker slope-sorted segment lists.
// The hull cost rides the same work queue, so it hides under the Tier-1
// span instead of being appended serially to the rate stage — the replay
// uses a fused schedule and reports how much of the hull work was
// absorbed.
#pragma once

#include "cell/machine.hpp"
#include "common/span2d.hpp"
#include "image/image.hpp"
#include "jp2k/rate_control.hpp"
#include "jp2k/tile.hpp"

namespace cj2k::cellenc {

enum class T1Distribution {
  kWorkQueue,   ///< Earliest-free worker takes the next block (paper).
  kStatic,      ///< Round-robin (ablation D baseline).
};

/// Request + result of overlapped per-block hull construction.
struct HullCapture {
  /// In: wavelet kind (selects the subband distortion weights).
  jp2k::WaveletKind wavelet = jp2k::WaveletKind::kIrreversible97;
  /// In: hull ordinal of this tile's first block (cumulative block count of
  /// the preceding tiles, index order) — keeps the global slope order a
  /// strict total order across a multi-tile merge.
  std::uint64_t ordinal_base = 0;
  /// Out: one segment list per host pool slot, each sorted by
  /// hull_segment_before — ready for the PPE's k-way merge
  /// (cellenc/stage_rate).
  std::vector<std::vector<jp2k::HullSegment>> worker_lists;
  /// Out: hull-building counters (passes_considered / hull_points).
  jp2k::RateControlStats stats;
};

struct T1StageResult {
  cell::StageTiming timing;
  std::uint64_t total_symbols = 0;
  std::uint64_t total_blocks = 0;
  double queue_makespan = 0;    ///< T1-only seconds under the work queue.
  double static_makespan = 0;   ///< What static distribution would cost.
  /// Hull overlap accounting (zero unless a HullCapture was supplied):
  /// the T1 span growth caused by fusing the hull builds onto the queue…
  double hull_extra_seconds = 0;
  /// …vs. what the same hull work costs appended serially on one PPE
  /// (the baseline the paper's serial rate stage pays).
  double hull_serial_seconds = 0;
};

/// Encodes every code block of every subband of the tile (coefficients are
/// read from `coeff_planes[c]`), filling the tile's CodeBlock::enc fields.
/// Host execution runs on the shared host pool (decomp/host_pool.hpp);
/// simulated time replays the chosen distribution policy over the
/// per-block symbol counts.  With `hulls`, each worker also builds the
/// blocks' R-D hulls (see above).
///
/// `coder` selects the block backend: EBCOT (per-MQ-symbol replay costs)
/// or the Part-15 HT cleanup pass (per-sample costs; ht_block.hpp).  HT
/// blocks have no truncation points, so `hulls` must be null for HT — the
/// PCRD machinery the hulls feed does not exist on that path.
T1StageResult stage_t1(
    cell::Machine& m, jp2k::Tile& tile,
    const std::vector<Span2d<const Sample>>& coeff_planes,
    T1Distribution dist = T1Distribution::kWorkQueue,
    const jp2k::T1Options& t1opt = {}, HullCapture* hulls = nullptr,
    jp2k::BlockCoder coder = jp2k::BlockCoder::kEbcot);

}  // namespace cj2k::cellenc
