// Post-compression rate-distortion optimization (PCRD, Taubman's EBCOT
// Tier-1.5): choose a truncation point for every code block so total bytes
// meet the rate budget while maximizing the weighted distortion reduction.
//
// In the paper this stage is the *serial* bottleneck of lossy encoding —
// it sits between Tier-1 and Tier-2 (preventing their overlap) and grows to
// ~60% of total time at 16 SPEs.  The instrumentation counters here feed
// that part of the performance model.
//
// To let the Cell pipeline distribute the stage, the monolithic
// rate_control() is split into composable phases:
//   1. build_block_hull()      — per-block convex hull (parallelizable; the
//                                 pipeline runs it on the worker that just
//                                 finished the block's Tier-1 coding);
//   2. merge_segment_lists()   — k-way merge of per-worker slope-sorted
//                                 lists (O(S log K), serial on the PPE);
//   3. rate_control_presorted_tiles()/rate_control_layered_presorted_tiles()
//      — the greedy λ-threshold scan and budget refinement over a tile set,
//      which MUST stay serial: every truncation decision depends on the
//      global slope order.
// The serial rate_control()/rate_control_layered() wrappers compose the
// same phases, so both paths select byte-identical truncation points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "jp2k/tile.hpp"

namespace cj2k::jp2k {

/// One budget-refinement iteration of the greedy scan, recorded so the cost
/// model can charge what each iteration actually did (early iterations size
/// *larger* selections than the final one) and so the overlapped pipeline
/// knows how far each scan walked.
struct ScanIterationRecord {
  std::size_t body_budget = 0;       ///< Greedy budget given to this scan.
  std::size_t selected_bytes = 0;    ///< Body bytes the greedy prefix took.
  std::size_t segments_consumed = 0; ///< Segments the scan examined.
  std::size_t sized_bytes = 0;       ///< T2 size of this iteration's selection.
};

struct RateControlStats {
  std::size_t target_bytes = 0;    ///< Body-byte budget given.
  std::size_t selected_bytes = 0;  ///< Body bytes actually selected.
  double lambda = 0.0;             ///< Final R-D slope threshold.
  std::uint64_t passes_considered = 0;  ///< Work metric for the cost model.
  std::uint64_t hull_points = 0;
  int iterations = 0;              ///< Budget-refinement iterations.
  /// Per-iteration ledger of the refinement loop (size == iterations).
  std::vector<ScanIterationRecord> scan_iterations;
};

/// One convex-hull segment of a block's R-D curve.
struct HullSegment {
  double slope;          ///< Weighted distortion reduction per byte.
  std::size_t delta_r;   ///< Bytes this segment adds.
  CodeBlock* block;
  int pass_count;        ///< Passes included once this segment is taken.
  std::size_t trunc_len; ///< Codeword bytes at that point.
  /// Deterministic tiebreak: (block ordinal in tile traversal order << 16)
  /// | segment index within the block.  Makes the slope order a strict
  /// total order, so a k-way merge of any partition of the segments equals
  /// the serial sort — the key to byte-identical parallel rate control.
  std::uint64_t order = 0;
};

/// The total order the greedy scan consumes: steepest slope first,
/// tile-traversal order as the tiebreak.
inline bool hull_segment_before(const HullSegment& a, const HullSegment& b) {
  if (a.slope != b.slope) return a.slope > b.slope;
  return a.order < b.order;
}

/// Distortion weight of a subband's blocks: (quant_step × synthesis gain)².
double hull_weight(const Subband& sb, WaveletKind kind, int tile_levels);

/// Builds the strictly-decreasing-slope convex hull of one block's
/// cumulative (rate, distortion) pass curve and appends its segments to
/// `out`.  `block_ordinal` is the block's position in the canonical tile
/// traversal (components → subbands → blocks); it seeds the deterministic
/// tie-break order.  Reentrant across distinct blocks — the Cell pipeline
/// calls it concurrently from every Tier-1 worker.
void build_block_hull(CodeBlock& cb, double weight,
                      std::uint64_t block_ordinal,
                      std::vector<HullSegment>& out,
                      RateControlStats* stats = nullptr);

/// Builds and slope-sorts the R-D hull segments for the whole tile
/// (the serial phase-1+2; also resets every block's selection state).
/// `ordinal_base` offsets the block ordinals — multi-tile encodes pass the
/// cumulative block count of the preceding tiles so the global slope order
/// is a strict total order across the whole image.
std::vector<HullSegment> build_sorted_segments(Tile& tile, WaveletKind kind,
                                               RateControlStats& stats,
                                               std::uint64_t ordinal_base = 0);

/// K-way merge of per-worker segment lists, each already sorted by
/// hull_segment_before, into the single global slope order.  O(S log K)
/// with a tournament over the list heads; this is the only part of hull
/// construction that remains serial on the PPE.
std::vector<HullSegment> merge_segment_lists(
    std::vector<std::vector<HullSegment>>&& lists);

/// Resumable greedy λ-threshold scan over a pre-sorted segment list.  The
/// scan walks the global slope order, taking every segment that still fits
/// the body budget (applying its truncation point to the block) and
/// stopping at the first that does not.  `advance` moves the walk by a
/// bounded number of segments, so a caller can interleave the scan with
/// other work — the overlapped pipeline releases each precinct's sizing
/// job the moment the walk has passed the last segment of that precinct's
/// blocks.  `set_budget` raises the budget and resumes a stopped walk
/// (the layered scan's per-layer budget steps).  Driving the scan to
/// completion in any chunking yields exactly the selection of the one-shot
/// greedy loop it replaces.
class IncrementalScan {
 public:
  IncrementalScan(const std::vector<HullSegment>& segments,
                  std::size_t body_budget)
      : segments_(&segments), budget_(body_budget) {}

  /// Examines up to `max_segments` more segments, taking those that fit.
  /// Returns the number examined by this call (0 once done).
  std::size_t advance(std::size_t max_segments);

  /// Drives the walk until it stops (budget wall or end of list).
  void run_to_stop() { advance(segments_->size()); }

  /// Raises the budget (must be non-decreasing) and resumes a walk stopped
  /// at the budget wall.
  void set_budget(std::size_t body_budget);

  /// True when the walk has stopped: the next segment does not fit, or no
  /// segments remain.
  bool done() const {
    return stopped_ || position_ >= segments_->size();
  }

  std::size_t position() const { return position_; }  ///< Segments examined.
  std::size_t used() const { return used_; }          ///< Body bytes taken.
  double lambda() const { return lambda_; }  ///< Slope of last taken segment.

 private:
  const std::vector<HullSegment>* segments_;
  std::size_t budget_;
  std::size_t position_ = 0;
  std::size_t used_ = 0;
  double lambda_ = 0.0;
  bool stopped_ = false;  ///< Hit the budget wall (cleared by set_budget).
};

/// Optional per-iteration sizing hook for the refinement loop: called after
/// each greedy scan with the blocks' selection state applied; must return
/// the total T2 byte size of the current selection (what
/// t2_encoded_size summed over the tiles would report).  The distributed
/// tail supplies one that also records per-precinct sizes for its cost
/// model; when empty, the serial per-tile sizing is used.
using SizingFn = std::function<std::size_t(int iteration)>;

// The greedy λ-threshold scan + budget refinement over pre-sorted segments:
// one global budget over the blocks of every tile — one λ holds across the
// whole image (DESIGN.md §7).  `segments` must be the merged slope order
// over every tile's hulls (distinct ordinal bases per tile).  `stats`
// carries the hull-building counters accumulated by the caller
// (passes_considered / hull_points); the scan fills in the rest.  The
// single-tile entry points below call these with one tile.

RateControlStats rate_control_presorted_tiles(
    const std::vector<Tile*>& tiles, std::size_t total_budget_bytes,
    const std::vector<HullSegment>& segments, RateControlStats stats = {},
    const SizingFn& sizer = {});

RateControlStats rate_control_layered_presorted_tiles(
    const std::vector<Tile*>& tiles, const std::vector<std::size_t>& budgets,
    const std::vector<HullSegment>& segments, RateControlStats stats = {},
    const SizingFn& sizer = {});

/// Selects `included_passes`/`included_len` for every block of the tile so
/// the final T2 output (headers + bodies) fits `total_budget_bytes`.
/// Distortion is weighted by (quant_step × synthesis gain)² per subband.
/// With a zero/negative budget every block is truncated to nothing; with a
/// huge budget everything is included.
RateControlStats rate_control(Tile& tile, std::size_t total_budget_bytes,
                              WaveletKind kind);

/// Multi-layer PCRD: `budgets` are ascending cumulative byte targets, one
/// per quality layer; the last is the final-stream budget.  Sets each
/// block's `layer_passes` (cumulative passes per layer) so that decoding
/// layers 0..l approximates the R-D optimum at budgets[l].  Returns stats
/// for the final layer.
RateControlStats rate_control_layered(Tile& tile,
                                      const std::vector<std::size_t>& budgets,
                                      WaveletKind kind);

}  // namespace cj2k::jp2k
