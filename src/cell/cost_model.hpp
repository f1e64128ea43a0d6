// Architecture cost models: convert instrumented op counts into simulated
// seconds for the SPE, the PPE, and the Pentium IV comparison target.
//
// Calibration sources (documented per constant in cost_model.cpp):
//  * the paper's Table 1 SPE latencies (mpyh/mpyu 7, a 2, fm 6) and the
//    derived 4-byte-integer-multiply emulation cost;
//  * public Cell/B.E. specs: 3.2 GHz, dual-issue SPE (even pipe arithmetic,
//    odd pipe load/store/shuffle), no dynamic branch prediction, 25.6 GB/s
//    XDR memory per chip;
//  * Pentium IV 3.2 GHz with a 6.4 GB/s front-side bus.
//
// The model is a throughput (issue-slot) model, not a latency simulator:
// the paper's kernels are unrolled streaming loops where issue rate, not
// dependency latency, bounds performance — except for the emulated integer
// multiply and branchy Tier-1 code, which get explicit surcharges.
#pragma once

#include <cstdint>

#include "cell/counters.hpp"

namespace cj2k::cell {

/// Per-architecture tunables (defaults in cost_model.cpp).
struct CostParams {
  double clock_hz = 3.2e9;

  // SPE issue costs (cycles per 128-bit instruction).
  double spe_even_op = 1.0;        ///< add/shift/fm/compare.
  double spe_mul_i_emul = 4.0;     ///< mpyh+mpyh+mpyu+a sequence.
  double spe_odd_op = 1.0;         ///< load/store/shuffle.
  double spe_scalar_op = 1.5;      ///< scalar on the preferred slot.
  double spe_branch = 10.0;        ///< avg incl. ~18-cycle miss, no predictor.
  double spe_t1_cycles_per_symbol = 150.0;

  // PPE (in-order 2-way, 3.2 GHz; scalar code).
  double ppe_scalar_op = 1.1;
  double ppe_float_op = 1.1;
  double ppe_branch = 2.5;
  double ppe_t1_cycles_per_symbol = 85.0;

  // HT (Part 15) cleanup-pass block coder, per coded *sample* (unlike the
  // EBCOT per-MQ-symbol costs above: HT visits each coefficient once, in
  // branch-light 2×2 quads, instead of up to three MQ decisions per bit
  // plane).  Calibrated from published HTJ2K-vs-EBCOT software throughput
  // ratios (~6-10× block-coder speedup) against the per-symbol costs
  // above at the lossy workload's average of ~4 coded symbols per sample
  // — see DESIGN.md §9.
  double spe_ht_cycles_per_sample = 24.0;
  double ppe_ht_cycles_per_sample = 45.0;
  /// Serial rate-allocation cost (Jasper recomputes per-pass R-D data on
  /// the PPE; calibrated so the stage approaches the paper's ~60% share of
  /// lossy encoding at 16 SPEs — see EXPERIMENTS.md).  Used by the
  /// serial-baseline lossy tail; the distributed tail replaces it with the
  /// per-phase costs below.
  double ppe_rate_cycles_per_pass = 16000.0;
  /// Tier-2 + stream assembly cost per output byte (tag trees, packet
  /// headers, buffer copies).  Also the per-byte cost of coding one
  /// precinct stream on a PPE worker in the distributed tail.
  double ppe_t2_cycles_per_byte = 40.0;

  // Distributed lossy tail (overlapped hull build, k-way slope merge,
  // precinct-parallel Tier-2 — DESIGN.md §5).
  /// Per-pass cost of the R-D convex-hull update when it runs fused onto
  /// the worker that just finished the block's Tier-1 coding.  ~15 scalar
  /// ops + 2-3 data-dependent branches per pass; the SPE pays its 10-cycle
  /// unpredicted branches and scalar-on-vector slots, the PPE is leaner.
  double spe_rate_hull_cycles_per_pass = 260.0;
  double ppe_rate_hull_cycles_per_pass = 150.0;
  /// Per-segment cost of the serial k-way merge of per-worker slope-sorted
  /// hull lists on the PPE (heap pop + push over K list heads; the O(S)
  /// residue that replaces the serial O(S log S) sort).
  double ppe_merge_cycles_per_seg = 28.0;
  /// Per-segment cost of one greedy λ-threshold scan iteration (compare,
  /// accumulate, two stores per taken segment).
  double ppe_rate_scan_cycles_per_seg = 10.0;
  /// Per-byte cost of coding one precinct stream on an SPE worker (branchy
  /// bit-packing and tag trees — markedly worse than the PPE's, like T1).
  double spe_t2_cycles_per_byte = 95.0;
  /// Serial stitch pass: concatenating finished precinct packets into the
  /// progression order (bulk copies on the PPE).
  double ppe_t2_stitch_cycles_per_byte = 6.0;
  /// Per-completion overhead of the ordered hand-off between the worker
  /// pool and the streaming stitch consumer (mailbox poll + FIFO pop +
  /// cursor bookkeeping on the PPE; charged once per precinct stream).
  double ppe_handoff_cycles_per_item = 40.0;
  /// PPE streaming throughput for the vector-ish stages, expressed as
  /// cycles per *lane* (the PPE runs them scalar: 4 lanes = 4+ ops).
  double ppe_lane_op = 1.2;

  // Pentium IV (out-of-order, 3.2 GHz, scalar Jasper build: no SIMD).
  double p4_scalar_op = 0.75;
  double p4_fix_mul64 = 4.0;       ///< 32x32->64 fixed-point multiply+shift.
  double p4_t1_cycles_per_symbol = 58.0;
  double p4_mem_bw = 6.4e9;        ///< FSB bandwidth.
  /// Effective traffic multiplier for column-major (vertical) passes that
  /// miss in cache (Jasper's known weakness, paper §3.2).
  double p4_vertical_penalty = 2.0;

  // Memory system.
  double chip_mem_bw = 25.6e9;     ///< XDR per Cell chip.
  double spe_max_bw = 16.0e9;      ///< Peak per-SPE DMA bandwidth.
  double unaligned_dma_penalty = 2.0;  ///< Traffic multiplier when a
                                       ///< transfer misses the cache-line
                                       ///< efficient path.

  bool operator==(const CostParams&) const = default;
};

/// Converts counters into seconds on each architecture.
class CostModel {
 public:
  CostModel() = default;
  explicit CostModel(const CostParams& p) : p_(p) {}

  const CostParams& params() const { return p_; }
  CostParams& params() { return p_; }

  /// SPE compute time (no DMA).
  double spe_seconds(const OpCounters& c) const;

  /// PPE compute time for the same counters, modeling the stage run as
  /// scalar code (each vector op = 4 lane ops).
  double ppe_seconds(const OpCounters& c) const;

  /// Effective DMA bytes after the alignment penalty.
  std::uint64_t effective_dma_bytes(const OpCounters& c) const;

  /// Time for one SPE's DMA traffic at its private peak bandwidth
  /// (contention is applied at machine level).
  double spe_dma_seconds(const OpCounters& c) const;

  /// The asynchronous (tag-grouped) share of spe_dma_seconds — the part a
  /// double-buffered kernel can hide behind compute.  Synchronous get/put
  /// traffic serializes with compute regardless of the overlap mode, so
  /// overlap credit in Machine::compose is *earned* by issuing tagged
  /// transfers, not granted by assumption.
  double spe_dma_async_seconds(const OpCounters& c) const;

  /// One SPE's busy time for a stage: compute plus the DMA latency the
  /// kernel could not hide.  With `overlap_dma` the tagged share runs
  /// behind compute (max), the synchronous remainder serializes; without
  /// it everything serializes.  This is the per-SPE term Machine::compose
  /// maxes over, and the span length the trace draws for the SPE.
  double spe_busy_seconds(const OpCounters& c, bool overlap_dma) const;

 private:
  CostParams p_;
};

}  // namespace cj2k::cell
