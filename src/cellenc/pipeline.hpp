// The paper's Cell/B.E. JPEG2000 encoder: the full stage pipeline of
// Figure 2 (read/convert, merged level-shift + MCT, DWT, quantization,
// Tier-1 over the work queue, rate control, Tier-2 + stream assembly) run
// through the machine model.
//
// The produced codestream is bit-identical to jp2k::encode's (the stages
// perform the same arithmetic through the instrumented kernels); what the
// pipeline adds is the simulated Cell timing per stage.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cell/machine.hpp"
#include "cell/metrics.hpp"
#include "cell/trace.hpp"
#include "cellenc/stage_dwt.hpp"
#include "cellenc/stage_t1.hpp"
#include "decomp/work_queue.hpp"
#include "image/image.hpp"
#include "jp2k/codestream.hpp"
#include "jp2k/rate_control.hpp"

namespace cj2k::cellenc {

/// Knobs for one pipeline run.
struct PipelineOptions {
  DwtOptions dwt;
  T1Distribution t1_dist = T1Distribution::kWorkQueue;
  /// Distribute the lossy tail (overlapped hull build + k-way slope merge +
  /// precinct-parallel Tier-2, DESIGN.md §5).  Off reproduces the paper's
  /// serial-PPE rate/T2 baseline (Fig. 5's ~60% share at 16 SPEs).
  bool parallel_lossy_tail = true;
  /// Overlap the distributed tail's serial residue with its parallel work
  /// (released-sizing λ-scan overlap, streaming Tier-2 stitch, final-parts
  /// reuse — DESIGN.md §5).  Off keeps the phase-ordered accounting of the
  /// distributed tail (the serial-baseline toggle for A/B benches); the
  /// codestream is byte-identical either way.  Ignored when
  /// parallel_lossy_tail is false.
  bool overlap_lossy_tail = true;
  /// Cell-invariant audit (cellcheck tier 2, DESIGN.md §6): per-stage DMA
  /// and Local Store ledger in PipelineResult::audit; strict mode fails the
  /// encode (AuditError) on the first inefficient transfer or LS
  /// over-budget allocation.
  cell::AuditConfig audit;
  /// Multi-tile only: host processing order of the tiles (testing hook;
  /// empty means index order).  The codestream is byte-identical for any
  /// permutation — assembly and rate allocation use tile-index order.
  std::vector<std::size_t> tile_order;
  /// Vector policy the stage kernels are instantiated on (DESIGN.md §13):
  /// the counting cell::Simd (timing truth, the default) or the uncounted
  /// host HostVec (wall-clock truth).  The codestream is byte-identical
  /// either way; under the native backend no SPE ops are charged, so
  /// simulated seconds collapse — read wall_seconds / "wall.seconds".
  cj2k::backend::BackendKind backend =
      cj2k::backend::BackendKind::kCellModel;
  /// Event-level tracing (DESIGN.md §11): when enabled, the run records
  /// spans/instants/DMA flows into PipelineResult::trace for Chrome-JSON
  /// export.  Off (the default) records nothing and costs nothing; the
  /// codestream and simulated seconds are identical either way.
  cell::TraceConfig trace;
};

struct PipelineResult {
  std::vector<std::uint8_t> codestream;
  std::vector<cell::StageTiming> stages;  ///< In pipeline order.
  /// Single tile: sum of stage times.  Multi-tile: the pipelined makespan
  /// of the tile schedule (tiles overlap, so this is less than the sum).
  double simulated_seconds = 0;
  double wall_seconds = 0;                ///< Host wall clock (informative).
  /// Tile-level parallelism of the run (1 / 1 / full pool for single-tile).
  std::size_t tiles = 1;
  std::size_t tile_groups = 1;
  int spes_per_group = 0;
  std::uint64_t t1_symbols = 0;
  std::uint64_t dma_bytes = 0;

  /// Distributed-tail accounting (zero on lossless / serial-tail runs):
  /// hull work absorbed into T1 (span growth vs. its serial-PPE cost)…
  double hull_extra_seconds = 0;
  double hull_serial_seconds = 0;
  /// …and what the serial baseline would have charged for rate / Tier-2.
  double serial_rate_seconds = 0;
  double serial_t2_seconds = 0;
  /// Seconds the overlapped tail hid versus its phase-ordered accounting
  /// (sum of StageTiming::overlap_saved; zero with overlap_lossy_tail off).
  double overlap_saved_seconds = 0;
  /// Seconds the tag-grouped double-buffered DMA hid versus fully
  /// synchronous transfers (sum of StageTiming::dma_overlap_saved).
  double dma_overlap_saved_seconds = 0;
  /// Rate-allocation ledger of the run (iterations, per-iteration scan
  /// records); empty on lossless runs.
  jp2k::RateControlStats rate_stats;

  /// Simulated seconds of the named stage (0 when absent).
  double stage_seconds(const std::string& name) const;

  /// The host-clock view next to wall_seconds: "wall.seconds" plus one
  /// "wall.stage.<name>" per stage (StageTiming::wall_seconds).  Kept out
  /// of `metrics` and the trace export, which stay deterministic.
  std::map<std::string, double> wall_metrics() const;

  /// Invariant-audit ledger (enabled == false unless the run asked for it).
  cell::AuditReport audit;

  /// Derived metrics (DESIGN.md §11): per-stage occupancy, stall
  /// attribution, critical-path share, DMA/overlap accounting.  Always
  /// filled — BENCH_JSON and the CLI read from here.
  cell::MetricsRegistry metrics;

  /// The event trace; null unless PipelineOptions::trace.enabled.
  std::shared_ptr<cell::TraceRecorder> trace;

  /// Service-scheduler view of the run (src/service, DESIGN.md §12): one
  /// collapsed {pool, serial} phase per tile in tile-index order (the
  /// data-parallel front plus any per-tile serial Tier-2), and — on lossy
  /// EBCOT runs — the cross-tile rate/Tier-2 tail as a barrier phase that
  /// runs once after every tile item.  Costs are at this run's machine
  /// width, which is the lease-group width when the encode ran on a leased
  /// group machine.
  std::vector<decomp::PipelinePhase> tile_items;
  decomp::PipelinePhase tail_phase;
};

class CellEncoder {
 public:
  explicit CellEncoder(const cell::MachineConfig& mc) : machine_(mc) {}

  cell::Machine& machine() { return machine_; }

  PipelineResult encode(const Image& img, const jp2k::CodingParams& params,
                        const PipelineOptions& opt);

  PipelineResult encode(const Image& img, const jp2k::CodingParams& params,
                        const DwtOptions& dwt = {},
                        T1Distribution t1_dist = T1Distribution::kWorkQueue) {
    PipelineOptions opt;
    opt.dwt = dwt;
    opt.t1_dist = t1_dist;
    return encode(img, params, opt);
  }

 private:
  cell::Machine machine_;
};

/// Result of the data-parallel "front" of one tile's pipeline: read /
/// convert, level shift + MCT, DWT, quantization, and Tier-1 — everything
/// up to (but excluding) the lossy tail / Tier-2.
struct TileFrontResult {
  jp2k::Tile tile;
  /// read … tier1, in order; each stage's wall_seconds is the host time
  /// since the previous stage finished.
  std::vector<cell::StageTiming> stages;
  std::uint64_t t1_symbols = 0;
  double hull_extra_seconds = 0;
  double hull_serial_seconds = 0;
};

/// Runs the front of the pipeline for one (tile-sized) image on the given
/// machine.  The tile scheduler (stage_tile) calls this once per tile on a
/// group machine; CellEncoder::encode uses it directly for a single tile.
/// `hulls`, when non-null, captures per-worker R-D hull segment lists
/// during Tier-1 (set its ordinal_base before the call on multi-tile runs).
TileFrontResult encode_tile_front(cell::Machine& m, const Image& img,
                                  const jp2k::CodingParams& params,
                                  const PipelineOptions& opt,
                                  HullCapture* hulls);

}  // namespace cj2k::cellenc
