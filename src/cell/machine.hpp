// The Cell/B.E. machine model: a set of SPE contexts (Local Store + DMA +
// SIMD + counters), PPE thread counters, and the timing composition that
// turns per-worker op counts into a simulated stage time.
//
// Execution model: stage kernels are real C++ run as tasks on the host pool
// (decomp/host_pool.hpp), one task per SPE, so the work queue and chunk
// decomposition are genuinely concurrent.  An SPE is a logical context —
// its counters, Local Store and DMA tags — not a host thread.  *Simulated*
// time is computed from the counters, so it is deterministic and
// independent of the host machine.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cell/audit.hpp"
#include "cell/cost_model.hpp"
#include "cell/dma.hpp"
#include "cell/local_store.hpp"
#include "cell/simd.hpp"

namespace cj2k::cell {

class TraceRecorder;

/// One SPE's private state.
struct SpeContext {
  SpeContext() : dma(counters), simd(counters) {}
  LocalStore ls;
  OpCounters counters;
  DmaEngine dma;
  Simd simd;
};

struct MachineConfig {
  int num_spes = 8;
  int num_ppe_threads = 1;  ///< PPE hardware threads doing stage work.
  int chips = 1;            ///< QS20 blade = 2 (bandwidth scales).
  CostParams cost;          ///< Clock and per-op costs.

  bool operator==(const MachineConfig&) const = default;
};

/// Where a stage's composed `seconds` went, pool-averaged so the
/// components always sum to `seconds` (DESIGN.md §11).  `busy` is the
/// productive share; the other four buckets are the stall-attribution
/// taxonomy: exposed DMA latency / bandwidth ceiling (`dma_wait`), worker
/// idle with nothing to dequeue — including static-split load imbalance —
/// (`queue_empty`), waiting on serial PPE-side work (`ppe_serial`), and a
/// consumer blocked on the completion channel (`channel_stall`).
struct StallBreakdown {
  double busy = 0;
  double dma_wait = 0;
  double queue_empty = 0;
  double ppe_serial = 0;
  double channel_stall = 0;

  double sum() const {
    return busy + dma_wait + queue_empty + ppe_serial + channel_stall;
  }

  StallBreakdown& operator+=(const StallBreakdown& o) {
    busy += o.busy;
    dma_wait += o.dma_wait;
    queue_empty += o.queue_empty;
    ppe_serial += o.ppe_serial;
    channel_stall += o.channel_stall;
    return *this;
  }
};

/// Simulated timing of one pipeline stage.
struct StageTiming {
  std::string name;
  double spe_compute = 0;   ///< Max per-SPE compute seconds.
  double spe_dma = 0;       ///< Max per-SPE private DMA seconds.
  double dma_aggregate = 0; ///< Total traffic over chip bandwidth.
  double ppe = 0;           ///< Max per-PPE-thread compute seconds.
  double seconds = 0;       ///< Composed stage time.
  /// Seconds hidden by overlapping this stage with neighbouring work
  /// (serial-sum of the overlapped pieces minus the overlapped span).
  /// `seconds` already has it subtracted, so seconds + overlap_saved is
  /// the stage's phase-ordered time.  Zero for stages that do not overlap.
  double overlap_saved = 0;
  /// Seconds hidden *within* this stage by double-buffered tagged DMA
  /// (what the stage would have cost with synchronous transfers, minus
  /// `seconds`).  Zero when the stage issued no tagged transfers.
  double dma_overlap_saved = 0;
  std::uint64_t dma_bytes = 0;
  /// Stall attribution; components sum to `seconds` (always filled — the
  /// breakdown is a handful of divisions, not a tracing feature).
  StallBreakdown stall;
  /// Host wall seconds the stage's calls took (informative, the other
  /// clock): never part of the metrics registry or the trace export.
  double wall_seconds = 0;

  StageTiming& operator+=(const StageTiming& o) {
    spe_compute += o.spe_compute;
    spe_dma += o.spe_dma;
    dma_aggregate += o.dma_aggregate;
    ppe += o.ppe;
    seconds += o.seconds;
    overlap_saved += o.overlap_saved;
    dma_overlap_saved += o.dma_overlap_saved;
    dma_bytes += o.dma_bytes;
    stall += o.stall;
    wall_seconds += o.wall_seconds;
    return *this;
  }
};

class Machine {
 public:
  explicit Machine(const MachineConfig& cfg);

  const MachineConfig& config() const { return cfg_; }
  const CostModel& model() const { return model_; }
  int num_spes() const { return cfg_.num_spes; }
  int num_ppe_threads() const { return cfg_.num_ppe_threads; }
  SpeContext& spe(int i) { return *spes_.at(static_cast<std::size_t>(i)); }

  /// Runs `spe_work(i, ctx)` for every SPE, plus an optional PPE-side
  /// worker, as one parallel_for on the host pool, then composes the stage
  /// timing from the counters (which are reset on entry, along with each
  /// DmaEngine's tag state; pending tags at kernel return are a
  /// pending-at-exit hazard).  The first exception a worker throws is
  /// rethrown with its type; the machine stays reusable.
  /// With `overlap_dma` (the default) the *tagged* share of each SPE's DMA
  /// overlaps with compute — overlap credit is earned by issuing
  /// asynchronous transfers, synchronous traffic always serializes.
  /// Without it everything serializes (the Muta baseline condition).
  StageTiming run_data_parallel(
      const std::string& name,
      const std::function<void(int, SpeContext&)>& spe_work,
      const std::function<void(OpCounters&)>& ppe_work = nullptr,
      bool overlap_dma = true);

  /// Pure timing composition from externally-managed counters (used by the
  /// Tier-1 virtual-time work-queue stage and the baseline models).
  StageTiming compose(const std::string& name,
                      const std::vector<OpCounters>& spe_counters,
                      const std::vector<OpCounters>& ppe_counters,
                      bool overlap_dma = true) const;

  /// Chip-aggregate memory bandwidth (scales with the number of chips).
  double total_mem_bw() const {
    return cfg_.cost.chip_mem_bw * static_cast<double>(cfg_.chips);
  }

  /// Attaches an invariant audit to every SPE's DmaEngine and LocalStore
  /// (cellcheck tier 2); run_data_parallel tags events with the stage name.
  /// Pass nullptr to detach.
  void attach_audit(InvariantAudit* audit);

  /// Attaches a trace recorder (DESIGN.md §11): every run_data_parallel
  /// stage then emits per-SPE kernel spans with the hidden-vs-exposed DMA
  /// split, tag-group issue→wait flow events, idle/stall spans, and a PPE
  /// span, all on the recorder's virtual clock.  Pass nullptr to detach
  /// (the zero-overhead default).  Timing composition never reads the
  /// recorder, so simulated seconds are identical with tracing on or off.
  void attach_trace(TraceRecorder* trace);
  TraceRecorder* trace() const { return trace_; }

 private:
  void emit_stage_trace(const StageTiming& t,
                        const std::vector<OpCounters>& spe_counters,
                        const OpCounters& ppe_counters, bool overlap_dma,
                        bool had_ppe_work);

  MachineConfig cfg_;
  CostModel model_;
  std::vector<std::unique_ptr<SpeContext>> spes_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace cj2k::cell
