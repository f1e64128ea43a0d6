#include "cell/machine.hpp"

#include <algorithm>
#include <cstdio>

#include "cell/trace.hpp"
#include "common/error.hpp"
#include "decomp/host_pool.hpp"

namespace cj2k::cell {

Machine::Machine(const MachineConfig& cfg) : cfg_(cfg), model_(cfg.cost) {
  CJ2K_CHECK_MSG(cfg.num_spes >= 0 && cfg.num_spes <= 64,
                 "SPE count out of range");
  CJ2K_CHECK_MSG(cfg.num_ppe_threads >= 0 && cfg.num_ppe_threads <= 8,
                 "PPE thread count out of range");
  CJ2K_CHECK_MSG(cfg.chips >= 1 && cfg.chips <= 8, "chip count out of range");
  spes_.reserve(static_cast<std::size_t>(cfg.num_spes));
  for (int i = 0; i < cfg.num_spes; ++i) {
    spes_.push_back(std::make_unique<SpeContext>());
  }
}

void Machine::attach_audit(InvariantAudit* audit) {
  for (auto& s : spes_) {
    s->dma.attach_audit(audit);
    s->ls.attach_audit(audit);
  }
}

void Machine::attach_trace(TraceRecorder* trace) {
  trace_ = trace;
  for (int i = 0; i < cfg_.num_spes; ++i) {
    spes_[static_cast<std::size_t>(i)]->dma.attach_trace(
        trace == nullptr ? nullptr : &trace->dma_log(i));
  }
}

StageTiming Machine::run_data_parallel(
    const std::string& name,
    const std::function<void(int, SpeContext&)>& spe_work,
    const std::function<void(OpCounters&)>& ppe_work, bool overlap_dma) {
  for (int i = 0; i < cfg_.num_spes; ++i) {
    SpeContext& s = *spes_[static_cast<std::size_t>(i)];
    s.counters.reset();
    s.ls.reset();
    s.dma.reset_tags();
    if (trace_ != nullptr) trace_->dma_log(i).clear();
  }
  OpCounters ppe_counters;

  // Thread-local job/tile provenance does not follow work onto pool
  // threads; carry the caller's scopes into each task by hand.
  const int tile_idx = AuditTileScope::current();
  const int job_idx = AuditJobScope::current();

  // One task per SPE, plus one for the PPE-side worker when there is one.
  // The pool rethrows the first failure with its original type.
  const auto nspes = static_cast<std::size_t>(cfg_.num_spes);
  decomp::parallel_for(
      nspes + (ppe_work ? 1 : 0), [&](std::size_t i, std::size_t) {
        AuditJobScope job(job_idx);
        AuditTileScope tile(tile_idx);
        AuditSiteScope site(name.c_str());
        if (i == nspes) {
          ppe_work(ppe_counters);
          return;
        }
        SpeContext& s = *spes_[i];
        spe_work(static_cast<int>(i), s);
        // Epilogue check while the site scope is live: a kernel that
        // returns with tags in flight is a tag-discipline hazard.
        s.dma.finish_kernel();
      });

  std::vector<OpCounters> spe_counts;
  spe_counts.reserve(spes_.size());
  for (auto& s : spes_) spe_counts.push_back(s->counters);
  StageTiming t = compose(name, spe_counts, {ppe_counters}, overlap_dma);
  if (trace_ != nullptr) {
    emit_stage_trace(t, spe_counts, ppe_counters, overlap_dma,
                     static_cast<bool>(ppe_work));
  }
  return t;
}

StageTiming Machine::compose(const std::string& name,
                             const std::vector<OpCounters>& spe_counters,
                             const std::vector<OpCounters>& ppe_counters,
                             bool overlap_dma) const {
  StageTiming t;
  t.name = name;

  double worst_spe = 0.0;
  double worst_spe_serial = 0.0;
  double compute_sum = 0.0;
  double exposed_sum = 0.0;
  std::uint64_t total_eff_bytes = 0;
  for (const auto& c : spe_counters) {
    const double compute = model_.spe_seconds(c);
    const double dma = model_.spe_dma_seconds(c);
    t.spe_compute = std::max(t.spe_compute, compute);
    t.spe_dma = std::max(t.spe_dma, dma);
    // Only the tagged (asynchronous) share of the traffic hides behind
    // compute; synchronous transfers stall the SPE either way.
    const double spe_time = model_.spe_busy_seconds(c, overlap_dma);
    worst_spe = std::max(worst_spe, spe_time);
    worst_spe_serial = std::max(worst_spe_serial, compute + dma);
    compute_sum += compute;
    exposed_sum += spe_time - compute;  // DMA latency the SPE actually ate.
    total_eff_bytes += model_.effective_dma_bytes(c);
    t.dma_bytes += c.dma_bytes();
  }
  for (const auto& c : ppe_counters) {
    t.ppe = std::max(t.ppe, model_.ppe_seconds(c));
  }
  t.dma_aggregate = static_cast<double>(total_eff_bytes) / total_mem_bw();
  t.seconds = std::max({worst_spe, t.dma_aggregate, t.ppe});
  if (overlap_dma) {
    // What the stage would have cost with every transfer synchronous —
    // the double-buffering credit reported per stage and in BENCH_JSON.
    t.dma_overlap_saved =
        std::max({worst_spe_serial, t.dma_aggregate, t.ppe}) - t.seconds;
  }

  // Stall attribution (DESIGN.md §11): pool-averaged shares that sum to
  // `seconds` by construction.  The residual idle — time the average SPE
  // spent waiting for the stage to end — is charged to whichever resource
  // set the stage length: the PPE (serial section), the memory bus
  // (aggregate-bandwidth ceiling), or, when the slowest SPE set it, load
  // imbalance, which this taxonomy files under queue-empty.
  const std::size_t n = spe_counters.size();
  if (n == 0 || t.seconds <= 0.0) {
    t.stall.ppe_serial = t.seconds;
  } else {
    t.stall.busy = compute_sum / static_cast<double>(n);
    t.stall.dma_wait = exposed_sum / static_cast<double>(n);
    const double idle = t.seconds - t.stall.busy - t.stall.dma_wait;
    if (idle > 0.0) {
      if (t.ppe > worst_spe && t.ppe >= t.dma_aggregate) {
        t.stall.ppe_serial = idle;
      } else if (t.dma_aggregate > worst_spe) {
        t.stall.dma_wait += idle;
      } else {
        t.stall.queue_empty = idle;
      }
    } else {
      t.stall.busy += idle;  // Floating-point residue; keep the sum exact.
    }
  }
  return t;
}

void Machine::emit_stage_trace(const StageTiming& t,
                               const std::vector<OpCounters>& spe_counters,
                               const OpCounters& ppe_counters,
                               bool overlap_dma, bool had_ppe_work) {
  TraceRecorder& rec = *trace_;
  const double t0 = rec.clock();
  // The residual-idle reason for every SPE in this stage mirrors the
  // compose() attribution above.
  const char* idle_name = "stall: queue-empty";
  if (t.stall.ppe_serial > 0.0) {
    idle_name = "stall: ppe-serial";
  } else if (t.seconds > t.spe_compute &&
             t.dma_aggregate >= t.seconds - 1e-15) {
    idle_name = "stall: dma-wait";
  }
  char args[192];
  for (std::size_t i = 0; i < spe_counters.size(); ++i) {
    const OpCounters& c = spe_counters[i];
    const double compute = model_.spe_seconds(c);
    const double dma = model_.spe_dma_seconds(c);
    const double busy = model_.spe_busy_seconds(c, overlap_dma);
    const int track = rec.spe_track(static_cast<int>(i));
    if (busy > 0.0) {
      const double exposed = busy - compute;
      std::snprintf(args, sizeof args,
                    "\"compute_s\":%.9g,\"dma_s\":%.9g,"
                    "\"dma_hidden_s\":%.9g,\"dma_exposed_s\":%.9g,"
                    "\"dma_bytes\":%llu",
                    compute, dma, dma - exposed, exposed,
                    static_cast<unsigned long long>(c.dma_bytes()));
      rec.emit_span(track, t.name, "stage", t0, busy, args);
      rec.flush_dma_log(static_cast<int>(i), t0, busy);
    }
    const double idle = t.seconds - busy;
    if (idle > 1e-12) {
      rec.emit_span(track, idle_name, "stall", t0 + busy, idle);
    }
  }
  const double ppe = model_.ppe_seconds(ppe_counters);
  if (had_ppe_work && ppe > 0.0) {
    rec.emit_span(rec.ppe_track(0), t.name + " (ppe)", "stage", t0, ppe);
  }
  std::snprintf(args, sizeof args,
                "\"seconds\":%.9g,\"dma_aggregate_s\":%.9g,"
                "\"dma_overlap_saved_s\":%.9g,\"dma_bytes\":%llu",
                t.seconds, t.dma_aggregate, t.dma_overlap_saved,
                static_cast<unsigned long long>(t.dma_bytes));
  rec.emit_span(rec.driver_track(), t.name, "stage", t0, t.seconds, args);
  rec.advance_clock(t.seconds);
}

}  // namespace cj2k::cell
