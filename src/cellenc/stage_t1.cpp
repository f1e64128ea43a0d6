#include "cellenc/stage_t1.hpp"

#include <algorithm>
#include <cstdio>

#include "cell/trace.hpp"
#include "common/error.hpp"
#include "decomp/host_pool.hpp"
#include "decomp/work_queue.hpp"
#include "jp2k/ht_block.hpp"
#include "jp2k/t1_encoder.hpp"

namespace cj2k::cellenc {

namespace {

struct BlockRef {
  jp2k::Subband* sb;
  jp2k::CodeBlock* cb;
  std::size_t component;
  double hull_weight;  ///< Subband distortion weight for the R-D hull.
};

/// Modeled DMA footprint of shipping a block's pass records to the hull
/// builder and its hull segments back (Pass: trunc_len + dist_reduction).
constexpr std::uint64_t kPassRecordBytes = 16;
constexpr std::uint64_t kHullSegmentBytes = 32;

}  // namespace

T1StageResult stage_t1(cell::Machine& m, jp2k::Tile& tile,
                       const std::vector<Span2d<const Sample>>& coeff_planes,
                       T1Distribution dist, const jp2k::T1Options& t1opt,
                       HullCapture* hulls, jp2k::BlockCoder coder) {
  CJ2K_CHECK(coeff_planes.size() == tile.components.size());
  CJ2K_CHECK_MSG(!(hulls && coder == jp2k::BlockCoder::kHt),
                 "HT blocks have no truncation points to build hulls over");

  // Flatten the block list (the work queue's contents).  The flattening
  // order is the canonical tile traversal, so the index doubles as the
  // deterministic hull-segment ordinal.
  std::vector<BlockRef> blocks;
  for (std::size_t c = 0; c < tile.components.size(); ++c) {
    for (auto& sb : tile.components[c].subbands) {
      const double w = hulls ? jp2k::hull_weight(sb, hulls->wavelet,
                                                 tile.levels)
                             : 0.0;
      for (auto& cb : sb.blocks) blocks.push_back({&sb, &cb, c, w});
    }
  }

  // Host-parallel encode on the shared pool's work queue.  Each slot keeps
  // a private hull-segment list (sorted once the blocks are done) so hull
  // construction needs no synchronization and overlaps blocks still being
  // T1-coded; the rate stage's merge orders segments by a total tiebreak, so
  // the number of lists never shows in the output.
  const std::size_t slots = decomp::host_slots();
  if (hulls) {
    hulls->worker_lists.assign(slots, {});
    hulls->stats = {};
  }
  std::vector<jp2k::RateControlStats> slot_stats(slots);
  decomp::parallel_for(blocks.size(), [&](std::size_t idx, std::size_t slot) {
    BlockRef& br = blocks[idx];
    const auto view = coeff_planes[br.component].subview(
        br.sb->info.x0 + br.cb->x0, br.sb->info.y0 + br.cb->y0, br.cb->w,
        br.cb->h);
    br.cb->enc = coder == jp2k::BlockCoder::kHt
                     ? jp2k::ht_encode_block(view)
                     : jp2k::t1_encode_block(view, br.sb->info.orient, t1opt);
    br.cb->include_all();
    if (hulls) {
      jp2k::build_block_hull(*br.cb, br.hull_weight, hulls->ordinal_base + idx,
                             hulls->worker_lists[slot], &slot_stats[slot]);
    }
  });
  if (hulls) {
    decomp::parallel_for(slots, [&](std::size_t s, std::size_t) {
      std::sort(hulls->worker_lists[s].begin(), hulls->worker_lists[s].end(),
                jp2k::hull_segment_before);
    });
    for (const auto& ss : slot_stats) {
      hulls->stats.passes_considered += ss.passes_considered;
      hulls->stats.hull_points += ss.hull_points;
    }
  }

  // Band bit-plane maxima (needed by Tier-2).
  for (auto& tc : tile.components) {
    for (auto& sb : tc.subbands) {
      int numbps = 0;
      for (const auto& cb : sb.blocks) {
        numbps = std::max(numbps, cb.enc.num_bitplanes);
      }
      sb.band_numbps = numbps;
    }
  }

  // Virtual-time replay: SPE and PPE workers with their per-symbol speeds;
  // with hull capture, each block carries a per-pass hull tail executed on
  // the same worker (fused schedule).
  const auto& cp = m.model().params();
  const bool ht = coder == jp2k::BlockCoder::kHt;
  // EBCOT cost is per MQ symbol; HT cost is per coded sample (and
  // T1EncodedBlock::total_symbols counts exactly that for HT blocks).
  const double spe_unit =
      ht ? cp.spe_ht_cycles_per_sample : cp.spe_t1_cycles_per_symbol;
  const double ppe_unit =
      ht ? cp.ppe_ht_cycles_per_sample : cp.ppe_t1_cycles_per_symbol;
  std::vector<double> speed;  // seconds per symbol
  decomp::ItemTail hull;      // coding passes per block, seconds per pass
  for (int i = 0; i < m.num_spes(); ++i) {
    speed.push_back(spe_unit / cp.clock_hz);
    hull.speed_factor.push_back(cp.spe_rate_hull_cycles_per_pass /
                                cp.clock_hz);
  }
  for (int i = 0; i < m.num_ppe_threads(); ++i) {
    speed.push_back(ppe_unit / cp.clock_hz);
    hull.speed_factor.push_back(cp.ppe_rate_hull_cycles_per_pass /
                                cp.clock_hz);
  }
  CJ2K_CHECK_MSG(!speed.empty(), "T1 needs at least one processing element");

  std::vector<double> cost;  // symbols per block
  cost.reserve(blocks.size());
  hull.cost.reserve(blocks.size());
  T1StageResult res;
  std::uint64_t dma_bytes = 0;
  std::uint64_t total_passes = 0;
  for (const auto& br : blocks) {
    cost.push_back(static_cast<double>(br.cb->enc.total_symbols));
    hull.cost.push_back(static_cast<double>(br.cb->enc.passes.size()));
    total_passes += br.cb->enc.passes.size();
    res.total_symbols += br.cb->enc.total_symbols;
    dma_bytes += static_cast<std::uint64_t>(br.cb->w) * br.cb->h *
                 sizeof(Sample)              // coefficients in
                 + br.cb->enc.data.size();   // codeword out
  }
  res.total_blocks = blocks.size();
  if (hulls) {
    // Pass records in, hull segments out of the Local Store.
    dma_bytes += total_passes * kPassRecordBytes +
                 hulls->stats.hull_points * kHullSegmentBytes;
  }

  const auto queue_sched = decomp::schedule_virtual(cost, speed);
  const auto static_sched = decomp::schedule_static(cost, speed);
  res.queue_makespan = queue_sched.makespan;
  res.static_makespan = static_sched.makespan;

  const bool queue = dist == T1Distribution::kWorkQueue;
  decomp::Schedule chosen = queue ? queue_sched : static_sched;
  const bool fused_tails = hulls != nullptr;
  if (fused_tails) {
    const double plain_makespan = chosen.makespan;
    chosen = queue ? decomp::schedule_virtual(cost, speed, hull)
                   : decomp::schedule_static(cost, speed, hull);
    res.hull_extra_seconds = chosen.makespan - plain_makespan;
    res.hull_serial_seconds = static_cast<double>(total_passes) *
                              cp.ppe_rate_hull_cycles_per_pass / cp.clock_hz;
  }
  const double chosen_makespan = chosen.makespan;

  res.timing.name = "tier1";
  res.timing.dma_bytes = dma_bytes;
  res.timing.dma_aggregate =
      static_cast<double>(dma_bytes) / m.total_mem_bw();
  res.timing.spe_compute = chosen_makespan;
  // Computation dominates Tier-1 (high compute-to-communication ratio,
  // paper §3.2); DMA overlaps under double buffering — the work queue's
  // block fetches are tag-grouped gets prefetched behind coding, so the
  // stage costs max() rather than the serial sum, and the difference is
  // the overlap credit.
  res.timing.seconds = std::max(chosen_makespan, res.timing.dma_aggregate);
  res.timing.dma_overlap_saved =
      std::min(chosen_makespan, res.timing.dma_aggregate);

  // Stall attribution (DESIGN.md §11): busy is the pool-averaged replayed
  // worker time; idle up to the makespan is a drained queue (the FIFO
  // replay has no mid-stream gaps — workers go idle only when the queue
  // runs out), idle beyond it is the aggregate-bandwidth ceiling.
  const double nworkers = static_cast<double>(speed.size());
  double busy_sum = 0.0;
  for (double wt : chosen.worker_time) busy_sum += wt;
  res.timing.stall.busy = busy_sum / nworkers;
  res.timing.stall.queue_empty = chosen_makespan - res.timing.stall.busy;
  res.timing.stall.dma_wait = res.timing.seconds - chosen_makespan;

  if (cell::TraceRecorder* rec = m.trace()) {
    const double t0 = rec->clock();
    const int nspes = m.num_spes();
    const double bw_tail = res.timing.seconds - chosen_makespan;
    auto worker_track = [&](int w) {
      return w < nspes ? rec->spe_track(w) : rec->ppe_track(w - nspes);
    };
    char args[128];
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const int w = chosen.assignment[i];
      const std::size_t wi = static_cast<std::size_t>(w);
      double dur = cost[i] * speed[wi];
      if (fused_tails) dur += hull.cost[i] * hull.speed_factor[wi];
      std::snprintf(args, sizeof args,
                    "\"block\":%zu,\"symbols\":%.0f,\"passes\":%.0f", i,
                    cost[i], hull.cost[i]);
      rec->emit_span(worker_track(w),
                     fused_tails ? "t1 block + hull" : "t1 block", "t1",
                     t0 + chosen.item_finish[i] - dur, dur, args);
    }
    for (std::size_t w = 0; w < chosen.worker_time.size(); ++w) {
      const int track = worker_track(static_cast<int>(w));
      const double gap = chosen_makespan - chosen.worker_time[w];
      if (gap > 1e-12) {
        rec->emit_span(track, "stall: queue-empty", "stall",
                       t0 + chosen.worker_time[w], gap);
      }
      if (bw_tail > 1e-12) {
        rec->emit_span(track, "stall: dma-wait", "stall",
                       t0 + chosen_makespan, bw_tail);
      }
    }
    std::snprintf(args, sizeof args,
                  "\"blocks\":%zu,\"symbols\":%llu,\"queue_makespan_s\":%.9g,"
                  "\"static_makespan_s\":%.9g",
                  blocks.size(),
                  static_cast<unsigned long long>(res.total_symbols),
                  res.queue_makespan, res.static_makespan);
    rec->emit_span(rec->driver_track(), "tier1", "stage", t0,
                   res.timing.seconds, args);
    rec->advance_clock(res.timing.seconds);
  }
  return res;
}

}  // namespace cj2k::cellenc
