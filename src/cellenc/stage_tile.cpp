#include "cellenc/stage_tile.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "cell/trace.hpp"
#include "cellenc/stage_rate.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "decomp/chunk.hpp"
#include "decomp/work_queue.hpp"
#include "jp2k/codestream.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/t2_encoder.hpp"

namespace cj2k::cellenc {

namespace {

/// Code blocks one tile will contain, from geometry alone — the hull
/// ordinal bases must be known before any tile's Tier-1 runs, whatever the
/// processing order.  Matches make_block_grid's ceil_div grid exactly.
std::size_t blocks_for_geometry(const jp2k::TileRect& r,
                                const jp2k::CodingParams& params,
                                std::size_t ncomp) {
  std::size_t n = 0;
  for (const auto& info : jp2k::subband_layout(r.w, r.h, params.levels)) {
    n += ceil_div(info.w, params.cb_width) * ceil_div(info.h, params.cb_height);
  }
  return n * ncomp;
}

/// Converts a composed stage timing into a pipeline phase.  When the tile
/// owns an SPE group, the whole composed stage time runs on that group: the
/// compose rule already overlaps the stage's PPE assist with its SPE work
/// (seconds = max of the two), and that assist is per-group bookkeeping, not
/// a shared bottleneck.  Only explicitly appended phases (per-tile Tier-2)
/// use the shared serial resource.  A PPE-only group (no SPEs) is all
/// serial: there is genuinely one PPE doing everything.
decomp::PipelinePhase to_phase(const cell::StageTiming& s, int group_spes) {
  decomp::PipelinePhase ph;
  if (group_spes > 0) {
    ph.pool = s.seconds;
  } else {
    ph.serial = s.seconds;
  }
  return ph;
}

}  // namespace

PipelineResult encode_tiled(cell::Machine& machine, const Image& img,
                            const jp2k::CodingParams& params,
                            const PipelineOptions& opt,
                            const jp2k::TileGrid& grid) {
  const std::size_t ntiles = grid.num_tiles();
  const cell::MachineConfig& cfg = machine.config();
  const auto& cp = machine.model().params();
  const double hz = cp.clock_hz;
  PipelineResult res;
  res.tiles = ntiles;

  // --- Carve the pool into tile groups and build one group machine.  The
  // fronts run on it sequentially on the host; concurrency across groups
  // exists only in simulated time (the pipeline replay below), so one
  // machine reproduces every group's counters exactly.
  const decomp::TileGroupPlan gp =
      decomp::plan_tile_groups(ntiles, cfg.num_spes);
  res.tile_groups = gp.groups;
  res.spes_per_group = gp.spes_per_group;

  cell::MachineConfig gcfg = cfg;
  gcfg.num_spes = gp.spes_per_group;
  gcfg.num_ppe_threads = gp.spes_per_group > 0 ? 0 : cfg.num_ppe_threads;
  gcfg.chips = 1;
  gcfg.cost.chip_mem_bw =
      machine.total_mem_bw() / static_cast<double>(gp.groups);
  cell::Machine gmachine(gcfg);

  std::optional<cell::InvariantAudit> audit;
  if (opt.audit.enabled) {
    audit.emplace(opt.audit);
    gmachine.attach_audit(&*audit);
  }

  // Tiled tracing: one recorder sized for the FULL pool serves both the
  // group machine (fronts, SPE indices < spes_per_group) and the full
  // machine (distributed tail).  The SPE/PPE tracks replay the fronts
  // host-sequentially (the order counters are composed in); the driver
  // track additionally shows the pipelined tile-wave schedule, whose
  // makespan — not the track sum — is simulated_seconds.
  std::shared_ptr<cell::TraceRecorder> trec;
  if (opt.trace.enabled) {
    trec = std::make_shared<cell::TraceRecorder>(
        cfg.num_spes, cfg.num_ppe_threads, opt.trace.ring_capacity);
    gmachine.attach_trace(trec.get());
  }

  // --- Host processing order (testing hook; output is independent of it).
  std::vector<std::size_t> order = opt.tile_order;
  if (order.empty()) {
    order.resize(ntiles);
    std::iota(order.begin(), order.end(), std::size_t{0});
  }
  CJ2K_CHECK_MSG(order.size() == ntiles, "tile_order must list every tile");
  {
    std::vector<bool> seen(ntiles, false);
    for (std::size_t k : order) {
      CJ2K_CHECK_MSG(k < ntiles && !seen[k],
                     "tile_order must be a permutation of the tile indices");
      seen[k] = true;
    }
  }

  // HT tiles never take a lossy tail (no truncation points → no PCRD);
  // they flow through the lossless-shaped per-tile Tier-2 pipeline below.
  const bool lossy_tail = jp2k::uses_pcrd_rate_control(params);
  const bool distribute_tail = lossy_tail && opt.parallel_lossy_tail;

  // --- Hull ordinal bases: cumulative block counts in tile-index order
  // (the same bases jp2k::finish_tiles derives from the built tiles), so
  // the merged slope order is a strict total order over the whole image.
  std::vector<std::uint64_t> bases(ntiles, 0);
  {
    std::uint64_t base = 0;
    for (std::size_t i = 0; i < ntiles; ++i) {
      bases[i] = base;
      base += blocks_for_geometry(grid.tile(i), params, img.components());
    }
  }

  // --- Run every tile's front on the group machine, tagged with its tile
  // index so strict-audit reports name the offending tile.
  std::vector<TileFrontResult> fronts(ntiles);
  std::vector<HullCapture> hulls(ntiles);
  for (std::size_t k : order) {
    cell::AuditTileScope tile_scope(static_cast<int>(k));
    const jp2k::TileRect rect = grid.tile(k);
    const Image timg = jp2k::extract_tile(img, rect);
    hulls[k].wavelet = params.wavelet;
    hulls[k].ordinal_base = bases[k];
    fronts[k] = encode_tile_front(gmachine, timg, params, opt,
                                  distribute_tail ? &hulls[k] : nullptr);
    res.t1_symbols += fronts[k].t1_symbols;
    res.hull_extra_seconds += fronts[k].hull_extra_seconds;
    res.hull_serial_seconds += fronts[k].hull_serial_seconds;
    if (trec) {
      char args[48];
      std::snprintf(args, sizeof args, "\"tile\":%zu", k);
      trec->emit_instant(trec->driver_track(), "tile front done", "tile",
                         trec->clock(), args);
    }
  }

  // --- Aggregate the per-tile stage ledgers (index order) for reporting.
  res.stages = fronts[0].stages;
  for (std::size_t i = 1; i < ntiles; ++i) {
    for (std::size_t s = 0; s < res.stages.size(); ++s) {
      res.stages[s] += fronts[i].stages[s];
      res.stages[s].name = fronts[i].stages[s].name;
    }
  }

  // --- Pipeline phase lists, one item per tile in processing order.
  std::vector<std::vector<decomp::PipelinePhase>> items(ntiles);
  for (std::size_t j = 0; j < ntiles; ++j) {
    for (const auto& s : fronts[order[j]].stages) {
      items[j].push_back(to_phase(s, gp.spes_per_group));
    }
  }

  // Tile-wave boundaries on the driver track: per-tile finish instants of
  // the pipelined replay plus one span over its makespan.
  auto emit_waves = [&](const decomp::PipelineSchedule& ps) {
    if (!trec) return;
    char args[64];
    for (std::size_t j = 0; j < ntiles; ++j) {
      std::snprintf(args, sizeof args, "\"tile\":%zu,\"group\":%zu", order[j],
                    ps.item_group[j]);
      trec->emit_instant(trec->driver_track(), "tile wave finish", "tile",
                         ps.item_finish[j], args);
    }
    std::snprintf(args, sizeof args, "\"tiles\":%zu,\"groups\":%zu", ntiles,
                  gp.groups);
    trec->emit_span(trec->driver_track(), "tile schedule (pipelined)", "tile",
                    0.0, ps.makespan, args);
  };

  if (distribute_tail) {
    // --- Distributed lossy tail over the FULL pool: the fronts' waves are
    // a barrier (the global slope merge needs every tile's segments), then
    // one merge + scan + precinct-parallel Tier-2 across all tiles.
    const auto front_sched = decomp::schedule_pipeline(items, gp.groups);
    const double front_makespan = front_sched.makespan;
    emit_waves(front_sched);
    if (trec) {
      gmachine.attach_trace(nullptr);
      machine.attach_trace(trec.get());
      trec->set_clock(std::max(trec->clock(), front_makespan));
    }

    HullCapture merged;
    merged.wavelet = params.wavelet;
    for (std::size_t i = 0; i < ntiles; ++i) {
      for (auto& l : hulls[i].worker_lists) {
        merged.worker_lists.push_back(std::move(l));
      }
      merged.stats.passes_considered += hulls[i].stats.passes_considered;
      merged.stats.hull_points += hulls[i].stats.hull_points;
    }

    std::vector<jp2k::Tile*> ptrs;
    ptrs.reserve(ntiles);
    for (auto& f : fronts) ptrs.push_back(&f.tile);
    RateTailOptions tail_opts;
    tail_opts.overlap = opt.overlap_lossy_tail;
    LossyTailResult tail = stage_rate_tail_tiles(machine, grid, ptrs, img,
                                                 params, merged, tail_opts);
    res.codestream = std::move(tail.codestream);
    res.stages.push_back(tail.rate_timing);
    res.stages.push_back(tail.t2_timing);
    res.serial_rate_seconds = tail.serial_rate_seconds;
    res.serial_t2_seconds = tail.serial_t2_seconds;
    res.rate_stats = std::move(tail.stats);
    res.simulated_seconds =
        front_makespan + tail.rate_timing.seconds + tail.t2_timing.seconds;
    // The distributed tail occupies the full pool (merge + scan +
    // precinct-parallel Tier-2): a pool-side barrier phase for the service.
    res.tail_phase.pool = tail.rate_timing.seconds + tail.t2_timing.seconds;
  } else if (lossy_tail) {
    // --- Serial baseline tail after the front barrier: cross-tile rate
    // allocation + per-tile Tier-2 on the PPE, charged from its reported
    // work quantities (mirrors the single-tile serial baseline).
    const auto front_sched = decomp::schedule_pipeline(items, gp.groups);
    const double front_makespan = front_sched.makespan;
    emit_waves(front_sched);

    std::vector<jp2k::Tile> tiles;
    tiles.reserve(ntiles);
    for (auto& f : fronts) tiles.push_back(std::move(f.tile));
    jp2k::EncodeStats fstats;
    res.codestream = jp2k::finish_tiles(tiles, grid, img, params, &fstats);

    auto serial_stage = [&](cell::StageTiming& t, const char* span) {
      t.seconds = t.ppe;
      t.stall.ppe_serial = t.seconds;
      if (trec && t.seconds > 0) {
        const double t0 = trec->clock();
        trec->emit_span(trec->ppe_track(0), span, "ppe", t0, t.seconds);
        trec->emit_span(trec->driver_track(), t.name.c_str(), "stage", t0,
                        t.seconds);
        trec->advance_clock(t.seconds);
      }
    };

    cell::StageTiming rate_t;
    rate_t.name = "rate";
    rate_t.wall_seconds = fstats.rate_seconds;
    rate_t.ppe = static_cast<double>(fstats.rate.passes_considered) *
                 cp.ppe_rate_cycles_per_pass / hz;
    serial_stage(rate_t, "rate (ppe serial)");
    res.stages.push_back(rate_t);
    res.serial_rate_seconds = rate_t.seconds;

    cell::StageTiming t2_t;
    t2_t.name = "t2";
    t2_t.wall_seconds = fstats.t2_seconds;
    t2_t.ppe = static_cast<double>(res.codestream.size()) *
               cp.ppe_t2_cycles_per_byte / hz;
    serial_stage(t2_t, "t2 (ppe serial)");
    res.stages.push_back(t2_t);
    res.serial_t2_seconds = t2_t.seconds;

    res.simulated_seconds = front_makespan + rate_t.seconds + t2_t.seconds;
  } else {
    // --- Lossless tail: each tile's Tier-2 is an independent serial PPE
    // slot appended to that tile's phase list, so it pipelines under later
    // tiles' SPE work instead of stacking at the end.
    std::vector<std::vector<std::uint8_t>> packets(ntiles);
    const std::size_t bands =
        jp2k::subband_layout(grid.tile(0).w, grid.tile(0).h, params.levels)
            .size();
    const std::size_t overhead =
        jp2k::tile_part_overhead_bytes(img.components(), bands);
    Timer t2_wall;
    cell::StageTiming t2_t;
    t2_t.name = "t2";
    for (std::size_t j = 0; j < ntiles; ++j) {
      const std::size_t k = order[j];
      packets[k] = jp2k::t2_encode(fronts[k].tile);
      decomp::PipelinePhase ph;
      ph.serial = static_cast<double>(packets[k].size() + overhead) *
                  cp.ppe_t2_cycles_per_byte / hz;
      items[j].push_back(ph);
      t2_t.ppe += ph.serial;
    }
    t2_t.seconds = t2_t.ppe;
    t2_t.stall.ppe_serial = t2_t.seconds;
    res.stages.push_back(t2_t);
    if (trec && t2_t.seconds > 0) {
      const double t0 = trec->clock();
      trec->emit_span(trec->ppe_track(0), "t2 (ppe serial)", "ppe", t0,
                      t2_t.seconds);
      trec->emit_span(trec->driver_track(), "t2", "stage", t0, t2_t.seconds);
      trec->advance_clock(t2_t.seconds);
    }

    std::vector<const jp2k::Tile*> cptrs;
    cptrs.reserve(ntiles);
    for (const auto& f : fronts) cptrs.push_back(&f.tile);
    res.codestream =
        jp2k::frame_codestream_tiles(cptrs, grid, img, params, packets);
    res.stages.back().wall_seconds = t2_wall.seconds();

    const auto full_sched = decomp::schedule_pipeline(items, gp.groups);
    emit_waves(full_sched);
    res.simulated_seconds = full_sched.makespan;
  }

  // Service view (DESIGN.md §12): per-tile {pool, serial} items in
  // tile-index order (the lossless branch already appended each tile's
  // serial Tier-2 phase above).  Lossy runs additionally carry the
  // cross-tile rate/Tier-2 tail as the barrier phase — pool-side for the
  // distributed tail (set in its branch above), serial for the baseline.
  res.tile_items.assign(ntiles, decomp::PipelinePhase{});
  for (std::size_t j = 0; j < ntiles; ++j) {
    decomp::PipelinePhase it;
    for (const auto& ph : items[j]) {
      it.pool += ph.pool;
      it.serial += ph.serial;
    }
    res.tile_items[order[j]] = it;
  }
  if (lossy_tail && !distribute_tail) {
    res.tail_phase.serial = res.serial_rate_seconds + res.serial_t2_seconds;
  }

  for (const auto& s : res.stages) {
    res.dma_bytes += s.dma_bytes;
    res.overlap_saved_seconds += s.overlap_saved;
    res.dma_overlap_saved_seconds += s.dma_overlap_saved;
  }
  if (audit) {
    res.audit = audit->report();
    gmachine.attach_audit(nullptr);
  }
  if (trec) {
    gmachine.attach_trace(nullptr);
    machine.attach_trace(nullptr);
    res.trace = std::move(trec);
  }
  return res;
}

}  // namespace cj2k::cellenc
