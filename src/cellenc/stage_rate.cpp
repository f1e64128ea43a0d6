#include "cellenc/stage_rate.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "cell/trace.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "decomp/work_queue.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/t2_encoder.hpp"
#include "jp2k/t2_walk.hpp"

namespace cj2k::cellenc {

namespace {

/// Modeled DMA footprint of one hull segment shipped from a worker's Local
/// Store to the PPE's merge, and of a packet byte moved during assembly.
constexpr std::uint64_t kHullSegmentBytes = 32;

/// Per-block bookkeeping ops charged per refinement iteration (selection
/// reset + per-layer freeze writes).
double reset_cycles_per_block(int layers) {
  return 4.0 + static_cast<double>(layers);
}

}  // namespace

LossyTailResult stage_rate_tail(cell::Machine& m, jp2k::Tile& tile,
                                const Image& img,
                                const jp2k::CodingParams& params,
                                HullCapture& hulls) {
  const jp2k::TileGrid grid =
      jp2k::TileGrid::plan(img.width(), img.height(), 1, 1);
  return stage_rate_tail_tiles(m, grid, {&tile}, img, params, hulls);
}

LossyTailResult stage_rate_tail_tiles(cell::Machine& m,
                                      const jp2k::TileGrid& grid,
                                      const std::vector<jp2k::Tile*>& tiles,
                                      const Image& img,
                                      const jp2k::CodingParams& params,
                                      HullCapture& hulls) {
  CJ2K_CHECK_MSG(params.rate > 0.0 || params.layers > 1,
                 "lossy tail needs a rate target or multiple layers");
  CJ2K_CHECK_MSG(tiles.size() == grid.num_tiles(),
                 "one built tile per grid rect");
  const auto& cp = m.model().params();
  const double hz = cp.clock_hz;
  LossyTailResult res;
  Timer wall;

  std::uint64_t nsegs = 0;
  for (const auto& l : hulls.worker_lists) nsegs += l.size();
  std::uint64_t nblocks = 0;
  for (const jp2k::Tile* tp : tiles) nblocks += jp2k::tile_block_count(*tp);

  // --- Slope merge: K sorted worker lists -> the global slope order.
  // Serial on the PPE, but O(S log K) instead of the serial sort's
  // O(S log S); charged per emitted segment.  On a multi-tile encode the
  // lists carry every tile's segments, so one merge yields the image-wide
  // order a single global λ needs.
  const auto segments = jp2k::merge_segment_lists(std::move(hulls.worker_lists));

  // Block -> precinct-stream index over the flattened (tile-major,
  // component-major, resolution-minor) part order, and the merged-order
  // index of each part's *last* hull segment — the scan position at which
  // that part's truncation points are final, i.e. its sizing release gate.
  std::unordered_map<const jp2k::CodeBlock*, std::size_t> block_part;
  block_part.reserve(static_cast<std::size_t>(nblocks));
  std::size_t part_count = 0;
  for (const jp2k::Tile* tp : tiles) {
    const std::size_t base = part_count;
    const auto nres = static_cast<std::size_t>(tp->levels + 1);
    for (std::size_t c = 0; c < tp->components.size(); ++c) {
      for (const auto& sb : tp->components[c].subbands) {
        const auto r = static_cast<std::size_t>(
            jp2k::resolution_of(sb, tp->levels));
        for (const auto& cb : sb.blocks) {
          block_part.emplace(&cb, base + c * nres + r);
        }
      }
    }
    part_count += tp->components.size() * nres;
  }
  std::vector<std::size_t> part_gate(part_count, 0);  // segments to wait for
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const auto it = block_part.find(segments[s].block);
    CJ2K_CHECK_MSG(it != block_part.end(), "hull segment outside the tiles");
    part_gate[it->second] = s + 1;  // ascending s keeps the max
  }

  // --- Greedy λ-threshold scan + budget refinement (the shared allocation
  // core mirrors jp2k::finish_tiles so the selection — and
  // therefore the codestream — is byte-identical to the serial reference).
  // The sizing hook codes each iteration's selection precinct-parallel and
  // keeps the per-iteration part sizes for the cost model, plus the last
  // pass's coded streams for reuse by the final assembly.
  std::vector<std::vector<double>> iter_part_bytes;
  std::vector<std::vector<jp2k::T2PrecinctStream>> last_parts;
  const jp2k::SizingFn sizer = [&](int) -> std::size_t {
    std::vector<double> bytes;
    bytes.reserve(part_count);
    std::size_t total = 0;
    std::vector<std::vector<jp2k::T2PrecinctStream>> pass;
    pass.reserve(tiles.size());
    for (jp2k::Tile* tp : tiles) {
      pass.push_back(jp2k::t2_encode_precincts(*tp, /*parallel=*/true));
      for (const auto& ps : pass.back()) {
        bytes.push_back(static_cast<double>(ps.total_bytes));
        total += ps.total_bytes;
      }
    }
    iter_part_bytes.push_back(std::move(bytes));
    last_parts = std::move(pass);
    return total;
  };
  res.stats = jp2k::allocate_rate_across_tiles(tiles, img, params, segments,
                                               hulls.stats, sizer);
  res.rate_timing.wall_seconds = wall.seconds();
  wall.reset();

  // --- Final Tier-2 assembly.  With a rate target the last sizing pass
  // already coded the final selection, so its precinct streams are reused
  // (a pure layer ladder must recode them, because
  // force_lossless_final_layer mutates the selection after allocation).
  // Otherwise the streams are coded on the host pool and then stitched;
  // the streaming stitch that overlaps the two exists only on the virtual
  // clock (the hand-off replay below).
  const bool reuse_parts = params.rate > 0.0 && !last_parts.empty();
  std::vector<std::vector<jp2k::T2PrecinctStream>> parts;
  if (reuse_parts) {
    parts = std::move(last_parts);
  } else {
    parts.reserve(tiles.size());
    for (jp2k::Tile* tp : tiles) {
      parts.push_back(jp2k::t2_encode_precincts(*tp, /*parallel=*/true));
    }
  }
  std::vector<std::vector<std::uint8_t>> packets;
  packets.reserve(tiles.size());
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    packets.push_back(jp2k::t2_stitch(*tiles[t], parts[t]));
  }
  const std::vector<const jp2k::Tile*> cptrs(tiles.begin(), tiles.end());
  res.codestream =
      jp2k::frame_codestream_tiles(cptrs, grid, img, params, packets);

  // --- Simulated timing ----------------------------------------------------
  // Worker pool for precinct coding: SPEs + PPE threads with their own
  // per-byte speeds (T2 is branchy bit-packing — the SPE is the slower
  // element, as with Tier-1).
  std::vector<double> t2_speed;
  for (int i = 0; i < m.num_spes(); ++i) {
    t2_speed.push_back(cp.spe_t2_cycles_per_byte / hz);
  }
  for (int i = 0; i < m.num_ppe_threads(); ++i) {
    t2_speed.push_back(cp.ppe_t2_cycles_per_byte / hz);
  }
  if (t2_speed.empty()) t2_speed.push_back(cp.ppe_t2_cycles_per_byte / hz);

  const int layers = tiles.front()->layers;
  const double reset_sec =
      static_cast<double>(nblocks) * reset_cycles_per_block(layers) / hz;
  const double seg_sec = cp.ppe_rate_scan_cycles_per_seg / hz;
  const double merge_sec =
      static_cast<double>(nsegs) * cp.ppe_merge_cycles_per_seg / hz;

  cell::TraceRecorder* trc = m.trace();
  const int nspes = m.num_spes();
  auto worker_track = [&](int w) {
    return w < nspes ? trc->spe_track(w) : trc->ppe_track(w - nspes);
  };
  char targs[112];
  const double rate_t0 = trc != nullptr ? trc->clock() : 0.0;
  double cursor = rate_t0 + merge_sec;
  if (trc != nullptr && merge_sec > 0.0) {
    std::snprintf(targs, sizeof targs, "\"segments\":%llu",
                  static_cast<unsigned long long>(nsegs));
    trc->emit_span(trc->ppe_track(0), "rate: k-way merge", "rate", rate_t0,
                   merge_sec, targs);
  }

  // Per-iteration rate model, charged with what each iteration actually
  // did: the scan walks `segments_consumed` segments after the per-block
  // reset, and the sizing pass codes that iteration's (not the final)
  // precinct sizes.  A precinct's sizing job is released once the scan
  // passes its gate (or stops), so the iteration span is
  // max(scan finish, released-sizing makespan); phase-ordered they add.
  CJ2K_CHECK_MSG(
      iter_part_bytes.size() == res.stats.scan_iterations.size(),
      "one sizing pass per recorded scan iteration");
  double scan_ppe = 0;       // Serial scan time, summed over iterations.
  double sizing_phase = 0;   // Phase-ordered sizing makespans.
  double span_overlap = 0;   // Overlapped per-iteration spans.
  double sizing_busy_sum = 0;  // Released-sizing worker seconds.
  for (std::size_t i = 0; i < iter_part_bytes.size(); ++i) {
    const auto& rec = res.stats.scan_iterations[i];
    const double scan_finish =
        reset_sec + static_cast<double>(rec.segments_consumed) * seg_sec;
    scan_ppe += scan_finish;
    const auto& bytes = iter_part_bytes[i];
    const auto phase_sched = decomp::schedule_virtual(bytes, t2_speed);
    sizing_phase += phase_sched.makespan;
    std::vector<double> release(bytes.size());
    for (std::size_t p = 0; p < bytes.size(); ++p) {
      const std::size_t gate =
          std::min(part_gate[p], rec.segments_consumed);
      release[p] = reset_sec + static_cast<double>(gate) * seg_sec;
    }
    const auto sched =
        decomp::schedule_virtual_released(bytes, t2_speed, release);
    const double span = std::max(scan_finish, sched.makespan);
    span_overlap += span;
    for (double wt : sched.worker_time) sizing_busy_sum += wt;
    if (trc != nullptr) {
      std::snprintf(targs, sizeof targs,
                    "\"iteration\":%zu,\"segments_consumed\":%llu", i,
                    static_cast<unsigned long long>(rec.segments_consumed));
      trc->emit_span(trc->ppe_track(0), "rate: lambda scan", "rate", cursor,
                     scan_finish, targs);
      // Sizing jobs start as the scan releases their gates.
      for (std::size_t p = 0; p < bytes.size(); ++p) {
        if (bytes[p] <= 0.0) continue;
        const int w = sched.assignment[p];
        const double dur =
            bytes[p] * t2_speed[static_cast<std::size_t>(w)];
        std::snprintf(targs, sizeof targs, "\"part\":%zu,\"bytes\":%.0f", p,
                      bytes[p]);
        trc->emit_span(worker_track(w), "rate: sizing part", "rate",
                       cursor + sched.item_finish[p] - dur, dur, targs);
      }
      cursor += span;
    }
  }

  res.rate_timing.name = "rate";
  res.rate_timing.ppe = merge_sec + scan_ppe;
  res.rate_timing.spe_compute = sizing_phase;
  res.rate_timing.dma_bytes = nsegs * kHullSegmentBytes;
  res.rate_timing.dma_aggregate =
      static_cast<double>(res.rate_timing.dma_bytes) / m.total_mem_bw();
  // Phase-ordered, each iteration's sizing waits for its whole scan.
  const double rate_phase_sec = merge_sec + scan_ppe + sizing_phase;
  res.rate_timing.seconds = merge_sec + span_overlap;
  res.rate_timing.overlap_saved = rate_phase_sec - res.rate_timing.seconds;

  // Stall attribution (DESIGN.md §11): busy is the pool-averaged sizing
  // work; the rest of the stage is the serial merge/scan residue.
  const double npool = static_cast<double>(t2_speed.size());
  res.rate_timing.stall.busy = sizing_busy_sum / npool;
  res.rate_timing.stall.ppe_serial =
      res.rate_timing.seconds - res.rate_timing.stall.busy;

  if (trc != nullptr) {
    std::snprintf(targs, sizeof targs,
                  "\"iterations\":%zu,\"segments\":%llu,"
                  "\"overlap_saved_s\":%.9g",
                  iter_part_bytes.size(),
                  static_cast<unsigned long long>(nsegs),
                  res.rate_timing.overlap_saved);
    trc->emit_span(trc->driver_track(), "rate", "stage", rate_t0,
                   res.rate_timing.seconds, targs);
    trc->advance_clock(res.rate_timing.seconds);
  }

  // --- Final-assembly model.  Coding finish times per precinct stream feed
  // the ordered hand-off replay of the streaming stitch: the serial
  // consumer appends packets in emission order (tile index × progression ×
  // component), stalling only when the next packet's stream is unfinished.
  std::vector<double> final_part_bytes;
  final_part_bytes.reserve(part_count);
  std::uint64_t packet_bytes = 0;
  for (const auto& tile_parts : parts) {
    for (const auto& ps : tile_parts) {
      final_part_bytes.push_back(static_cast<double>(ps.total_bytes));
      packet_bytes += ps.total_bytes;
    }
  }
  const double stitch_byte_sec = cp.ppe_t2_stitch_cycles_per_byte / hz;
  // Reused parts are already in memory when assembly starts (their coding
  // was charged to the last sizing pass), so every stream is ready at t=0;
  // otherwise a fresh coding pass runs and streams finish as the pool
  // drains.
  const auto coding =
      decomp::schedule_virtual(final_part_bytes, t2_speed);
  std::vector<double> pkt_ready;
  std::vector<double> pkt_cost;
  std::size_t part_base = 0;
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    const jp2k::Tile& tile = *tiles[t];
    const auto nres = static_cast<std::size_t>(tile.levels + 1);
    jp2k::for_each_packet(tile, tile.layers, [&](int l, int r) {
      for (std::size_t c = 0; c < tile.components.size(); ++c) {
        const std::size_t p =
            part_base + c * nres + static_cast<std::size_t>(r);
        pkt_ready.push_back(reuse_parts ? 0.0 : coding.item_finish[p]);
        pkt_cost.push_back(
            static_cast<double>(
                parts[t][c * nres + static_cast<std::size_t>(r)]
                    .layer_bytes[static_cast<std::size_t>(l)]
                    .size()) *
            stitch_byte_sec);
      }
    });
    part_base += tile.components.size() * nres;
  }
  const auto handoff = decomp::schedule_ordered_handoff(pkt_ready, pkt_cost);
  const double handoff_overhead = static_cast<double>(part_count) *
                                  cp.ppe_handoff_cycles_per_item / hz;
  const double framing_sec =
      static_cast<double>(res.codestream.size() - packet_bytes) *
      stitch_byte_sec;

  res.t2_timing.name = "t2";
  res.t2_timing.dma_bytes = 2 * packet_bytes;  // bodies out, stitch reads.
  res.t2_timing.dma_aggregate =
      static_cast<double>(res.t2_timing.dma_bytes) / m.total_mem_bw();
  // Phase-ordered accounting: coding pass, then the serial stitch over the
  // whole framed stream.
  const double t2_phase_sec =
      std::max(coding.makespan, res.t2_timing.dma_aggregate) +
      static_cast<double>(res.codestream.size()) *
          stitch_byte_sec;
  res.t2_timing.spe_compute = reuse_parts ? 0.0 : coding.makespan;
  res.t2_timing.ppe = handoff.busy + handoff_overhead + framing_sec;
  res.t2_timing.seconds =
      std::max(handoff.makespan, res.t2_timing.dma_aggregate) +
      handoff_overhead + framing_sec;
  res.t2_timing.overlap_saved = t2_phase_sec - res.t2_timing.seconds;

  // Stall attribution.  The stage timeline is the streaming consumer's:
  // its stitch/framing work is ppe-serial, its waits on unfinished
  // precinct streams split into busy (the pool average was productive
  // under the wait) and channel-stall (truly blocked), and any bandwidth
  // excess is dma-wait.
  double coding_busy_sum = 0.0;
  for (double wt : coding.worker_time) coding_busy_sum += wt;
  const double pool_busy = reuse_parts ? 0.0 : coding_busy_sum / npool;
  res.t2_timing.stall.busy = std::min(handoff.stall, pool_busy);
  res.t2_timing.stall.channel_stall =
      handoff.stall - res.t2_timing.stall.busy;
  res.t2_timing.stall.ppe_serial =
      handoff.busy + handoff_overhead + framing_sec;
  res.t2_timing.stall.dma_wait =
      std::max(0.0, res.t2_timing.dma_aggregate - handoff.makespan);

  if (trc != nullptr) {
    const double t2_t0 = trc->clock();
    if (!reuse_parts) {
      for (std::size_t p = 0; p < final_part_bytes.size(); ++p) {
        if (final_part_bytes[p] <= 0.0) continue;
        const int w = coding.assignment[p];
        const double dur =
            final_part_bytes[p] * t2_speed[static_cast<std::size_t>(w)];
        std::snprintf(targs, sizeof targs, "\"part\":%zu,\"bytes\":%.0f", p,
                      final_part_bytes[p]);
        trc->emit_span(worker_track(w), "t2: code precinct", "t2",
                       t2_t0 + coding.item_finish[p] - dur, dur, targs);
      }
    }
    // The consumer's timeline: packet appends with channel-stall gaps.
    double prev = 0.0;
    for (std::size_t k = 0; k < handoff.finish.size(); ++k) {
      const double start = handoff.finish[k] - pkt_cost[k];
      if (start - prev > 1e-12) {
        trc->emit_span(trc->ppe_track(0), "stall: channel", "stall",
                       t2_t0 + prev, start - prev);
      }
      if (pkt_cost[k] > 1e-15) {
        std::snprintf(targs, sizeof targs, "\"packet\":%zu", k);
        trc->emit_span(trc->ppe_track(0), "t2: stitch packet", "t2",
                       t2_t0 + start, pkt_cost[k], targs);
      }
      prev = handoff.finish[k];
    }
    const double tail = handoff_overhead + framing_sec;
    if (tail > 0.0) {
      trc->emit_span(trc->ppe_track(0), "t2: handoff + framing", "t2",
                     t2_t0 + res.t2_timing.seconds - tail, tail);
    }
    std::snprintf(targs, sizeof targs,
                  "\"packets\":%zu,\"bytes\":%zu,\"reused_parts\":%s,"
                  "\"overlap_saved_s\":%.9g",
                  pkt_cost.size(), res.codestream.size(),
                  reuse_parts ? "true" : "false",
                  res.t2_timing.overlap_saved);
    trc->emit_span(trc->driver_track(), "t2", "stage", t2_t0,
                   res.t2_timing.seconds, targs);
    trc->advance_clock(res.t2_timing.seconds);
  }

  // The paper-faithful serial charges, for the Fig.-5 comparison.
  res.serial_rate_seconds =
      static_cast<double>(res.stats.passes_considered) *
      cp.ppe_rate_cycles_per_pass / hz;
  res.serial_t2_seconds = static_cast<double>(res.codestream.size()) *
                          cp.ppe_t2_cycles_per_byte / hz;
  res.t2_timing.wall_seconds = wall.seconds();
  return res;
}

std::vector<cell::StageTiming> serial_tail(const cell::CostParams& cp,
                                           cell::TraceRecorder* trace,
                                           const jp2k::EncodeStats& stats,
                                           std::size_t codestream_bytes,
                                           bool lossy) {
  std::vector<cell::StageTiming> stages;
  auto serial_stage = [&](const char* name, const char* span, double ppe,
                          double wall_seconds) {
    cell::StageTiming t;
    t.name = name;
    t.wall_seconds = wall_seconds;
    t.ppe = ppe;
    t.seconds = t.ppe;
    t.stall.ppe_serial = t.seconds;  // The whole stage is PPE-serial.
    if (trace != nullptr && t.seconds > 0) {
      const double t0 = trace->clock();
      trace->emit_span(trace->ppe_track(0), span, "ppe", t0, t.seconds);
      trace->emit_span(trace->driver_track(), name, "stage", t0, t.seconds);
      trace->advance_clock(t.seconds);
    }
    stages.push_back(std::move(t));
  };
  if (lossy) {
    serial_stage("rate", "rate (ppe serial)",
                 static_cast<double>(stats.rate.passes_considered) *
                     cp.ppe_rate_cycles_per_pass / cp.clock_hz,
                 stats.rate_seconds);
  }
  serial_stage("t2", "t2 (ppe serial)",
               static_cast<double>(codestream_bytes) *
                   cp.ppe_t2_cycles_per_byte / cp.clock_hz,
               stats.t2_seconds);
  return stages;
}

}  // namespace cj2k::cellenc
