#include "cellenc/pipeline.hpp"

#include <algorithm>
#include <optional>

#include "cellenc/kernels.hpp"
#include "cellenc/stage_mct.hpp"
#include "cellenc/stage_quant.hpp"
#include "cellenc/stage_rate.hpp"
#include "cellenc/stage_tile.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "decomp/chunk.hpp"
#include "jp2k/dwt2d.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/ht_block.hpp"
#include "jp2k/quant.hpp"
#include "jp2k/rate_control.hpp"
#include "jp2k/t2_encoder.hpp"
#include "jp2k/tile_grid.hpp"

namespace cj2k::cellenc {

double PipelineResult::stage_seconds(const std::string& name) const {
  for (const auto& s : stages) {
    if (s.name == name) return s.seconds;
  }
  return 0.0;
}

std::map<std::string, double> PipelineResult::wall_metrics() const {
  std::map<std::string, double> wall{{"wall.seconds", wall_seconds}};
  for (const auto& s : stages) wall["wall.stage." + s.name] = s.wall_seconds;
  return wall;
}

namespace {

/// The "read component data" stage: stream the source planes into the
/// working copies (Jasper's intermediate-type conversion).  Partially
/// parallelized, per the paper: SPE chunks move their columns by DMA, the
/// PPE handles the remainder and the (serial) stream bookkeeping.
cell::StageTiming stage_read(cell::Machine& m, const Image& img,
                             std::vector<Plane>& work) {
  const std::size_t w = img.width();
  const std::size_t h = img.height();
  work.clear();
  for (std::size_t c = 0; c < img.components(); ++c) {
    work.emplace_back(w, h);
  }
  const auto plan = decomp::plan_chunks(
      w, sizeof(Sample), static_cast<std::size_t>(m.num_spes()));

  auto spe_work = [&](int i, cell::SpeContext& ctx) {
    if (static_cast<std::size_t>(i) >= plan.spe_chunks.size()) return;
    const auto& ch = plan.spe_chunks[static_cast<std::size_t>(i)];
    // Pure copy: a fully asynchronous fenced get->put chain over two
    // buffers/tags with no mid-stream waits.  Each fence orders a buffer's
    // next command after its previous one on the same tag (put after get,
    // re-targeting get after put), so the chain is race-free on real
    // hardware with a single tag drain at the end.
    Sample* buf[2] = {ctx.ls.alloc<Sample>(ch.width),
                      ctx.ls.alloc<Sample>(ch.width)};
    std::size_t k = 0;
    for (std::size_t c = 0; c < img.components(); ++c) {
      for (std::size_t y = 0; y < h; ++y, ++k) {
        const unsigned t = static_cast<unsigned>(k & 1);
        dma_getf_row_tagged(ctx.dma, buf[t], img.plane(c).row(y) + ch.x0,
                            ch.width, t);
        dma_putf_row_tagged(ctx.dma, buf[t], work[c].row(y) + ch.x0,
                            ch.width, t);
      }
    }
    ctx.dma.wait_all();
    ctx.ls.reset();
  };
  auto ppe_work = [&](cell::OpCounters& c) {
    const auto& rem = plan.remainder;
    for (std::size_t cc = 0; cc < img.components(); ++cc) {
      for (std::size_t y = 0; y < h; ++y) {
        if (rem.width > 0) {
          std::copy_n(img.plane(cc).row(y) + rem.x0, rem.width,
                      work[cc].row(y) + rem.x0);
        }
      }
    }
    // Conversion + stream bookkeeping: ~2 scalar ops per remainder sample
    // plus a serial per-row cost for the Jasper stream traversal.
    c.s_int += static_cast<std::uint64_t>(rem.width) * h *
                   img.components() * 2 +
               h * img.components() * 64;
  };
  return m.run_data_parallel("read", spe_work, ppe_work);
}

/// Attaches an InvariantAudit to the machine for the encode's lifetime and
/// detaches on every exit path (strict mode throws mid-encode).
class ScopedAudit {
 public:
  ScopedAudit(cell::Machine& m, const cell::AuditConfig& cfg) : m_(m) {
    if (cfg.enabled) {
      audit_.emplace(cfg);
      m_.attach_audit(&*audit_);
    }
  }
  ~ScopedAudit() {
    if (audit_) m_.attach_audit(nullptr);
  }
  ScopedAudit(const ScopedAudit&) = delete;
  ScopedAudit& operator=(const ScopedAudit&) = delete;

  cell::AuditReport report() const {
    return audit_ ? audit_->report() : cell::AuditReport{};
  }

 private:
  cell::Machine& m_;
  std::optional<cell::InvariantAudit> audit_;
};

/// Attaches a TraceRecorder to the machine for the encode's lifetime and
/// detaches on every exit path; the recorder itself outlives the scope (it
/// is handed to PipelineResult::trace as a shared_ptr).
class ScopedTrace {
 public:
  ScopedTrace(cell::Machine& m, const cell::TraceConfig& cfg) : m_(m) {
    if (cfg.enabled) {
      rec_ = std::make_shared<cell::TraceRecorder>(
          m.num_spes(), m.num_ppe_threads(), cfg.ring_capacity);
      m_.attach_trace(rec_.get());
    }
  }
  ~ScopedTrace() {
    if (rec_) m_.attach_trace(nullptr);
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

  std::shared_ptr<cell::TraceRecorder> recorder() const { return rec_; }

 private:
  cell::Machine& m_;
  std::shared_ptr<cell::TraceRecorder> rec_;
};

/// Fold the run's per-stage timings and totals into the unified metrics
/// registry (DESIGN.md §11).  Occupancy is stall.busy / seconds; the
/// critical-path share is against the stage-time sum (== simulated seconds
/// on single-tile runs; on tiled runs the pipelined makespan is smaller,
/// and both are published).
void fill_metrics(PipelineResult& res) {
  cell::MetricsRegistry& mr = res.metrics;
  double stage_sum = 0.0;
  for (const auto& s : res.stages) stage_sum += s.seconds;
  mr.set("sim.seconds", res.simulated_seconds);
  mr.set("sim.stage_sum_seconds", stage_sum);
  mr.set("sim.overlap_saved_seconds", res.overlap_saved_seconds);
  mr.set("sim.dma_overlap_saved_seconds", res.dma_overlap_saved_seconds);
  mr.set("dma.bytes", static_cast<double>(res.dma_bytes));
  mr.set("t1.symbols", static_cast<double>(res.t1_symbols));
  mr.set("tiles", static_cast<double>(res.tiles));
  mr.set("tile_groups", static_cast<double>(res.tile_groups));
  for (const auto& s : res.stages) {
    const std::string p = "stage." + s.name + ".";
    mr.set(p + "seconds", s.seconds);
    mr.set(p + "dma_bytes", static_cast<double>(s.dma_bytes));
    mr.set(p + "occupancy", s.seconds > 0 ? s.stall.busy / s.seconds : 0.0);
    mr.set(p + "critical_path_share",
           stage_sum > 0 ? s.seconds / stage_sum : 0.0);
    mr.set(p + "stall.busy", s.stall.busy);
    mr.set(p + "stall.dma_wait", s.stall.dma_wait);
    mr.set(p + "stall.queue_empty", s.stall.queue_empty);
    mr.set(p + "stall.ppe_serial", s.stall.ppe_serial);
    mr.set(p + "stall.channel_stall", s.stall.channel_stall);
  }
  if (res.trace) {
    mr.set("trace.events", static_cast<double>(res.trace->total_events()));
    mr.set("trace.dropped",
           static_cast<double>(res.trace->dropped_events()));
  }
}

}  // namespace

TileFrontResult encode_tile_front(cell::Machine& machine, const Image& img,
                                  const jp2k::CodingParams& params,
                                  const PipelineOptions& opt,
                                  HullCapture* hulls) {
  const DwtOptions& dwt = opt.dwt;
  const backend::BackendKind bk = opt.backend;
  TileFrontResult res;
  const std::size_t w = img.width();
  const std::size_t h = img.height();
  const std::size_t ncomp = img.components();
  const bool color = params.mct && ncomp >= 3;
  const unsigned depth = img.bit_depth();

  jp2k::Tile& tile = res.tile;
  tile.width = w;
  tile.height = h;
  tile.levels = params.levels;
  tile.layers = params.layers;
  tile.progression = static_cast<int>(params.progression);

  // Every stage is pushed through here, stamped with the host time since
  // the previous one (the stage call plus its tile-skeleton bookkeeping).
  Timer lap;
  auto push_stage = [&](cell::StageTiming t) {
    t.wall_seconds = lap.seconds();
    lap.reset();
    res.stages.push_back(std::move(t));
  };

  // --- Read / convert -------------------------------------------------------
  std::vector<Plane> work;
  push_stage(stage_read(machine, img, work));

  std::vector<Span2d<const Sample>> coeff_views;
  std::vector<Plane> qplanes;
  std::vector<AlignedBuffer<float>> fplanes;

  if (params.wavelet == jp2k::WaveletKind::kReversible53) {
    // --- Level shift + RCT --------------------------------------------------
    push_stage(stage_mct_lossless(machine, work, color, depth, bk));

    // --- DWT ----------------------------------------------------------------
    cell::StageTiming dwt_t;
    dwt_t.name = "dwt";
    for (std::size_t c = 0; c < ncomp; ++c) {
      dwt_t += stage_dwt53(machine, work[c].view(), params.levels, dwt, bk);
    }
    dwt_t.name = "dwt";
    push_stage(dwt_t);

    // --- Tile skeleton ------------------------------------------------------
    for (std::size_t c = 0; c < ncomp; ++c) {
      jp2k::TileComponent tc;
      for (const auto& info : jp2k::subband_layout(w, h, params.levels)) {
        jp2k::Subband sb;
        sb.info = info;
        sb.quant_step = 1.0;
        jp2k::make_block_grid(sb, params.cb_width, params.cb_height);
        tc.subbands.push_back(std::move(sb));
      }
      tile.components.push_back(std::move(tc));
      coeff_views.push_back(work[c].view());
    }
  } else if (params.fixed_point_97) {
    // --- Fixed-point lossy path (paper §4 "before") --------------------------
    std::vector<Plane> fxplanes;
    fxplanes.reserve(ncomp);
    for (std::size_t c = 0; c < ncomp; ++c) fxplanes.emplace_back(w, h);
    push_stage(
        stage_mct_lossy_fixed(machine, work, fxplanes, color, depth, bk));

    cell::StageTiming dwt_t;
    for (std::size_t c = 0; c < ncomp; ++c) {
      dwt_t += stage_dwt97_fixed(machine, fxplanes[c].view(), params.levels,
                                 dwt, bk);
    }
    dwt_t.name = "dwt";
    push_stage(dwt_t);

    cell::StageTiming quant_t;
    qplanes.reserve(ncomp);
    for (std::size_t c = 0; c < ncomp; ++c) {
      jp2k::TileComponent tc;
      for (const auto& info : jp2k::subband_layout(w, h, params.levels)) {
        jp2k::Subband sb;
        sb.info = info;
        sb.quant_step = jp2k::quant_step_for_band(
            jp2k::effective_base_quant_step(params), params.wavelet,
            info.level, info.orient, params.levels);
        jp2k::make_block_grid(sb, params.cb_width, params.cb_height);
        tc.subbands.push_back(std::move(sb));
      }
      tile.components.push_back(std::move(tc));

      qplanes.emplace_back(w, h);
      quant_t += stage_quant_fixed(machine, fxplanes[c].view(),
                                   qplanes[c].view(), tile.components[c],
                                   bk);
      coeff_views.push_back(qplanes[c].view());
    }
    quant_t.name = "quant";
    push_stage(quant_t);
  } else {
    // --- Level shift + ICT (into float planes) ------------------------------
    const std::size_t stride = work[0].stride();
    fplanes.reserve(ncomp);
    for (std::size_t c = 0; c < ncomp; ++c) {
      fplanes.emplace_back(stride * h);
    }
    // The paper's merged kernel reads the converted integer planes.
    push_stage(
        stage_mct_lossy(machine, work, fplanes, stride, color, depth, bk));

    // --- DWT ----------------------------------------------------------------
    cell::StageTiming dwt_t;
    dwt_t.name = "dwt";
    for (std::size_t c = 0; c < ncomp; ++c) {
      Span2d<float> fv(fplanes[c].data(), w, h, stride);
      dwt_t += stage_dwt97(machine, fv, params.levels, dwt, bk);
    }
    dwt_t.name = "dwt";
    push_stage(dwt_t);

    // --- Tile skeleton + quantization --------------------------------------
    cell::StageTiming quant_t;
    quant_t.name = "quant";
    qplanes.reserve(ncomp);
    for (std::size_t c = 0; c < ncomp; ++c) {
      jp2k::TileComponent tc;
      for (const auto& info : jp2k::subband_layout(w, h, params.levels)) {
        jp2k::Subband sb;
        sb.info = info;
        sb.quant_step = jp2k::quant_step_for_band(
            jp2k::effective_base_quant_step(params), params.wavelet,
            info.level, info.orient, params.levels);
        jp2k::make_block_grid(sb, params.cb_width, params.cb_height);
        tc.subbands.push_back(std::move(sb));
      }
      tile.components.push_back(std::move(tc));

      qplanes.emplace_back(w, h);
      Span2d<const float> fv(fplanes[c].data(), w, h, stride);
      quant_t += stage_quant(machine, fv, qplanes[c].view(),
                             tile.components[c], bk);
      coeff_views.push_back(qplanes[c].view());
    }
    quant_t.name = "quant";
    push_stage(quant_t);
  }

  // --- Tier-1 over the work queue; with hull capture the same workers also
  // build each block's R-D hull as it finishes (the hull cost hides under
  // the T1 span — the fused schedule accounts for it). -----------------------
  const T1StageResult t1 =
      stage_t1(machine, tile, coeff_views, opt.t1_dist, params.t1, hulls,
               params.block_coder);
  push_stage(t1.timing);
  res.t1_symbols = t1.total_symbols;
  res.hull_extra_seconds = t1.hull_extra_seconds;
  res.hull_serial_seconds = t1.hull_serial_seconds;
  return res;
}

PipelineResult CellEncoder::encode(const Image& img,
                                   const jp2k::CodingParams& params,
                                   const PipelineOptions& opt) {
  jp2k::validate(img, params);
  Timer wall;
  const jp2k::TileGrid grid = jp2k::TileGrid::plan(
      img.width(), img.height(), params.tiles_x, params.tiles_y);
  if (grid.num_tiles() > 1) {
    PipelineResult res = encode_tiled(machine_, img, params, opt, grid);
    res.wall_seconds = wall.seconds();
    fill_metrics(res);
    return res;
  }

  PipelineResult res;
  const auto& cp = machine_.model().params();

  ScopedAudit audit(machine_, opt.audit);
  ScopedTrace trace(machine_, opt.trace);

  // HT never takes the lossy tail: no truncation points means no PCRD rate
  // stage at all (the stage_rate fast path promised by the HT backend).
  const bool lossy_tail = jp2k::uses_pcrd_rate_control(params);
  const bool distribute_tail = lossy_tail && opt.parallel_lossy_tail;
  HullCapture hulls;
  hulls.wavelet = params.wavelet;

  TileFrontResult front = encode_tile_front(
      machine_, img, params, opt, distribute_tail ? &hulls : nullptr);
  jp2k::Tile& tile = front.tile;
  res.stages = std::move(front.stages);
  const std::size_t front_count = res.stages.size();
  res.t1_symbols = front.t1_symbols;
  res.hull_extra_seconds = front.hull_extra_seconds;
  res.hull_serial_seconds = front.hull_serial_seconds;

  if (distribute_tail) {
    // --- Distributed lossy tail: k-way slope merge + serial greedy scan +
    // precinct-parallel Tier-2 (byte-identical to jp2k::finish_tile).
    // With overlap_lossy_tail the serial residue is pipelined against the
    // parallel work (released sizing, streaming stitch). --------------------
    RateTailOptions tail_opts;
    tail_opts.overlap = opt.overlap_lossy_tail;
    LossyTailResult tail =
        stage_rate_tail(machine_, tile, img, params, hulls, tail_opts);
    res.codestream = std::move(tail.codestream);
    res.stages.push_back(tail.rate_timing);
    res.stages.push_back(tail.t2_timing);
    res.serial_rate_seconds = tail.serial_rate_seconds;
    res.serial_t2_seconds = tail.serial_t2_seconds;
    res.rate_stats = std::move(tail.stats);
  } else {
    // --- Serial baseline tail (the paper's configuration): rate control +
    // Tier-2 + framing via the shared serial implementation; simulated PPE
    // time is charged from the work quantities it reports. -------------------
    jp2k::EncodeStats fstats;
    res.codestream = jp2k::finish_tile(tile, img, params, &fstats);

    cell::TraceRecorder* rec = machine_.trace();
    auto serial_stage = [&](cell::StageTiming& t, const char* span) {
      t.seconds = t.ppe;
      t.stall.ppe_serial = t.seconds;  // The whole stage is PPE-serial.
      if (rec != nullptr && t.seconds > 0) {
        const double t0 = rec->clock();
        rec->emit_span(rec->ppe_track(0), span, "ppe", t0, t.seconds);
        rec->emit_span(rec->driver_track(), t.name.c_str(), "stage", t0,
                       t.seconds);
        rec->advance_clock(t.seconds);
      }
    };

    if (lossy_tail) {
      cell::StageTiming rate_t;
      rate_t.name = "rate";
      rate_t.wall_seconds = fstats.rate_seconds;
      rate_t.ppe = static_cast<double>(fstats.rate.passes_considered) *
                   cp.ppe_rate_cycles_per_pass / cp.clock_hz;
      serial_stage(rate_t, "rate (ppe serial)");
      res.stages.push_back(rate_t);
      res.serial_rate_seconds = rate_t.seconds;
    }

    cell::StageTiming t2_t;
    t2_t.name = "t2";
    t2_t.wall_seconds = fstats.t2_seconds;
    t2_t.ppe = static_cast<double>(res.codestream.size()) *
               cp.ppe_t2_cycles_per_byte / cp.clock_hz;
    serial_stage(t2_t, "t2 (ppe serial)");
    res.stages.push_back(t2_t);
    res.serial_t2_seconds = t2_t.seconds;
  }

  for (const auto& s : res.stages) {
    res.simulated_seconds += s.seconds;
    res.overlap_saved_seconds += s.overlap_saved;
    res.dma_overlap_saved_seconds += s.dma_overlap_saved;
    res.dma_bytes += s.dma_bytes;
  }

  // Service view (DESIGN.md §12): collapse the run into one {pool, serial}
  // item.  The data-parallel front occupies the SPE pool; tail stages are
  // classified by their stall ledger (fully PPE-serial → serial resource).
  // Lossy runs report the rate/Tier-2 tail as the barrier phase; on
  // lossless/HT runs the serial Tier-2 folds into the tile item, matching
  // the tiled scheduler's per-tile Tier-2 phases.
  decomp::PipelinePhase item;
  for (std::size_t i = 0; i < front_count; ++i) {
    item.pool += res.stages[i].seconds;
  }
  decomp::PipelinePhase tail_ph;
  for (std::size_t i = front_count; i < res.stages.size(); ++i) {
    const auto& s = res.stages[i];
    if (s.seconds > 0 && s.stall.ppe_serial >= s.seconds) {
      tail_ph.serial += s.seconds;
    } else {
      tail_ph.pool += s.seconds;
    }
  }
  if (lossy_tail) {
    res.tail_phase = tail_ph;
  } else {
    item.pool += tail_ph.pool;
    item.serial += tail_ph.serial;
  }
  res.tile_items.assign(1, item);

  res.audit = audit.report();
  res.trace = trace.recorder();
  res.wall_seconds = wall.seconds();
  fill_metrics(res);
  return res;
}

}  // namespace cj2k::cellenc
