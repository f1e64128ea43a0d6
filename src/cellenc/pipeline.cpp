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
#include "jp2k/encoder.hpp"
#include "jp2k/ht_block.hpp"
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
  std::map<std::string, double> wall{
      {"wall.seconds", wall_seconds},
      {"wall.front_memo_hits", static_cast<double>(front_memo_hits)}};
  for (const auto& s : stages) wall["wall.stage." + s.name] = s.wall_seconds;
  return wall;
}

const std::vector<cell::StageTiming>* FrontMemo::find(
    const FrontKey& key) const {
  for (const auto& [k, stages] : entries_) {
    if (k == key) return &stages;
  }
  return nullptr;
}

void FrontMemo::store(const FrontKey& key,
                      std::vector<cell::StageTiming> stages) {
  for (auto& s : stages) s.wall_seconds = 0;
  if (entries_.size() == kCapacity) entries_.erase(entries_.begin());
  entries_.emplace_back(key, std::move(stages));
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

/// One stage over every component: the components' timings summed under
/// `name`.
template <class F>
cell::StageTiming sum_components(const char* name, std::size_t ncomp,
                                 F&& stage) {
  cell::StageTiming t;
  for (std::size_t c = 0; c < ncomp; ++c) t += stage(c);
  t.name = name;
  return t;
}

/// The counted lossy front on coefficients of type T (float, or Q13
/// Samples): level shift + ICT from the converted integer planes (the
/// paper's merged kernel), the 9/7 DWT, then the quantization back into
/// `work`, which is dead after the colour stage.
template <class T, class Push>
void lossy_front(cell::Machine& machine, std::vector<Plane>& work,
                 const jp2k::CodingParams& params, const PipelineOptions& opt,
                 bool color, unsigned depth, const jp2k::Tile& tile,
                 Push&& push_stage) {
  const std::size_t w = work[0].width();
  const std::size_t h = work[0].height();
  const std::size_t ncomp = work.size();
  constexpr bool kFloat = std::is_same_v<T, float>;
  using Store = std::conditional_t<kFloat, AlignedBuffer<float>, Plane>;
  const std::size_t stride = work[0].stride();
  std::vector<Store> coeffs;
  coeffs.reserve(ncomp);
  std::vector<Span2d<T>> views;
  for (std::size_t c = 0; c < ncomp; ++c) {
    if constexpr (kFloat) {
      views.emplace_back(coeffs.emplace_back(stride * h).data(), w, h, stride);
    } else {
      views.push_back(coeffs.emplace_back(w, h).view());
    }
  }

  if constexpr (kFloat) {
    push_stage(stage_mct_lossy(machine, work, coeffs, stride, color, depth));
  } else {
    push_stage(stage_mct_lossy_fixed(machine, work, coeffs, color, depth));
  }
  push_stage(sum_components("dwt", ncomp, [&](std::size_t c) {
    if constexpr (kFloat) {
      return stage_dwt97(machine, views[c], params.levels, opt.dwt);
    } else {
      return stage_dwt97_fixed(machine, views[c], params.levels, opt.dwt);
    }
  }));
  push_stage(sum_components("quant", ncomp, [&](std::size_t c) {
    const Span2d<const T> in = views[c];
    if constexpr (kFloat) {
      return stage_quant(machine, in, work[c].view(), tile.components[c]);
    } else {
      return stage_quant_fixed(machine, in, work[c].view(),
                               tile.components[c]);
    }
  }));
}

/// The counted front through the cell::Simd stage kernels: read, level
/// shift + MCT, DWT and (lossy) quant, each pushed as it finishes.
/// Returns the planes Tier-1 codes.
template <class Push>
std::vector<Plane> counted_front(cell::Machine& machine, const Image& img,
                                 const jp2k::CodingParams& params,
                                 const PipelineOptions& opt,
                                 const jp2k::Tile& tile, Push&& push_stage) {
  const bool color = params.mct && img.components() >= 3;
  const unsigned depth = img.bit_depth();
  std::vector<Plane> work;
  push_stage(stage_read(machine, img, work));
  if (params.wavelet == jp2k::WaveletKind::kReversible53) {
    push_stage(stage_mct_lossless(machine, work, color, depth));
    push_stage(sum_components("dwt", work.size(), [&](std::size_t c) {
      return stage_dwt53(machine, work[c].view(), params.levels, opt.dwt);
    }));
  } else if (params.fixed_point_97) {
    // The fixed-point front is the paper's §4 "before" configuration.
    lossy_front<Sample>(machine, work, params, opt, color, depth, tile,
                        push_stage);
  } else {
    lossy_front<float>(machine, work, params, opt, color, depth, tile,
                       push_stage);
  }
  return work;
}

FrontKey front_key(const cell::Machine& machine, const Image& img,
                   const jp2k::CodingParams& params, const DwtOptions& dwt) {
  return {machine.config(),
          img.width(),
          img.height(),
          img.plane(0).stride(),
          img.components(),
          img.bit_depth(),
          params.mct && img.components() >= 3,
          params.wavelet,
          params.fixed_point_97,
          params.levels,
          jp2k::effective_base_quant_step(params),
          dwt};
}

}  // namespace

TileFrontResult encode_tile_front(cell::Machine& machine, const Image& img,
                                  const jp2k::CodingParams& params,
                                  const PipelineOptions& opt,
                                  HullCapture* hulls, FrontMemo* memo) {
  TileFrontResult res;
  // Each stage that runs here is pushed through push_stage, stamped with
  // the host time since the previous one.
  Timer lap;
  auto push_stage = [&](cell::StageTiming t) {
    t.wall_seconds = lap.seconds();
    lap.reset();
    res.stages.push_back(std::move(t));
  };

  // The audit ledger and the trace record the counted stages' DMA and
  // spans, so those runs always count.
  if (opt.audit.enabled || machine.trace() != nullptr) memo = nullptr;
  const FrontKey key =
      memo ? front_key(machine, img, params, opt.dwt) : FrontKey{};
  const std::vector<cell::StageTiming>* hit = memo ? memo->find(key) : nullptr;

  std::vector<Plane> coeffs;
  if (hit) {
    // --- The memoized front: host code on main memory, charged the stored
    // timings.  The read and the colour transform are one pass, timed with
    // the plane allocations as the colour stage; read keeps the rest (the
    // tile skeleton).
    jp2k::EncodeStats st;
    jp2k::TileFront f = jp2k::build_front(img, params, &st);
    res.tile = std::move(f.tile);
    coeffs = std::move(f.coeffs);
    const double walls[] = {
        lap.seconds() - st.mct_seconds - st.dwt_seconds - st.quant_seconds,
        st.mct_seconds, st.dwt_seconds, st.quant_seconds};
    for (std::size_t i = 0; i < hit->size(); ++i) {
      res.stages.push_back((*hit)[i]);
      res.stages.back().wall_seconds = walls[i];
    }
    res.from_memo = true;
    lap.reset();
  } else {
    res.tile = jp2k::make_tile_skeleton(img.width(), img.height(),
                                        img.components(), params);
    coeffs = counted_front(machine, img, params, opt, res.tile, push_stage);
    if (memo) memo->store(key, res.stages);
  }

  // --- Tier-1 over the work queue; with hull capture the same workers also
  // build each block's R-D hull as it finishes (the hull cost hides under
  // the T1 span — the fused schedule accounts for it). -----------------------
  std::vector<Span2d<const Sample>> coeff_views;
  for (const Plane& p : coeffs) coeff_views.push_back(p.view());
  const T1StageResult t1 =
      stage_t1(machine, res.tile, coeff_views, opt.t1_dist, params.t1, hulls,
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
    PipelineResult res =
        encode_tiled(machine_, img, params, opt, grid, &memo_);
    res.wall_seconds = wall.seconds();
    fill_metrics(res);
    return res;
  }

  PipelineResult res;

  ScopedAudit audit(machine_, opt.audit);
  ScopedTrace trace(machine_, opt.trace);

  // HT never takes the lossy tail: no truncation points means no PCRD rate
  // stage at all (the stage_rate fast path promised by the HT backend).
  const bool lossy_tail = jp2k::uses_pcrd_rate_control(params);
  const bool distribute_tail = lossy_tail && opt.parallel_lossy_tail;
  HullCapture hulls;
  hulls.wavelet = params.wavelet;

  TileFrontResult front =
      encode_tile_front(machine_, img, params, opt,
                        distribute_tail ? &hulls : nullptr, &memo_);
  jp2k::Tile& tile = front.tile;
  res.front_memo_hits = front.from_memo ? 1 : 0;
  res.stages = std::move(front.stages);
  const std::size_t front_count = res.stages.size();
  res.t1_symbols = front.t1_symbols;
  res.hull_extra_seconds = front.hull_extra_seconds;
  res.hull_serial_seconds = front.hull_serial_seconds;

  if (distribute_tail) {
    // --- Distributed lossy tail: k-way slope merge + serial greedy scan +
    // precinct-parallel Tier-2 (byte-identical to jp2k::finish_tile), with
    // the serial residue pipelined against the parallel work (released
    // sizing, streaming stitch). -------------------------------------------
    LossyTailResult tail = stage_rate_tail(machine_, tile, img, params, hulls);
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
    for (auto& s : serial_tail(machine_.model().params(), machine_.trace(),
                               fstats, res.codestream.size(), lossy_tail)) {
      res.stages.push_back(std::move(s));
    }
    res.serial_rate_seconds = res.stage_seconds("rate");
    res.serial_t2_seconds = res.stage_seconds("t2");
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
