// The traced run's layer sweep: one encode composed from the cellenc stage
// entry points, the same stages on the native backend, a tiled encode, a
// decode and a service batch, each call wrapped in a span by this file.
#include <algorithm>
#include <cstring>

#include "backend/kernel_backend.hpp"
#include "cellenc/pipeline.hpp"
#include "cellenc/stage_dwt.hpp"
#include "cellenc/stage_mct.hpp"
#include "cellenc/stage_quant.hpp"
#include "cellenc/stage_rate.hpp"
#include "cellenc/stage_t1.hpp"
#include "cellenc/stage_tile.hpp"
#include "common/sha256.hpp"
#include "jp2k/decoder.hpp"
#include "jp2k/dwt2d.hpp"
#include "jp2k/ht_block.hpp"
#include "jp2k/quant.hpp"
#include "jp2k/tile_grid.hpp"
#include "service/schedule.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cj2k;

const char* const kStages[] = {"read", "mct",  "dwt", "quant",
                               "t1",   "rate", "t2"};
const char* const kStalls[] = {"busy", "dma_wait", "queue_empty",
                               "ppe_serial", "channel_stall"};
const char* const kTransforms[] = {"mct", "dwt", "quant"};

/// Metric key of a pipeline stage name ("levelshift+ict" -> "mct").
std::string stage_key(const std::string& name) {
  if (name.rfind("levelshift", 0) == 0) return "mct";
  if (name == "tier1") return "t1";
  return name;
}

void fail(OpOutcome& o, std::string msg) {
  if (o.ok) {
    o.ok = false;
    o.error = std::move(msg);
  }
}

/// Working state of the stage-by-stage chain, as encode_tile_front keeps
/// it for the 5/3 and float 9/7 paths.
struct Chain {
  std::vector<Plane> work;
  std::vector<AlignedBuffer<float>> fplanes;
  std::vector<Plane> qplanes;
  jp2k::Tile tile;
  std::vector<Span2d<const Sample>> coeffs;
};

struct TransformWalls {
  double mct = 0, dwt = 0, quant = 0;
};

/// Copies the source planes into working planes (what the file-private
/// read stage does, without the machine model).
std::vector<Plane> copy_planes(const Image& img) {
  std::vector<Plane> out;
  for (std::size_t c = 0; c < img.components(); ++c) {
    out.emplace_back(img.width(), img.height());
    for (std::size_t y = 0; y < img.height(); ++y) {
      std::copy_n(img.plane(c).row(y), img.width(), out.back().row(y));
    }
  }
  return out;
}

jp2k::TileComponent skeleton(const Image& img, const jp2k::CodingParams& p) {
  const bool lossy = p.wavelet == jp2k::WaveletKind::kIrreversible97;
  jp2k::TileComponent tc;
  for (const auto& info :
       jp2k::subband_layout(img.width(), img.height(), p.levels)) {
    jp2k::Subband sb;
    sb.info = info;
    sb.quant_step =
        lossy ? jp2k::quant_step_for_band(jp2k::effective_base_quant_step(p),
                                          p.wavelet, info.level, info.orient,
                                          p.levels)
              : 1.0;
    jp2k::make_block_grid(sb, p.cb_width, p.cb_height);
    tc.subbands.push_back(std::move(sb));
  }
  return tc;
}

/// Level shift + MCT, DWT and quantization on `ch`, one span per stage
/// named `prefix.<stage>`.
TransformWalls transform(cell::Machine& m, const Image& img,
                         const jp2k::CodingParams& p,
                         const backend::KernelBackend& bk, Chain& ch,
                         SpanRecorder& rec, const std::string& prefix) {
  TransformWalls tw;
  const std::size_t w = img.width();
  const std::size_t h = img.height();
  const std::size_t ncomp = img.components();
  const bool color = p.mct && ncomp >= 3;
  const unsigned depth = img.bit_depth();
  ch.tile.width = w;
  ch.tile.height = h;
  ch.tile.levels = p.levels;
  ch.tile.layers = p.layers;
  ch.tile.progression = static_cast<int>(p.progression);

  if (p.wavelet == jp2k::WaveletKind::kReversible53) {
    {
      auto s = rec.scope(prefix + ".mct");
      cellenc::stage_mct_lossless(m, ch.work, color, depth, bk);
      tw.mct = s.stop();
    }
    {
      auto s = rec.scope(prefix + ".dwt");
      for (std::size_t c = 0; c < ncomp; ++c) {
        cellenc::stage_dwt53(m, ch.work[c].view(), p.levels, {}, bk);
      }
      tw.dwt = s.stop();
    }
    for (std::size_t c = 0; c < ncomp; ++c) {
      ch.tile.components.push_back(skeleton(img, p));
      ch.coeffs.push_back(ch.work[c].view());
    }
    return tw;
  }

  const std::size_t stride = ch.work[0].stride();
  for (std::size_t c = 0; c < ncomp; ++c) ch.fplanes.emplace_back(stride * h);
  {
    auto s = rec.scope(prefix + ".mct");
    cellenc::stage_mct_lossy(m, ch.work, ch.fplanes, stride, color, depth, bk);
    tw.mct = s.stop();
  }
  {
    auto s = rec.scope(prefix + ".dwt");
    for (std::size_t c = 0; c < ncomp; ++c) {
      Span2d<float> fv(ch.fplanes[c].data(), w, h, stride);
      cellenc::stage_dwt97(m, fv, p.levels, {}, bk);
    }
    tw.dwt = s.stop();
  }
  for (std::size_t c = 0; c < ncomp; ++c) {
    ch.tile.components.push_back(skeleton(img, p));
    ch.qplanes.emplace_back(w, h);
  }
  {
    auto s = rec.scope(prefix + ".quant");
    for (std::size_t c = 0; c < ncomp; ++c) {
      Span2d<const float> fv(ch.fplanes[c].data(), w, h, stride);
      cellenc::stage_quant(m, fv, ch.qplanes[c].view(), ch.tile.components[c],
                           bk);
    }
    tw.quant = s.stop();
  }
  for (std::size_t c = 0; c < ncomp; ++c) {
    ch.coeffs.push_back(ch.qplanes[c].view());
  }
  return tw;
}

bool same_coefficients(const Chain& a, const Chain& b) {
  if (a.coeffs.size() != b.coeffs.size()) return false;
  for (std::size_t c = 0; c < a.coeffs.size(); ++c) {
    const auto& x = a.coeffs[c];
    const auto& y = b.coeffs[c];
    for (std::size_t r = 0; r < x.height(); ++r) {
      if (std::memcmp(x.row(r), y.row(r), x.width() * sizeof(Sample)) != 0) {
        return false;
      }
    }
  }
  return true;
}

bool same_codewords(const jp2k::Tile& a, const jp2k::Tile& b) {
  if (a.components.size() != b.components.size()) return false;
  for (std::size_t c = 0; c < a.components.size(); ++c) {
    const auto& sa = a.components[c].subbands;
    const auto& sb = b.components[c].subbands;
    if (sa.size() != sb.size()) return false;
    for (std::size_t s = 0; s < sa.size(); ++s) {
      if (sa[s].blocks.size() != sb[s].blocks.size()) return false;
      for (std::size_t k = 0; k < sa[s].blocks.size(); ++k) {
        if (sa[s].blocks[k].enc.data != sb[s].blocks[k].enc.data) return false;
      }
    }
  }
  return true;
}

/// MQ (or HT) symbols behind the passes rate control kept: the symbols a
/// full decode of the stream decodes.
std::uint64_t included_symbols(const jp2k::Tile& tile) {
  std::uint64_t n = 0;
  for (const auto& tc : tile.components) {
    for (const auto& sb : tc.subbands) {
      for (const auto& cb : sb.blocks) {
        const auto passes = std::min<std::size_t>(
            static_cast<std::size_t>(std::max(cb.included_passes, 0)),
            cb.enc.passes.size());
        for (std::size_t i = 0; i < passes; ++i) n += cb.enc.passes[i].symbols;
      }
    }
  }
  return n;
}

void add_stage_timing(OpOutcome& o, const cell::StageTiming& t) {
  o.sim.push_back(t.seconds);
  o.sim.push_back(static_cast<double>(t.dma_bytes));
}

struct Composed {
  Bytes codestream;
  std::uint64_t decoded_symbols = 0;
  double main_ms = 0;
};

/// The primary case encoded twice on `m`: as CellEncoder::encode runs it
/// (front, then tail) and stage by stage; then the transform stages again
/// on the native backend.
Composed compose_encode(cell::Machine& m, const Case& c, SpanRecorder& rec,
                        Samples& out, OpOutcome& o) {
  const Image& img = *c.image;
  const jp2k::CodingParams& p = c.params;
  const bool pcrd = jp2k::uses_pcrd_rate_control(p);
  Composed res;

  cellenc::HullCapture hulls;
  hulls.wavelet = p.wavelet;
  auto front_span = rec.scope("cellenc.front");
  cellenc::TileFrontResult front = cellenc::encode_tile_front(
      m, img, p, cellenc::PipelineOptions{}, pcrd ? &hulls : nullptr);
  const double front_ms = front_span.stop();
  for (const auto& t : front.stages) add_stage_timing(o, t);
  double tail_ms = 0;
  int scan_iterations = 0;
  {
    auto s = rec.scope("cellenc.tail");
    if (pcrd) {
      cellenc::LossyTailResult tail =
          cellenc::stage_rate_tail(m, front.tile, img, p, hulls);
      res.codestream = std::move(tail.codestream);
      scan_iterations = tail.stats.iterations;
      add_stage_timing(o, tail.rate_timing);
      add_stage_timing(o, tail.t2_timing);
    } else {
      res.codestream = jp2k::finish_tile(front.tile, img, p);
    }
    tail_ms = s.stop();
  }
  res.main_ms = front_ms + tail_ms;
  res.decoded_symbols = included_symbols(front.tile);
  if (common::sha256_hex(res.codestream) != c.oracle_sha) {
    fail(o, "composed encode differs from the serial oracle");
  }

  Chain cell_chain;
  cell_chain.work = copy_planes(img);
  const TransformWalls cw = transform(m, img, p, backend::cell_model(),
                                      cell_chain, rec, "cellenc");
  cellenc::HullCapture hulls2;
  hulls2.wavelet = p.wavelet;
  cellenc::T1StageResult t1;
  double t1_ms = 0;
  {
    auto s = rec.scope("cellenc.t1");
    t1 = cellenc::stage_t1(m, cell_chain.tile, cell_chain.coeffs,
                           cellenc::T1Distribution::kWorkQueue, p.t1,
                           pcrd ? &hulls2 : nullptr, p.block_coder);
    t1_ms = s.stop();
  }
  if (!same_codewords(cell_chain.tile, front.tile)) {
    fail(o, "stage-by-stage Tier-1 codewords differ from encode_tile_front");
  }
  o.sim.push_back(static_cast<double>(t1.total_symbols));

  Chain native_chain;
  native_chain.work = copy_planes(img);
  const TransformWalls nw =
      transform(m, img, p, backend::get(backend::BackendKind::kNative),
                native_chain, rec, "backend.native");
  if (!same_coefficients(native_chain, cell_chain)) {
    fail(o, "native backend coefficients differ from the cell model");
  }

  out.add("cellenc.front.wall_ms", front_ms);
  out.add("cellenc.tail.wall_ms", tail_ms);
  out.add("cellenc.mct.wall_ms", cw.mct);
  out.add("cellenc.dwt.wall_ms", cw.dwt);
  out.add("cellenc.quant.wall_ms", cw.quant);
  out.add("cellenc.t1.wall_ms", t1_ms);
  out.add("cellenc.read.wall_ms", front_ms - (cw.mct + cw.dwt + cw.quant +
                                              t1_ms));
  out.add("cellenc.t1.symbols", static_cast<double>(t1.total_symbols));
  out.add("cellenc.t1.ns_per_symbol",
          t1.total_symbols > 0
              ? t1_ms * 1e6 / static_cast<double>(t1.total_symbols)
              : 0.0);
  out.add("cellenc.rate.scan_iterations", scan_iterations);
  const double cell_walls[] = {cw.mct, cw.dwt, cw.quant};
  const double native_walls[] = {nw.mct, nw.dwt, nw.quant};
  for (std::size_t i = 0; i < 3; ++i) {
    out.add(std::string("backend.") + kTransforms[i] + ".native_gain",
            native_walls[i] > 0 ? cell_walls[i] / native_walls[i] : 0.0);
  }
  return res;
}

}  // namespace

std::vector<MetricName> per_layer_metrics() {
  std::vector<MetricName> m;
  for (const char* s : {"front", "read", "mct", "dwt", "quant", "t1", "tail",
                        "tiled"}) {
    m.push_back({std::string("cellenc.") + s + ".wall_ms", "ms"});
  }
  m.push_back({"cellenc.t1.symbols", "count"});
  m.push_back({"cellenc.t1.ns_per_symbol", "ns"});
  m.push_back({"cellenc.rate.scan_iterations", "count"});
  for (const char* s : kStages) {
    const std::string p = std::string("cellenc.") + s;
    m.push_back({p + ".sim_s", "sim_s"});
    m.push_back({p + ".dma_bytes", "bytes"});
    for (const char* k : kStalls) m.push_back({p + ".stall." + k + "_s", "sim_s"});
  }
  for (const char* s : kTransforms) {
    m.push_back({std::string("backend.") + s + ".native_gain", "ratio"});
  }
  m.push_back({"cell.machine_new_ms", "ms"});
  m.push_back({"cell.dma_bytes", "bytes"});
  m.push_back({"jp2k.serial.wall_ms", "ms"});
  for (const char* s : {"t1", "rate", "t2"}) {
    m.push_back({std::string("jp2k.serial.") + s + "_ms", "ms"});
  }
  m.push_back({"jp2k.decode.wall_ms", "ms"});
  m.push_back({"jp2k.decode.layer1_wall_ms", "ms"});
  m.push_back({"jp2k.decode.ns_per_symbol", "ns"});
  m.push_back({"service.run.wall_ms", "ms"});
  m.push_back({"service.schedule.wall_ms", "ms"});
  m.push_back({"service.pool_occupancy", "ratio"});
  m.push_back({"service.steals", "count"});
  m.push_back({"service.mean_queue_wait_s", "sim_s"});
  m.push_back({"trace.overhead_ratio", "ratio"});
  return m;
}

double layer_sweep(const SweepInputs& in, MainPart main, SpanRecorder& rec,
                   Samples& out, OpOutcome& o) {
  const Case& c = *in.primary;
  double main_ms = 0;

  // --- cell: machine construction (the CellEncoder constructor).
  double machine_ms = 0;
  std::unique_ptr<cellenc::CellEncoder> enc;
  {
    auto s = rec.scope("cell.machine_new");
    enc = std::make_unique<cellenc::CellEncoder>(in.machine);
    machine_ms = s.stop();
  }
  out.add("cell.machine_new_ms", machine_ms);

  // --- cellenc + backend: the composed encode.
  Composed comp = compose_encode(enc->machine(), c, rec, out, o);
  if (main == MainPart::kEncode) main_ms = comp.main_ms;

  // --- cellenc: the tile scheduler on a 2x2 grid of the same case.
  {
    const jp2k::CodingParams& tp = in.tiled->params;
    const jp2k::TileGrid grid = jp2k::TileGrid::plan(
        c.image->width(), c.image->height(), tp.tiles_x, tp.tiles_y);
    auto s = rec.scope("cellenc.tiled");
    const cellenc::PipelineResult tiled = cellenc::encode_tiled(
        enc->machine(), *in.tiled->image, tp, cellenc::PipelineOptions{},
        grid);
    out.add("cellenc.tiled.wall_ms", s.stop());
    if (common::sha256_hex(tiled.codestream) != in.tiled->oracle_sha) {
      fail(o, "tiled encode differs from the serial oracle");
    }
    o.sim.push_back(tiled.simulated_seconds);
  }

  // --- jp2k: decode of the composed stream, in full and its first layer.
  {
    auto s = rec.scope("jp2k.decode");
    const Image full = jp2k::decode(comp.codestream);
    const double ms = s.stop();
    if (main == MainPart::kDecode) main_ms = ms;
    out.add("jp2k.decode.wall_ms", ms);
    out.add("jp2k.decode.ns_per_symbol",
            comp.decoded_symbols > 0
                ? ms * 1e6 / static_cast<double>(comp.decoded_symbols)
                : 0.0);
    if (image_sha(full) != in.decode_sha) {
      fail(o, "decode differs from the reference decode");
    }
  }
  {
    auto s = rec.scope("jp2k.decode.layer1");
    const Image first = jp2k::decode(comp.codestream, 1);
    out.add("jp2k.decode.layer1_wall_ms", s.stop());
  }
  out.add("jp2k.serial.wall_ms", c.oracle_ms);
  out.add("jp2k.serial.t1_ms", c.oracle_stats.t1_seconds * 1e3);
  out.add("jp2k.serial.rate_ms", c.oracle_stats.rate_seconds * 1e3);
  out.add("jp2k.serial.t2_ms", c.oracle_stats.t2_seconds * 1e3);

  // --- service: the batch, then its schedule replayed alone.
  {
    auto s = rec.scope("service.run");
    const service::ServiceResult r = run_batch(*in.batch);
    const double ms = s.stop();
    if (main == MainPart::kService) main_ms = ms;
    out.add("service.run.wall_ms", ms);
    const std::string err = check_batch(*in.batch, r);
    if (!err.empty()) fail(o, err);
    o.sim.push_back(r.makespan_seconds);

    std::vector<service::ServiceJobSpec> specs(r.jobs.size());
    std::vector<std::size_t> order(r.jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return r.jobs[a].arrival_seconds <
                              r.jobs[b].arrival_seconds;
                     });
    for (std::size_t k = 0; k < order.size(); ++k) {
      const service::JobResult& jr = r.jobs[order[k]];
      specs[k].arrival = jr.arrival_seconds;
      specs[k].items = jr.pipeline.tile_items;
      specs[k].tail = jr.pipeline.tail_phase;
    }
    const service::EncodeService probe(in.batch->options);
    service::ScheduleOptions so;
    so.policy = in.batch->options.policy;
    so.num_groups = r.groups;
    so.serial_slots = static_cast<std::size_t>(
        std::max(1, in.batch->options.machine.num_ppe_threads));
    so.stealing = probe.stealing_enabled();
    service::ServiceSchedule sched;
    {
      auto ss = rec.scope("service.schedule");
      sched = service::schedule_service(specs, so);
      out.add("service.schedule.wall_ms", ss.stop());
    }
    if (sched.makespan != r.makespan_seconds) {
      fail(o, "schedule_service replay differs from the service's own");
    }
    out.add("service.pool_occupancy", r.summary.pool_occupancy);
    out.add("service.steals", static_cast<double>(r.summary.steals));
    out.add("service.mean_queue_wait_s", r.summary.mean_queue_wait);
  }

  // --- Simulated per-stage ledger of the workload's own operation.
  std::uint64_t dma = 0;
  for (const char* key : kStages) {
    cell::StageTiming sum;
    for (const auto& t : in.stages) {
      if (stage_key(t.name) == key) sum += t;
    }
    const std::string p = std::string("cellenc.") + key;
    out.add(p + ".sim_s", sum.seconds);
    out.add(p + ".dma_bytes", static_cast<double>(sum.dma_bytes));
    const double stalls[] = {sum.stall.busy, sum.stall.dma_wait,
                             sum.stall.queue_empty, sum.stall.ppe_serial,
                             sum.stall.channel_stall};
    for (std::size_t i = 0; i < 5; ++i) {
      out.add(p + ".stall." + kStalls[i] + "_s", stalls[i]);
    }
    dma += sum.dma_bytes;
  }
  out.add("cell.dma_bytes", static_cast<double>(dma));
  return main_ms;
}

}  // namespace perfbench
