// Real host wall-clock comparison of the two instantiations of the SPE row
// kernels (DESIGN.md §13): on the counting cell::Simd policy (every vector
// op counted — timing truth for the *simulated* figures) versus on the
// uncounted host policy (SSE2/NEON — wall-clock truth for the host).  Both
// produce byte-identical codestreams, which this bench asserts on every
// configuration before reporting times.
//
// Unlike every other bench in this directory, the headline number here is
// HOST wall seconds, not simulated Cell seconds: the point is to measure
// what the instrumentation layer costs and what the native vector kernels
// buy on the machine actually running the model.  The BENCH_JSON rows carry
// the wall-time figures under "derived" (wall.seconds / wall.native_seconds
// / wall.speedup_native) so bench_trend.py can track them like any other
// metric; sim_seconds is still reported for the cell rows so the scraper's
// schema stays uniform.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/sha256.hpp"
#include "common/timer.hpp"
#include "jp2k/encoder.hpp"

namespace {

using namespace cj2k;

struct Variant {
  const char* label;
  jp2k::WaveletKind wavelet;
  jp2k::BlockCoder coder;
  double rate;
};

constexpr Variant kVariants[] = {
    {"lossless ebcot", jp2k::WaveletKind::kReversible53,
     jp2k::BlockCoder::kEbcot, 0.0},
    {"lossy ebcot", jp2k::WaveletKind::kIrreversible97,
     jp2k::BlockCoder::kEbcot, 0.25},
    {"lossless ht", jp2k::WaveletKind::kReversible53, jp2k::BlockCoder::kHt,
     0.0},
    {"lossy ht", jp2k::WaveletKind::kIrreversible97, jp2k::BlockCoder::kHt,
     0.25},
};

jp2k::CodingParams make_params(const Variant& v) {
  jp2k::CodingParams p;
  p.wavelet = v.wavelet;
  p.block_coder = v.coder;
  p.rate = v.rate;
  // HT codewords have no truncation points, so only EBCOT takes layers.
  if (v.rate > 0.0 && v.coder == jp2k::BlockCoder::kEbcot) p.layers = 2;
  return p;
}

/// Best-of-`reps` wall seconds for one encode configuration; also returns
/// the last run's PipelineResult through `out`.
double best_wall_seconds(cellenc::CellEncoder& enc, const Image& img,
                         const jp2k::CodingParams& p,
                         const cellenc::PipelineOptions& opt, int reps,
                         cellenc::PipelineResult& out) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    out = enc.encode(img, p, opt);
    const double w = out.wall_seconds;
    best = r == 0 ? w : std::min(best, w);
  }
  return best;
}

void run_figure(const bench::Workload& wl, int reps) {
  bench::print_header(
      "Native host-SIMD backend: wall-clock vs the instrumented Cell model",
      "beyond the paper; DESIGN.md \xc2\xa7" "13 backend seam");
  const Image img = bench::paper_image(wl);
  std::printf("  Workload: synthetic photo %zux%zu RGB, 5 levels; "
              "best of %d runs\n", img.width(), img.height(), reps);
  std::printf("  Native ISA: %s\n\n", backend::native_isa());
  std::printf("  %-16s %14s %14s %9s %9s\n", "variant", "cell wall",
              "native wall", "gain", "bytes");

  for (const auto& v : kVariants) {
    const jp2k::CodingParams p = make_params(v);
    cellenc::CellEncoder enc(bench::machine_config(8, 1));

    cellenc::PipelineOptions cell_opt;
    cell_opt.backend = backend::BackendKind::kCellModel;
    cellenc::PipelineOptions native_opt;
    native_opt.backend = backend::BackendKind::kNative;

    cellenc::PipelineResult cell_res, native_res;
    const double cell_wall =
        best_wall_seconds(enc, img, p, cell_opt, reps, cell_res);
    const double native_wall =
        best_wall_seconds(enc, img, p, native_opt, reps, native_res);

    // The backends must be byte-identical before their times mean anything.
    const std::string cell_sha = common::sha256_hex(cell_res.codestream);
    const std::string native_sha = common::sha256_hex(native_res.codestream);
    CJ2K_CHECK_MSG(cell_sha == native_sha,
                   "backend divergence: cell and native codestreams differ");

    const double gain = native_wall > 0 ? cell_wall / native_wall : 0.0;
    std::printf("  %-16s %12.1f ms %12.1f ms   %6.2fx %9zu\n", v.label,
                cell_wall * 1e3, native_wall * 1e3, gain,
                cell_res.codestream.size());

    // Wall figures ride the derived registry so bench_trend.py picks them
    // up without schema changes (the pipeline's own registry stays
    // deterministic — wall time is attached only here).
    cell::MetricsRegistry derived = native_res.metrics;
    derived.set("wall.seconds", cell_wall);
    derived.set("wall.native_seconds", native_wall);
    derived.set("wall.speedup_native", gain);
    bench::emit_json_metrics("native_wallclock",
                             std::string(v.label) + " native",
                             cell_res.simulated_seconds, derived);
  }
  std::printf(
      "\n  'cell wall' includes the instrumentation layer (per-op counter\n"
      "  charges through cell::Simd); 'native wall' runs the same kernels\n"
      "  as host vector intrinsics.  Simulated Cell seconds are only\n"
      "  meaningful on the cell backend — the native backend charges no\n"
      "  SPE ops, so its value is wall time, verified byte-identical.\n");
}

void BM_NativeEncode(benchmark::State& state) {
  const Image img = synth::photographic(512, 512, 3, 1);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.rate = 0.25;
  cellenc::PipelineOptions opt;
  opt.backend = backend::BackendKind::kNative;
  cellenc::CellEncoder enc(bench::machine_config(8, 1));
  for (auto _ : state) {
    auto res = enc.encode(img, p, opt);
    benchmark::DoNotOptimize(res.codestream.data());
  }
}
BENCHMARK(BM_NativeEncode)->Unit(benchmark::kMillisecond);

void BM_CellModelEncode(benchmark::State& state) {
  const Image img = synth::photographic(512, 512, 3, 1);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.rate = 0.25;
  cellenc::CellEncoder enc(bench::machine_config(8, 1));
  for (auto _ : state) {
    auto res = enc.encode(img, p);
    benchmark::DoNotOptimize(res.codestream.data());
  }
}
BENCHMARK(BM_CellModelEncode)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const cj2k::bench::Workload wl = cj2k::bench::parse_workload(argc, argv);
  // Small workloads are CI smoke runs — one rep keeps them quick; the
  // default interactive size takes best-of-3 to shed scheduler noise.
  const int reps = wl.width <= 512 ? 1 : 3;
  run_figure(wl, reps);
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
