// Figure 8: DWT performance vs Muta et al. (paper §5.2).  Lifting + the
// merged single-sweep vertical schedule + the chunk decomposition vs their
// tiled convolution with overlapped (unaligned) DMA.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "cellenc/muta_model.hpp"
#include "jp2k/dwt_merged.hpp"
#include "jp2k/dwt_conv.hpp"
#include "jp2k/encoder.hpp"

namespace {

using namespace cj2k;

void run_figure() {
  bench::print_header("Figure 8 — DWT comparison with Muta et al. [10]",
                      "Fig. 8; lifting + merged sweep + aligned DMA win");
  const Image img = synth::photographic(1280, 720, 3, 7);

  jp2k::CodingParams p;
  jp2k::EncodeStats stats;
  jp2k::encode(img, p, &stats);

  const auto muta0 = cellenc::muta_encode_model(img, stats, 0);
  const auto muta1 = cellenc::muta_encode_model(img, stats, 1);

  cellenc::CellEncoder ours1(bench::machine_config(8, 1, 1));
  cellenc::CellEncoder ours2(bench::machine_config(16, 2, 2));
  const auto r1 = ours1.encode(img, p);
  const auto r2 = ours2.encode(img, p);

  const double base = muta0.dwt;
  std::printf("  %-26s %12s %9s\n", "implementation", "DWT sim time",
              "vs Muta0");
  bench::print_row("Muta0 (2 chips, conv)", muta0.dwt, base / muta0.dwt);
  bench::print_row("Muta1 (2 chips, conv)", muta1.dwt, base / muta1.dwt);
  bench::print_row("ours, 1 chip (lifting)", r1.stage_seconds("dwt"),
                   base / r1.stage_seconds("dwt"));
  bench::print_row("ours, 2 chips (lifting)", r2.stage_seconds("dwt"),
                   base / r2.stage_seconds("dwt"));
  bench::emit_json("fig8_dwt_comparison", "Muta0 (2 chips, conv)", muta0.dwt);
  bench::emit_json("fig8_dwt_comparison", "Muta1 (2 chips, conv)", muta1.dwt);
  bench::emit_json("fig8_dwt_comparison", "ours, 1 chip (lifting)",
                   r1.stage_seconds("dwt"), &r1);
  bench::emit_json("fig8_dwt_comparison", "ours, 2 chips (lifting)",
                   r2.stage_seconds("dwt"), &r2);
}

void BM_Lifting53Row(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Sample> sig(n, 100), scratch(n);
  for (auto _ : state) {
    jp2k::dwt_merged::row_analyze_53(sig.data(), n, scratch.data());
    benchmark::DoNotOptimize(sig.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Lifting53Row)->Arg(1280);

void BM_Convolution53Row(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<float> sig(n, 100.0f), scratch(n);
  for (auto _ : state) {
    jp2k::dwt_conv::analyze53(sig.data(), n, 1, scratch.data());
    benchmark::DoNotOptimize(sig.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Convolution53Row)->Arg(1280);

}  // namespace

int main(int argc, char** argv) {
  run_figure();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
