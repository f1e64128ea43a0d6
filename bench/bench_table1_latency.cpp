// Table 1: SPE instruction latencies and the fixed-point vs floating-point
// tradeoff for the 9/7 lifting kernel (paper §4).
//
// Prints the modeled instruction costs and the per-sample SPE cycle cost of
// one 9/7 lifting sweep in Q13 fixed point vs single-precision float, then
// benchmarks the host kernels.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "cell/cost_model.hpp"
#include "cellenc/kernels.hpp"
#include "jp2k/dwt97.hpp"
#include "jp2k/dwt_merged.hpp"

namespace {

using namespace cj2k;

void print_table1() {
  bench::print_header(
      "Table 1 — SPE instruction latencies and fixed vs float 9/7",
      "Table 1: mpyh 7cy, mpyu 7cy, a 2cy, fm 6cy; §4 fixed->float switch");

  std::printf(
      "  Instruction                    paper latency   model issue cost\n"
      "  mpyh (2-byte int mul high)          7 cy         (part of emulated mul)\n"
      "  mpyu (2-byte int mul unsigned)      7 cy         (part of emulated mul)\n"
      "  a    (word add)                     2 cy              1.0 slots\n"
      "  fm   (float multiply)               6 cy              1.0 slots\n"
      "  emulated 4-byte int multiply     16+ cy              4.0 slots\n\n");

  // Run one lifting sweep of each flavour through the instrumented SIMD
  // layer and convert the counters to cycles.
  constexpr std::size_t kN = 4096;
  cell::CostModel model;

  cell::OpCounters cf;
  {
    cell::Simd simd(cf);
    AlignedBuffer<float> x(kN), a(kN), b(kN);
    cellenc::simd_lift97_row(simd, x.data(), a.data(), b.data(),
                             jp2k::dwt97::kAlpha, kN);
  }
  cell::OpCounters ci;
  {
    cell::Simd simd(ci);
    AlignedBuffer<std::int32_t> x(kN), a(kN), b(kN);
    cellenc::simd_lift97_fixed_row(simd, x.data(), a.data(), b.data(), 13000,
                                   kN);
  }
  const double cyc_f = model.spe_seconds(cf) * model.params().clock_hz /
                       static_cast<double>(kN);
  const double cyc_i = model.spe_seconds(ci) * model.params().clock_hz /
                       static_cast<double>(kN);
  std::printf("  9/7 lifting sweep, float:       %.3f SPE cycles/sample\n",
              cyc_f);
  std::printf("  9/7 lifting sweep, Q13 fixed:   %.3f SPE cycles/sample\n",
              cyc_i);
  std::printf("  fixed/float cost ratio:         %.2fx  (paper: fixed point "
              "\"loses its benefit\" on the SPE)\n\n",
              cyc_i / cyc_f);
  // Cycles-per-sample reported as "simulated seconds" at the SPE clock so
  // the JSON schema stays uniform across benches.
  bench::emit_json("table1_latency", "lift97 float",
                   cyc_f / model.params().clock_hz);
  bench::emit_json("table1_latency", "lift97 fixed Q13",
                   cyc_i / model.params().clock_hz);
}

// Host-side microbenchmarks of the same kernels.
void BM_Lift97Float(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cell::OpCounters c;
  cell::Simd simd(c);
  AlignedBuffer<float> x(n), a(n), b(n);
  for (auto _ : state) {
    cellenc::simd_lift97_row(simd, x.data(), a.data(), b.data(),
                             jp2k::dwt97::kAlpha, n);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Lift97Float)->Arg(1024)->Arg(16384);

void BM_Lift97Fixed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cell::OpCounters c;
  cell::Simd simd(c);
  AlignedBuffer<std::int32_t> x(n), a(n), b(n);
  for (auto _ : state) {
    cellenc::simd_lift97_fixed_row(simd, x.data(), a.data(), b.data(), 13000,
                                   n);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Lift97Fixed)->Arg(1024)->Arg(16384);

void BM_Dwt97FixedScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<jp2k::dwt97::Fix> sig(n, 1 << 13), scratch(n);
  for (auto _ : state) {
    jp2k::dwt_merged::row_analyze_97_fixed(sig.data(), n, scratch.data());
    benchmark::DoNotOptimize(sig.data());
  }
}
BENCHMARK(BM_Dwt97FixedScalar)->Arg(4096);

void BM_Dwt97FloatScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<float> sig(n, 1.0f), scratch(n);
  for (auto _ : state) {
    jp2k::dwt_merged::row_analyze_97(sig.data(), n, scratch.data());
    benchmark::DoNotOptimize(sig.data());
  }
}
BENCHMARK(BM_Dwt97FloatScalar)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  print_table1();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
