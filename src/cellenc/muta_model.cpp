#include "cellenc/muta_model.hpp"

#include <algorithm>

#include "cell/cost_model.hpp"

namespace cj2k::cellenc {

namespace {

constexpr double kMutaClock = 2.4e9;       ///< Their QS20 revision.
constexpr double kTileNet = 112.0;
constexpr double kTileGross = 128.0;
/// Per-sample SPE cycles for the convolution 5/3 on the SPE (SIMD): the
/// low/high FIR taps cost ~(5+3)/2 multiply-adds per output vs the lifting
/// scheme's 2; with 4-wide SIMD that is ~1 cycle per sample per 1-D pass.
constexpr double kConvCyclesPerSample = 2.0;
/// PPE pre-stage cost per sample (level shift + RCT, scalar).
constexpr double kPreOpsPerSample = 14.0;
/// PPE-side per-block dispatch/collection cost (mailbox round trips,
/// buffer management) — the "interaction among the PPE and SPE threads"
/// that grows with 32x32 blocks.
constexpr double kDispatchCyclesPerBlock = 30000.0;

}  // namespace

MutaTiming muta_encode_model(const Image& img,
                             const jp2k::EncodeStats& stats, int variant,
                             int spes_per_chip) {
  const cell::CostParams cp;
  const double samples = static_cast<double>(img.total_samples());
  const int chips = variant == 1 ? 2 : 1;  // Muta1 spans both chips
  const double spes = static_cast<double>(spes_per_chip * chips);

  MutaTiming t;

  // Pre-stages on the PPE only (one PPE even in Muta1 — the second chip's
  // PPE handles its own frame in Muta0, so per-frame it is still one PPE).
  t.pre = samples * kPreOpsPerSample * cp.ppe_scalar_op / kMutaClock;

  // DWT: tiled convolution.  Work amplification from the tile overlap,
  // out-of-place = 2x traffic per level, unaligned overlapped DMA pays the
  // inefficiency penalty.  Per-SPE compute scales, but the aggregate DMA
  // traffic does not — which is what caps their DWT beyond one SPE.
  const double amplify = (kTileGross / kTileNet) * (kTileGross / kTileNet);
  double pyr = 0.0, area = samples;
  for (int l = 0; l < 5; ++l) {
    pyr += area;
    area /= 4.0;
  }
  // "Their DWT implementation does not scale beyond a single SPE despite
  // having high single SPE performance" (paper §1): serial tile management
  // plus the unmerged traffic cap effective DWT parallelism at one SPE.
  const double dwt_spes = 1.0;
  const double compute =
      pyr * 2.0 * amplify * kConvCyclesPerSample / (kMutaClock * dwt_spes);
  const double traffic_bytes =
      pyr * 2.0 * amplify * 2.0 /*in+out*/ * sizeof(Sample) *
      cp.unaligned_dma_penalty;
  const double chip_bw = cp.chip_mem_bw * static_cast<double>(chips);
  const double dma = traffic_bytes / chip_bw;
  // No compute/DMA overlap margin to spare at these traffic levels: the
  // slower of the two paths dominates and they serialize partially.
  t.dwt = std::max(compute, dma) + 0.25 * std::min(compute, dma);

  // EBCOT: Tier-1 on SPEs only (no PPE worker), 32x32 blocks => 4x blocks
  // of our 64x64 count, PPE dispatch per block, Tier-2 overlapped on the
  // PPE (lossless only, which is what they support).
  const double blocks = samples / (32.0 * 32.0);  // 32x32 code blocks
  // "Their EBCOT implementation shows better scalability but does not
  // scale above a single Cell/B.E. processor" (paper §1): the single PPE
  // dispatcher cannot feed a second chip's SPEs.
  const double ebcot_spes = std::min(spes, 8.0);
  const double t1_spe = static_cast<double>(stats.t1_symbols) *
                        cp.spe_t1_cycles_per_symbol /
                        (kMutaClock * ebcot_spes);
  const double dispatch =
      blocks * kDispatchCyclesPerBlock / kMutaClock;  // serial on the PPE
  t.ebcot = std::max(t1_spe, dispatch);

  t.total = t.pre + t.dwt + t.ebcot;
  return t;
}

}  // namespace cj2k::cellenc
