// Random encode draws shared by the memo differential suites (BackendDiff,
// FrontMemo): dirty geometries × wavelets × block coders ×
// layer/progression/rate combinations × tile grids × SPE/PPE counts ×
// DwtOptions.
#pragma once

#include <string>

#include "cellenc/pipeline.hpp"
#include "common/rng.hpp"
#include "jp2k/codestream.hpp"

namespace cj2k::test {

inline cell::MachineConfig config(int spes, int ppes) {
  cell::MachineConfig cfg;
  cfg.num_spes = spes;
  cfg.num_ppe_threads = ppes;
  return cfg;
}

struct Draw {
  jp2k::CodingParams params;
  cellenc::PipelineOptions opt;
  std::size_t width = 0;
  std::size_t height = 0;
  std::uint64_t image_seed = 0;
  int spes = 0;
  int ppes = 0;

  std::string describe() const {
    std::string s = std::to_string(width) + "x" + std::to_string(height) +
                    " seed=" + std::to_string(image_seed) +
                    " spes=" + std::to_string(spes) +
                    " ppes=" + std::to_string(ppes) +
                    " layers=" + std::to_string(params.layers) +
                    " rate=" + std::to_string(params.rate) + " tiles=" +
                    std::to_string(params.tiles_x) + "x" +
                    std::to_string(params.tiles_y);
    s += params.block_coder == jp2k::BlockCoder::kHt ? " ht" : " ebcot";
    if (params.wavelet == jp2k::WaveletKind::kReversible53) {
      s += " 5/3";
    } else {
      s += params.fixed_point_97 ? " 9/7fx" : " 9/7";
    }
    s += " colgroup=" + std::to_string(opt.dwt.colgroup_elems);
    if (!opt.dwt.merged_vertical) s += " multipass";
    return s;
  }
};

/// One random point of the sweep.  Axes mirror the parallel_rate sweep plus
/// the DWT options that change which kernels run (column-group override,
/// multipass vertical schedule).
inline Draw make_draw(Rng& rng, std::uint64_t image_seed) {
  Draw d;
  jp2k::CodingParams& p = d.params;
  switch (rng.next_below(3)) {
    case 0:
      p.wavelet = jp2k::WaveletKind::kReversible53;
      break;
    case 1:
      p.wavelet = jp2k::WaveletKind::kIrreversible97;
      break;
    default:
      p.wavelet = jp2k::WaveletKind::kIrreversible97;
      p.fixed_point_97 = true;
      break;
  }
  p.levels = 3;
  if (p.wavelet == jp2k::WaveletKind::kIrreversible97) {
    p.layers = 1 + static_cast<int>(rng.next_below(3));
    p.progression = rng.next_below(2) == 0 ? jp2k::Progression::kLRCP
                                           : jp2k::Progression::kRLCP;
    p.rate = (p.layers > 1 && rng.next_below(3) == 0)
                 ? 0.0
                 : 0.08 + 0.05 * static_cast<double>(rng.next_below(6));
  }
  p.tiles_x = 1 + rng.next_below(2);
  p.tiles_y = 1 + rng.next_below(2);
  if (rng.next_below(3) == 0) {
    p.block_coder = jp2k::BlockCoder::kHt;
    p.layers = 1;
    if (p.wavelet == jp2k::WaveletKind::kIrreversible97 && p.rate == 0.0) {
      p.rate = 0.1;
    }
  }
  // Dirty geometries: odd, non-line-multiple, non-vector-multiple sizes.
  d.width = 48 + rng.next_below(83);
  d.height = 40 + rng.next_below(67);
  d.image_seed = image_seed;
  const int spe_choices[] = {1, 3, 8, 16};
  d.spes = spe_choices[rng.next_below(4)];
  d.ppes = 1 + static_cast<int>(rng.next_below(2));
  // DWT kernel axes: the unpaddable fixed column-group width (24 floats =
  // 96 bytes, never a 128-byte multiple) and the multipass vertical
  // schedule, each on a third of the draws.
  if (rng.next_below(3) == 0) d.opt.dwt.colgroup_elems = 24;
  if (rng.next_below(3) == 0) d.opt.dwt.merged_vertical = false;
  return d;
}

}  // namespace cj2k::test
