// DWT explorer: runs the multilevel 5/3 and 9/7 transforms on an image,
// prints the subband energy map (showing energy compaction), and compares
// the merged single-sweep vertical schedule against the naive multipass one
// — the paper's §4 optimization — in both results and row traffic.
//
// Usage: dwt_explorer [levels]   (default 3)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "image/synth.hpp"
#include "jp2k/dwt2d.hpp"
#include "jp2k/dwt_merged.hpp"

using namespace cj2k;
using jp2k::SubbandOrient;

namespace {
const char* orient_name(SubbandOrient o) {
  switch (o) {
    case SubbandOrient::LL: return "LL";
    case SubbandOrient::HL: return "HL";
    case SubbandOrient::LH: return "LH";
    case SubbandOrient::HH: return "HH";
  }
  return "??";
}
}  // namespace

int main(int argc, char** argv) {
  const int levels = argc > 1 ? std::atoi(argv[1]) : 3;
  const std::size_t n = 512;
  Image img = synth::photographic(n, n, 1, 7);

  // Level-shift into a working plane and transform.
  Plane work(n, n);
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      work.at(y, x) = img.plane(0).at(y, x) - 128;
    }
  }
  jp2k::forward53({work.view()}, levels);

  std::printf("5/3 DWT of a %zux%zu photo, %d levels — subband energy:\n\n",
              n, n, levels);
  std::printf("  %-6s %-5s %10s %10s %14s\n", "band", "size", "mean|c|",
              "max|c|", "energy share");
  double total_energy = 0;
  const auto bands = jp2k::subband_layout(n, n, levels);
  std::vector<double> energies;
  for (const auto& b : bands) {
    double e = 0;
    for (std::size_t y = 0; y < b.h; ++y) {
      for (std::size_t x = 0; x < b.w; ++x) {
        const double v = work.at(b.y0 + y, b.x0 + x);
        e += v * v;
      }
    }
    energies.push_back(e);
    total_energy += e;
  }
  for (std::size_t i = 0; i < bands.size(); ++i) {
    const auto& b = bands[i];
    double sum = 0, mx = 0;
    for (std::size_t y = 0; y < b.h; ++y) {
      for (std::size_t x = 0; x < b.w; ++x) {
        const double v = std::fabs(work.at(b.y0 + y, b.x0 + x));
        sum += v;
        mx = std::max(mx, v);
      }
    }
    std::printf("  %s_%-4d %3zux%-3zu %10.2f %10.0f %13.2f%%\n",
                orient_name(b.orient), b.level, b.w, b.h,
                sum / static_cast<double>(b.w * b.h), mx,
                100.0 * energies[i] / total_energy);
  }

  // Merged vs multipass vertical filtering: identical output, less traffic.
  std::printf("\nVertical filtering schedules (one level, %zux%zu):\n", n, n);
  Plane a(n, n), b2(n, n);
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      a.at(y, x) = b2.at(y, x) = img.plane(0).at(y, x) - 128;
    }
  }
  std::vector<Sample> aux, scratch;
  const auto tm = jp2k::dwt_merged::vertical_analyze_53(
      a.view().subview(0, 0, n, n), aux);
  const auto tp = jp2k::dwt_merged::vertical_analyze_53_multipass(
      b2.view().subview(0, 0, n, n), scratch);
  bool same = true;
  for (std::size_t y = 0; y < n && same; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      if (a.at(y, x) != b2.at(y, x)) {
        same = false;
        break;
      }
    }
  }
  std::printf("  merged (paper §4):  %llu row reads, %llu row writes\n",
              static_cast<unsigned long long>(tm.rows_read),
              static_cast<unsigned long long>(tm.rows_written));
  std::printf("  naive multipass:    %llu row reads, %llu row writes\n",
              static_cast<unsigned long long>(tp.rows_read),
              static_cast<unsigned long long>(tp.rows_written));
  std::printf("  outputs identical:  %s\n", same ? "yes" : "NO — BUG");
  std::printf("  traffic reduction:  %.2fx\n",
              static_cast<double>(tp.rows_read + tp.rows_written) /
                  static_cast<double>(tm.rows_read + tm.rows_written));
  return same ? 0 : 1;
}
