// The host lifting core: the paper's §4 vertical-filtering schedule, in
// which the splitting (deinterleave) step, the lifting steps and (lossy) the
// scaling step are merged into a single sweep over the rows of a column
// group, with an auxiliary buffer for the high-pass rows to avoid the
// overwrite hazard of Figure 3.  One sweep touches each input row once, so
// row traffic drops from 3 passes to 1.5 (lossless) and from 6 to 1.5
// (lossy).
//
// Every host 2-D transform runs its vertical pass through these kernels
// (jp2k::forward*/inverse* call them on constant-width column strips, and
// the Cell DWT stage's PPE fallback on its remainder columns); the Cell
// SPE kernels stream the same row schedule through the DMA model.  Lifting
// fixes the operation order per sample, so the output is bit-identical to
// the per-column 1-D dwt53/dwt97 transforms.
#pragma once

#include <cstdint>
#include <vector>

#include "common/span2d.hpp"
#include "image/image.hpp"

namespace cj2k::jp2k::dwt_merged {

/// Column-strip width, in samples, of the host transforms' vertical pass:
/// 256 bytes (four cache lines) of 4-byte samples per row, so a strip's
/// in-flight rows stay in L1 while the strips of one level spread over the
/// host pool.
inline constexpr std::size_t kStripWidth = 64;

/// Row-transfer accounting for the DMA-traffic ablation.
struct Traffic {
  std::uint64_t rows_read = 0;     ///< Input/aux rows read.
  std::uint64_t rows_written = 0;  ///< Output/aux rows written.
};

/// Merged vertical 5/3 analysis of a column group: on return the group's
/// rows hold the deinterleaved result (L rows on top, H rows below).
/// `aux` is grown, if need be, to hold the high-pass half.
Traffic vertical_analyze_53(Span2d<Sample> group, std::vector<Sample>& aux);

/// Merged vertical 5/3 synthesis: the inverse of vertical_analyze_53.
/// `aux` is grown, if need be, to hold the low-pass half.
void vertical_synthesize_53(Span2d<Sample> group, std::vector<Sample>& aux);

/// Naive vertical 5/3 analysis: separate predict, update and split sweeps
/// (paper Algorithm 1 + splitting step).  Identical output; used as the
/// ablation baseline for DMA traffic.
Traffic vertical_analyze_53_multipass(Span2d<Sample> group,
                                      std::vector<Sample>& scratch_column);

/// Merged vertical 9/7 analysis (split + 4 lifting steps + scaling in one
/// sweep, the Kutil single-loop the paper adopts).
Traffic vertical_analyze_97(Span2d<float> group, std::vector<float>& aux);

/// Merged vertical 9/7 synthesis (scaling + 4 lifting steps + interleave).
void vertical_synthesize_97(Span2d<float> group, std::vector<float>& aux);

/// Merged vertical 9/7 analysis on Q13 fixed-point samples.
Traffic vertical_analyze_97_fixed(Span2d<Sample> group,
                                  std::vector<Sample>& aux);

/// Merged vertical 9/7 synthesis on Q13 fixed-point samples.
void vertical_synthesize_97_fixed(Span2d<Sample> group,
                                  std::vector<Sample>& aux);

/// Horizontal analysis of one contiguous row of n samples, in place, L
/// then H: the row is split into its even and odd samples and each lifting
/// step runs as a contiguous operation on the halves.  `scratch` holds n
/// samples.
void row_analyze_53(Sample* row, std::size_t n, Sample* scratch);
void row_analyze_97(float* row, std::size_t n, float* scratch);
void row_analyze_97_fixed(Sample* row, std::size_t n, Sample* scratch);

/// Inverses of the row_analyze_* kernels.
void row_synthesize_53(Sample* row, std::size_t n, Sample* scratch);
void row_synthesize_97(float* row, std::size_t n, float* scratch);
void row_synthesize_97_fixed(Sample* row, std::size_t n, Sample* scratch);

}  // namespace cj2k::jp2k::dwt_merged
