// Multilevel 2-D Mallat DWT driver and subband geometry.
//
// After L levels the plane holds the usual pyramid layout: LL_L in the
// top-left corner, and for each level l (L..1) the HL_l / LH_l / HH_l
// rectangles.  Geometry follows the standard's ceil/floor split: a length-n
// signal produces ceil(n/2) low and floor(n/2) high samples.
#pragma once

#include <vector>

#include "common/span2d.hpp"
#include "image/image.hpp"
#include "jp2k/t1_common.hpp"

namespace cj2k::jp2k {

/// Which wavelet kernel a pipeline uses.
enum class WaveletKind : std::uint8_t {
  kReversible53 = 0,   ///< Integer 5/3, lossless path.
  kIrreversible97 = 1, ///< Float 9/7, lossy path.
};

/// One subband rectangle within the transformed plane.
struct SubbandInfo {
  SubbandOrient orient;
  int level;        ///< Decomposition level (1 = finest); 0 only for LL.
  std::size_t x0, y0, w, h;  ///< Placement in the transformed plane.
};

/// Computes the subband layout for a w×h plane decomposed `levels` times.
/// Bands are returned coarsest-first: LL_L, then per level l = L..1 the
/// HL_l, LH_l, HH_l bands.  Degenerate (zero-area) bands are omitted.
std::vector<SubbandInfo> subband_layout(std::size_t w, std::size_t h,
                                        int levels);

// The six transforms run in place on every plane of `planes` (planes may
// differ in size).  Each level runs as two phases on the host pool: the
// vertical pass as the merged row sweep (jp2k::dwt_merged) over
// constant-width column strips, and the horizontal pass over bands of rows,
// each phase one flat (plane × strip) or (plane × band) index space.  The
// output is bit-identical to the textbook 1-D lifting run one column and
// one row at a time, and does not depend on the host slot count.

/// In-place forward 5/3 transform, `levels` levels.
void forward53(const std::vector<Span2d<Sample>>& planes, int levels);

/// In-place inverse 5/3 transform.
void inverse53(const std::vector<Span2d<Sample>>& planes, int levels);

/// In-place forward 9/7 float transform.
void forward97(const std::vector<Span2d<float>>& planes, int levels);

/// In-place inverse 9/7 float transform.
void inverse97(const std::vector<Span2d<float>>& planes, int levels);

/// In-place forward 9/7 transform on Q13 fixed-point samples (Jasper's
/// original arithmetic, kept for the paper's §4 fixed-vs-float experiment).
void forward97_fixed(const std::vector<Span2d<Sample>>& planes, int levels);

/// In-place inverse 9/7 fixed-point transform.
void inverse97_fixed(const std::vector<Span2d<Sample>>& planes, int levels);

/// L2 norm of the synthesis basis vectors of a subband — the factor that
/// converts squared coefficient error into image-domain squared error for
/// PCRD rate allocation.  Computed numerically from the actual inverse
/// transform (robust to normalization conventions) and memoized.
double subband_synthesis_gain(WaveletKind kind, int level,
                              SubbandOrient orient, int total_levels);

/// The levels of a `levels`-level transform whose pass along a dimension of
/// n samples runs: those where the dimension is still above one.
int transform_levels(std::size_t n, int levels);

/// Upper bound on the sum of |weight| over the input behind one coefficient
/// of the 1-D forward transform after `level` levels: of the low band
/// (high = false; 1 at level 0) or of the level's high band, on a signal of
/// any length.  The weights are the linear filters the lifting steps
/// implement (the 5/3 and Q13 rounding is the caller's slack).  Exact
/// through twelve levels; deeper, the triangle inequality over one more
/// level's filter.
double analysis_norm(WaveletKind kind, bool high, int level);

/// Upper bound on the magnitude of every value the inverse transform of a
/// w×h plane computes — each lifting step's result, the 5/3 rounding and
/// (for 9/7) the Q13 kernels' multiply rounding included — given an upper
/// bound on each subband's coefficient magnitudes, in subband_layout(w, h,
/// levels) order.  Each value is a fixed combination of the coefficients,
/// and the transform is separable, so a band adds its bound times the sums
/// of |weight| of its coefficients along the rows and along the columns;
/// the sums follow the actual multi-level weights (up to eight levels
/// deep), so the bound is tight up to the rounding terms and the row/column
/// split.
double inverse_peak(WaveletKind kind, std::size_t w, std::size_t h,
                    int levels, const std::vector<double>& band_peak);

}  // namespace cj2k::jp2k
