// Tier-1 (EBCOT block coder) shared definitions: context numbering, the
// zero-coding / sign-coding / magnitude-refinement context tables from
// ISO/IEC 15444-1 Annex D, coefficient flags, and pass bookkeeping.
#pragma once

#include <cstdint>
#include <vector>

#include "common/span2d.hpp"
#include "image/image.hpp"
#include "jp2k/mq.hpp"

namespace cj2k::jp2k {

/// Subband orientation.  Naming: first letter = horizontal filter,
/// second letter = vertical filter (HL = horizontally high-pass).
enum class SubbandOrient : std::uint8_t { LL = 0, HL = 1, LH = 2, HH = 3 };

/// Which block coder produces the Tier-1 codewords: the Part-1 EBCOT coder
/// (three passes per bit plane, MQ-coded, truncatable) or the Part-15 HT
/// cleanup-pass coder (single pass, MagSgn/MEL/VLC, no truncation points —
/// see jp2k/ht_block.hpp).
enum class BlockCoder : std::uint8_t { kEbcot = 0, kHt = 1 };

/// Context numbering used throughout Tier-1 (the conventional software
/// layout): zero coding 0..8, sign coding 9..13, magnitude refinement
/// 14..16, run-length 17, uniform 18.
inline constexpr int kCtxZcBase = 0;
inline constexpr int kCtxScBase = 9;
inline constexpr int kCtxMrBase = 14;
inline constexpr int kCtxRunLength = 17;
inline constexpr int kCtxUniform = 18;
inline constexpr int kNumT1Contexts = 19;

/// Per-code-block context bank with the standard initial states
/// (ZC(0) starts in state 4, RL in state 3, UNIFORM in state 46).
class T1ContextBank {
 public:
  T1ContextBank() { reset(); }

  void reset() {
    for (auto& c : ctx_) c.reset(0);
    ctx_[kCtxZcBase].reset(4);
    ctx_[kCtxRunLength].reset(3);
    ctx_[kCtxUniform].reset(46);
  }

  MqContext& operator[](int i) { return ctx_[static_cast<std::size_t>(i)]; }

 private:
  MqContext ctx_[kNumT1Contexts];
};

/// Zero-coding context (Annex D Table D.1) from neighbor significance
/// counts: h in [0,2] horizontal, v in [0,2] vertical, d in [0,4] diagonal.
int zc_context(SubbandOrient orient, int h, int v, int d);

/// Sign-coding context and XOR bit (Annex D Table D.2) from the clamped
/// horizontal and vertical sign contributions hc, vc ∈ {-1, 0, +1}.
struct ScLookup {
  int context;
  int xor_bit;
};
ScLookup sc_lookup(int hc, int vc);

/// Tier-1 code-block style options (the Part-1 COD "code block style"
/// flags this library supports).  Both default off, as in the paper.
struct T1Options {
  /// RESET: re-initialize all contexts at the start of every coding pass.
  /// Slightly worse compression, but passes become independent of the
  /// adaptation history (useful with per-pass termination).
  bool reset_contexts = false;
  /// Vertically stripe-causal contexts (VSC): coefficients in the stripe
  /// below never contribute to context formation, so stripes can be
  /// decoded without waiting for later data.
  bool vertically_causal = false;
};

/// Coding pass types, in the order they occur within a bit plane.
enum class PassType : std::uint8_t {
  kSignificance = 0,  ///< Significance propagation pass.
  kRefinement = 1,    ///< Magnitude refinement pass.
  kCleanup = 2,       ///< Cleanup pass.
};

/// Per-pass record produced by the encoder, consumed by rate control and
/// Tier-2.
struct PassInfo {
  PassType type;
  int bitplane;              ///< Magnitude bit plane this pass coded.
  std::size_t trunc_len;     ///< Codeword bytes if truncated after this pass.
  double dist_reduction;     ///< Decrease in squared magnitude error.
  std::uint64_t symbols;     ///< MQ decisions coded in this pass.
};

/// Result of encoding one code block.
struct T1EncodedBlock {
  std::vector<std::uint8_t> data;  ///< Terminated MQ codeword.
  std::vector<PassInfo> passes;    ///< In coding order; may be empty.
  int num_bitplanes = 0;           ///< Magnitude bit planes actually coded.
  std::uint64_t total_symbols = 0; ///< Instrumentation for the cost models.
};

/// Flag bits for the bordered per-coefficient state array.
inline constexpr std::uint16_t kFlagSig = 1;      ///< Significant.
inline constexpr std::uint16_t kFlagVisit = 2;    ///< Coded in current SPP.
inline constexpr std::uint16_t kFlagRefined = 4;  ///< Refined at least once.
inline constexpr std::uint16_t kFlagSign = 8;     ///< Coefficient negative.

/// Shared neighborhood queries over the bordered flag array.  The array has
/// a one-cell border so neighbor reads never need bounds checks.
struct T1Flags {
  explicit T1Flags(std::size_t w, std::size_t h)
      : width(w), height(h), stride(w + 2),
        cells((w + 2) * (h + 2), 0) {}

  std::size_t index(std::size_t y, std::size_t x) const {
    return (y + 1) * stride + (x + 1);
  }
  std::uint16_t& at(std::size_t y, std::size_t x) {
    return cells[index(y, x)];
  }
  std::uint16_t at(std::size_t y, std::size_t x) const {
    return cells[index(y, x)];
  }

  /// Horizontal / vertical / diagonal significant-neighbor counts.
  /// With `causal` set and (y, x) on the last row of its stripe, the three
  /// neighbors below are treated as insignificant (VSC).
  void neighbor_counts(std::size_t y, std::size_t x, int& h, int& v, int& d,
                       bool causal = false) const {
    const std::size_t i = index(y, x);
    const auto sig = [&](std::size_t j) {
      return static_cast<int>(cells[j] & kFlagSig);
    };
    const bool mask_below = causal && (y % 4 == 3);
    h = sig(i - 1) + sig(i + 1);
    v = sig(i - stride) + (mask_below ? 0 : sig(i + stride));
    d = sig(i - stride - 1) + sig(i - stride + 1) +
        (mask_below ? 0 : sig(i + stride - 1) + sig(i + stride + 1));
  }

  /// Clamped sign contributions for sign coding (same VSC masking).
  void sign_contributions(std::size_t y, std::size_t x, int& hc, int& vc,
                          bool causal = false) const {
    const std::size_t i = index(y, x);
    const auto contrib = [&](std::size_t j) {
      const std::uint16_t f = cells[j];
      if (!(f & kFlagSig)) return 0;
      return (f & kFlagSign) ? -1 : 1;
    };
    const bool mask_below = causal && (y % 4 == 3);
    hc = contrib(i - 1) + contrib(i + 1);
    if (hc > 1) hc = 1;
    if (hc < -1) hc = -1;
    vc = contrib(i - stride) + (mask_below ? 0 : contrib(i + stride));
    if (vc > 1) vc = 1;
    if (vc < -1) vc = -1;
  }

  void clear_visit() {
    for (auto& f : cells) f &= static_cast<std::uint16_t>(~kFlagVisit);
  }

  std::size_t width;
  std::size_t height;
  std::size_t stride;
  std::vector<std::uint16_t> cells;
};

/// Height of the Tier-1 scan stripe.
inline constexpr std::size_t kStripeHeight = 4;

/// Block prescan shared by both block coders: returns max |coeff| (which
/// fixes the coded bit-plane count).  With `mag`, also stores
/// mag[y*width+x] = |coeffs(y,x)| and sets kFlagSign in `flags` for every
/// negative sample (the EBCOT coder's magnitude/sign planes).
std::uint32_t block_prescan(Span2d<const Sample> coeffs,
                            std::uint32_t* mag = nullptr,
                            T1Flags* flags = nullptr);

}  // namespace cj2k::jp2k
