// Tier-1 (EBCOT block coder) shared definitions: context numbering, the
// zero-coding / sign-coding / magnitude-refinement context tables from
// ISO/IEC 15444-1 Annex D, coefficient flags, and pass bookkeeping.
#pragma once

#include <bit>
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
/// (ZC(0) starts in table state 4, RL in 3, UNIFORM in 46; as kMqStates
/// indices with MPS 0, 8, 6 and 92).
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

/// Height of the Tier-1 scan stripe.
inline constexpr std::size_t kStripeHeight = 4;

/// Per-sample flags: one 16-bit lane of a stripe-column word (T1Flags).
/// Bits 0..7 are the significance of the eight neighbours and bits 8..11
/// the signs of the four direct ones, kept current as neighbours become
/// significant; bits 12..15 are the sample's own state.  The low byte
/// indexes the zero-coding table and bits 4..11 the sign-coding table.
inline constexpr std::uint16_t kNbNW = 1 << 0;   ///< North-west significant.
inline constexpr std::uint16_t kNbNE = 1 << 1;   ///< North-east significant.
inline constexpr std::uint16_t kNbSW = 1 << 2;   ///< South-west significant.
inline constexpr std::uint16_t kNbSE = 1 << 3;   ///< South-east significant.
inline constexpr std::uint16_t kNbN = 1 << 4;    ///< North significant.
inline constexpr std::uint16_t kNbS = 1 << 5;    ///< South significant.
inline constexpr std::uint16_t kNbW = 1 << 6;    ///< West significant.
inline constexpr std::uint16_t kNbE = 1 << 7;    ///< East significant.
inline constexpr std::uint16_t kSgnN = 1 << 8;   ///< North negative.
inline constexpr std::uint16_t kSgnS = 1 << 9;   ///< South negative.
inline constexpr std::uint16_t kSgnW = 1 << 10;  ///< West negative.
inline constexpr std::uint16_t kSgnE = 1 << 11;  ///< East negative.
inline constexpr std::uint16_t kNbMask = 0xFF;   ///< Any neighbour significant.
inline constexpr std::uint16_t kFlagSig = 1 << 12;      ///< Significant.
inline constexpr std::uint16_t kFlagVisit = 1 << 13;    ///< Coded in this SPP.
inline constexpr std::uint16_t kFlagRefined = 1 << 14;  ///< Refined before.
inline constexpr std::uint16_t kFlagSign = 1 << 15;     ///< Negative.

/// Magnitude-refinement context (Annex D) of a lane's flags:
/// MR+2 once refined, else MR+1 with a significant neighbour, MR without.
inline int mr_context(std::uint32_t lane) {
  static constexpr std::uint8_t kCtx[4] = {kCtxMrBase, kCtxMrBase + 1,
                                           kCtxMrBase + 2, kCtxMrBase + 2};
  return kCtx[((lane & kFlagRefined) >> 13) | ((lane & kNbMask) != 0)];
}

/// A lane flag replicated into all four lanes of a column word.
constexpr std::uint64_t t1_all_lanes(std::uint16_t bits) {
  return std::uint64_t{bits} * 0x0001000100010001ull;
}

/// Tier-1 coefficient state in stripe-column order: one 64-bit word per
/// column of a 4-row stripe, lane j (bits 16j..16j+15) holding the sample
/// in row 4·stripe + j.  The word array has a one-word border on every
/// side, so neighbour updates never need bounds checks; lanes of a partial
/// last stripe past the block height are never coded.
class T1Flags {
 public:
  /// With `vertically_causal` (VSC), samples in the stripe below never
  /// reach a stripe's lane 3: the marks they would leave there are masked.
  T1Flags(std::size_t w, std::size_t h, bool vertically_causal = false)
      : height_(h),
        stripes_((h + kStripeHeight - 1) / kStripeHeight),
        stride_(w + 2),
        lane3_mask_(vertically_causal ? 0 : std::uint64_t{0xFFFF} << 48),
        words_((stripes_ + 2) * stride_, 0) {}

  std::size_t stripes() const { return stripes_; }

  /// Rows of `stripe` inside the block (4 except on a partial last stripe).
  unsigned lanes(std::size_t stripe) const {
    const std::size_t left = height_ - stripe * kStripeHeight;
    return left < kStripeHeight ? static_cast<unsigned>(left) : 4u;
  }

  /// Word of column x in `stripe`; x + 1 and x - 1 are its neighbours.
  std::uint64_t* column(std::size_t stripe, std::size_t x) {
    return &words_[(stripe + 1) * stride_ + x + 1];
  }

  /// Flags of the sample at (y, x).
  std::uint16_t at(std::size_t y, std::size_t x) const {
    const std::uint64_t word =
        words_[(y / kStripeHeight + 1) * stride_ + x + 1];
    return static_cast<std::uint16_t>(word >> (16 * (y % kStripeHeight)));
  }

  /// Flags of lane j of a column word.
  static std::uint32_t lane(std::uint64_t word, unsigned j) {
    return static_cast<std::uint32_t>(word >> (16 * j)) & 0xFFFF;
  }

  /// Lane-set masks over a column word mark lane j by one bit in its
  /// 16-bit field; lane_index maps a mask bit back to its lane.
  static unsigned lane_index(std::uint64_t mask) {
    return static_cast<unsigned>(std::countr_zero(mask)) / 16;
  }

  /// Mask of the lanes of `stripe` inside the block.
  std::uint64_t lane_mask(std::size_t stripe) const {
    const unsigned n = lanes(stripe);
    return n == kStripeHeight ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << (16 * n)) - 1;
  }

  /// Lanes the significance pass codes: insignificant with a significant
  /// neighbour (bit 8 of each).  Adding 0xFF to a lane's neighbour byte
  /// carries into bit 8 exactly when the byte is nonzero; shifting the word
  /// right by 4 brings kFlagSig to bit 8.
  static std::uint64_t spp_lanes(std::uint64_t word) {
    constexpr std::uint64_t nb = t1_all_lanes(kNbMask);
    return ((word & nb) + nb) & ~(word >> 4) & t1_all_lanes(1 << 8);
  }

  /// Lanes the refinement pass codes: significant and not visited by this
  /// plane's significance pass (kFlagSig of each).
  static std::uint64_t mrp_lanes(std::uint64_t word) {
    return word & ~(word >> 1) & t1_all_lanes(kFlagSig);
  }

  /// Lanes the cleanup pass codes: insignificant and unvisited (kFlagSig of
  /// each).
  static std::uint64_t cleanup_lanes(std::uint64_t word) {
    return ~(word | (word >> 1)) & t1_all_lanes(kFlagSig);
  }

  /// Run mode: all four lanes insignificant and unvisited, with no
  /// significant neighbour.
  static bool run_mode(std::uint64_t word) {
    return (word & t1_all_lanes(kFlagSig | kFlagVisit | kNbMask)) == 0;
  }

  /// Mask bits of lanes after lane j.
  static std::uint64_t lanes_after(unsigned j) {
    return j >= 3 ? 0 : ~std::uint64_t{0} << (16 * (j + 1));
  }

  static constexpr std::uint64_t kVisitAll = t1_all_lanes(kFlagVisit);

  /// Sets the sample in `lane` of column word `col` significant (with its
  /// sign) and records it in the neighbour bits of the eight samples
  /// around it, across stripe boundaries.
  [[gnu::always_inline]] void mark_significant(std::uint64_t* col,
                                               unsigned lane, bool negative) {
    const std::uint16_t sg = negative ? 0xFFFF : 0;
    // Three-lane patterns (row above, own row, row below), as the left
    // neighbour column, the sample's own column and the right one see it.
    const std::uint64_t left = kNbSE |
                               (std::uint64_t(kNbE | (kSgnE & sg)) << 16) |
                               (std::uint64_t(kNbNE) << 32);
    const std::uint64_t own =
        std::uint64_t(kNbS | (kSgnS & sg)) |
        (std::uint64_t(kFlagSig | (kFlagSign & sg)) << 16) |
        (std::uint64_t(kNbN | (kSgnN & sg)) << 32);
    const std::uint64_t right = kNbSW |
                                (std::uint64_t(kNbW | (kSgnW & sg)) << 16) |
                                (std::uint64_t(kNbNW) << 32);
    // Centre each pattern on `lane`; rows past the word are dropped here
    // and applied to the stripe above or below.
    const auto place = [lane](std::uint64_t pat) {
      return lane == 0 ? pat >> 16 : pat << (16 * (lane - 1));
    };
    col[-1] |= place(left);
    col[0] |= place(own);
    col[1] |= place(right);
    if (lane == 0) {
      std::uint64_t* up = col - stride_;
      up[-1] |= (left << 48) & lane3_mask_;
      up[0] |= (own << 48) & lane3_mask_;
      up[1] |= (right << 48) & lane3_mask_;
    } else if (lane == 3) {
      std::uint64_t* down = col + stride_;
      down[-1] |= left >> 32;
      down[0] |= own >> 32;
      down[1] |= right >> 32;
    }
  }

 private:
  std::size_t height_;
  std::size_t stripes_;
  std::size_t stride_;
  /// Lane 3 of a word, where marks from the stripe below land; 0 under VSC.
  std::uint64_t lane3_mask_;
  std::vector<std::uint64_t> words_;
};

/// Zero-coding and sign-coding contexts as lookups on a lane's neighbour
/// bits, built once from zc_context and sc_lookup.
struct T1Tables {
  /// [orient][lane & kNbMask] -> ZC context.
  std::uint8_t zc[4][256];
  /// [(lane >> 4) & 0xFF] -> SC context | xor_bit << 7.
  std::uint8_t sc[256];
};
const T1Tables& t1_tables();

/// Block prescan shared by both block coders: returns max |coeff| (which
/// fixes the coded bit-plane count).  With `mag`, also stores |coeffs(y,x)|
/// in stripe-column order, at mag[(y / 4 * width + x) * 4 + y % 4], and
/// sets kFlagSign in `flags` for every negative sample (the EBCOT coder's
/// magnitude/sign planes); `mag` holds flags->stripes() * 4 * width
/// entries, and `flags` must be fresh.
std::uint32_t block_prescan(Span2d<const Sample> coeffs,
                            std::uint32_t* mag = nullptr,
                            T1Flags* flags = nullptr);

}  // namespace cj2k::jp2k
