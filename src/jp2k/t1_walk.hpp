// Tier-1 EBCOT pass walk (ISO/IEC 15444-1 Annex D): the three coding
// passes and their schedule over one code block's state, written once for
// the block encoder and the block decoder.
//
// The walk does not know its direction.  Every decision goes through
// `bit = coder.code(cx, d)`, where `d` is the bit the magnitudes and sign
// flags already hold.  MqEncoder::code codes `d` and returns it;
// MqDecoder::code ignores `d` and returns the decoded bit, which the walk
// then ORs into the magnitudes and sign flags (for the encoder that store
// writes back what is already there).  On the decoder's side `d`, the
// distortion sums and the run-length lane scan feed nothing, so they
// compile away.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/span2d.hpp"
#include "image/image.hpp"
#include "jp2k/t1_common.hpp"

namespace cj2k::jp2k {

/// Squared-error reduction when the decoder's reconstruction of `m`
/// improves from knowing planes > p to knowing planes >= p (midpoint
/// reconstruction on both sides, 0 while no plane is known).  Every error
/// is an integer below 2^31 in magnitude, so its square is exact in 64
/// bits and converting it rounds exactly as the double product
/// e * e would; the result is the double e_old^2 - e_new^2 to the bit.
[[gnu::always_inline]] inline double dist_delta(std::uint32_t m, int p) {
  const auto error = [m](int known_from, std::uint32_t half) {
    const std::uint32_t known = (m >> known_from) << known_from;
    return std::int64_t{m} - (known == 0 ? 0 : std::int64_t{known} + half);
  };
  const std::int64_t e_old = error(p + 1, 1u << p);
  const std::int64_t e_new = error(p, p > 0 ? 1u << (p - 1) : 0u);
  return static_cast<double>(e_old * e_old) -
         static_cast<double>(e_new * e_new);
}

/// One code block's Tier-1 state: the flags, the magnitudes, the ZC and SC
/// table rows and the context bank.  The magnitudes are in stripe-column
/// order like the flags (block_prescan), so a column's lanes share a cache
/// line.  The decoder starts from zero state; the encoder loads the block
/// first.
class T1Walk {
 public:
  T1Walk(std::size_t w, std::size_t h, SubbandOrient orient,
         const T1Options& options)
      : w_(w),
        reset_(options.reset_contexts),
        flags_(w, h, options.vertically_causal),
        mag_(flags_.stripes() * kStripeHeight * w),
        zc_(t1_tables().zc[static_cast<int>(orient)]),
        sc_(t1_tables().sc) {}

  /// Loads the magnitudes and sign flags of `coeffs` (the walk's own
  /// shape) and returns the number of magnitude bit planes they need.
  int load(Span2d<const Sample> coeffs) {
    return std::bit_width(block_prescan(coeffs, mag_.data(), &flags_));
  }

  /// Runs the passes of `planes` bit planes in Annex D order through
  /// `coder`.  After each pass it calls `end(coder, type, plane, dist)`,
  /// with the pass's distortion reduction, and stops when that returns
  /// false.
  template <class Coder, class End>
  void code(Coder& coder, int planes, End&& end) {
    for (int p = planes - 1; p >= 0; --p) {
      if (p != planes - 1) {
        if (reset_) ctx_.reset();
        double dist = significance_pass(coder, p);
        if (!end(coder, PassType::kSignificance, p, dist)) return;
        if (reset_) ctx_.reset();
        dist = refinement_pass(coder, p);
        if (!end(coder, PassType::kRefinement, p, dist)) return;
      }
      if (reset_) ctx_.reset();
      const double dist = cleanup_pass(coder, p);
      if (!end(coder, PassType::kCleanup, p, dist)) return;
    }
  }

  T1Flags& flags() { return flags_; }
  const std::vector<std::uint32_t>& magnitudes() const { return mag_; }
  T1ContextBank& contexts() { return ctx_; }

 private:
  // Each pass copies the block's coder into a local and back (the MQ
  // coders' register discipline), and sums its distortion in a local in
  // coding order, the order the PCRD slopes were pinned with.  The passes
  // walk each column's lane set (T1Flags masks) rather than testing every
  // lane, so a column costs one branch per coded lane.

  /// Codes the sign of the sample in `lane` of `col`, whose flags are `f`,
  /// and marks it significant.
  template <class Coder>
  [[gnu::always_inline]] void code_sign(Coder& mq, std::uint64_t* col,
                                        unsigned lane, std::uint32_t f) {
    const std::uint8_t sc = sc_[(f >> 4) & 0xFF];
    const int flip = sc >> 7;
    const int negative = (f & kFlagSign) != 0;
    const int bit = mq.code(ctx_[sc & 0x1F], negative ^ flip);
    flags_.mark_significant(col, lane, (bit ^ flip) != 0);
  }

  template <class Coder>
  [[gnu::always_inline]] double significance_pass(Coder& coder, int p) {
    Coder mq = coder;
    double dist = 0.0;
    for (std::size_t s = 0; s < flags_.stripes(); ++s) {
      const std::uint64_t inside = flags_.lane_mask(s);
      std::uint64_t* col = flags_.column(s, 0);
      std::uint32_t* mag = &mag_[s * kStripeHeight * w_];
      for (std::size_t x = 0; x < w_; ++x, ++col, mag += kStripeHeight) {
        std::uint64_t todo = T1Flags::spp_lanes(*col) & inside;
        while (todo != 0) {
          const unsigned j = T1Flags::lane_index(todo);
          const std::uint32_t f = T1Flags::lane(*col, j);
          const std::uint32_t m = mag[j];
          *col |= std::uint64_t{kFlagVisit} << (16 * j);
          if (mq.code(ctx_[zc_[f & kNbMask]], static_cast<int>((m >> p) & 1))) {
            code_sign(mq, col, j, f);
            mag[j] |= 1u << p;
            dist += dist_delta(m, p);
            // Lanes below j may have just gained a significant neighbour.
            todo = T1Flags::spp_lanes(*col) & inside &
                   T1Flags::lanes_after(j);
          } else {
            todo &= todo - 1;
          }
        }
      }
    }
    coder = mq;
    return dist;
  }

  template <class Coder>
  [[gnu::always_inline]] double refinement_pass(Coder& coder, int p) {
    Coder mq = coder;
    double dist = 0.0;
    for (std::size_t s = 0; s < flags_.stripes(); ++s) {
      std::uint64_t* col = flags_.column(s, 0);
      std::uint32_t* mag = &mag_[s * kStripeHeight * w_];
      for (std::size_t x = 0; x < w_; ++x, ++col, mag += kStripeHeight) {
        const std::uint64_t f = *col;
        std::uint64_t todo = T1Flags::mrp_lanes(f);
        if (todo == 0) continue;
        // Refinement changes no lane's context inputs within the pass.
        *col = f | (todo << 2);  // kFlagSig -> kFlagRefined
        do {
          const unsigned j = T1Flags::lane_index(todo);
          todo &= todo - 1;
          const std::uint32_t m = mag[j];
          const int bit = mq.code(ctx_[mr_context(T1Flags::lane(f, j))],
                                  static_cast<int>((m >> p) & 1));
          mag[j] = m | static_cast<std::uint32_t>(bit) << p;
          dist += dist_delta(m, p);
        } while (todo != 0);
      }
    }
    coder = mq;
    return dist;
  }

  template <class Coder>
  [[gnu::always_inline]] double cleanup_pass(Coder& coder, int p) {
    Coder mq = coder;
    double dist = 0.0;
    for (std::size_t s = 0; s < flags_.stripes(); ++s) {
      const std::uint64_t inside = flags_.lane_mask(s);
      const bool full = flags_.lanes(s) == kStripeHeight;
      std::uint64_t* col = flags_.column(s, 0);
      std::uint32_t* mag = &mag_[s * kStripeHeight * w_];
      for (std::size_t x = 0; x < w_; ++x, ++col, mag += kStripeHeight) {
        std::uint64_t todo = T1Flags::cleanup_lanes(*col) & inside;
        if (full && T1Flags::run_mode(*col)) {
          // Run-length mode (no visit bits to clear): the first lane
          // significant in this plane, or kStripeHeight for none.
          unsigned r = 0;
          while (r < kStripeHeight && !((mag[r] >> p) & 1)) ++r;
          if (!mq.code(ctx_[kCtxRunLength], r < kStripeHeight)) continue;
          const int hi = mq.code(ctx_[kCtxUniform], static_cast<int>(r >> 1));
          const int lo = mq.code(ctx_[kCtxUniform], static_cast<int>(r & 1));
          r = static_cast<unsigned>(hi << 1 | lo);
          code_sign(mq, col, r, T1Flags::lane(*col, r));
          mag[r] |= 1u << p;
          dist += dist_delta(mag[r], p);
          todo &= T1Flags::lanes_after(r);
        }
        while (todo != 0) {
          const unsigned j = T1Flags::lane_index(todo);
          todo &= todo - 1;
          const std::uint32_t f = T1Flags::lane(*col, j);
          const std::uint32_t m = mag[j];
          if (mq.code(ctx_[zc_[f & kNbMask]], static_cast<int>((m >> p) & 1))) {
            code_sign(mq, col, j, f);
            mag[j] |= 1u << p;
            dist += dist_delta(m, p);
          }
        }
        *col &= ~T1Flags::kVisitAll;
      }
    }
    coder = mq;
    return dist;
  }

  std::size_t w_;
  bool reset_;  ///< RESET: fresh contexts at every pass.
  T1Flags flags_;
  std::vector<std::uint32_t> mag_;
  const std::uint8_t* zc_;  ///< ZC table row of the block's orientation.
  const std::uint8_t* sc_;
  T1ContextBank ctx_;
};

}  // namespace cj2k::jp2k
