#include "jp2k/t1_decoder.hpp"

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"
#include "jp2k/mq_decoder.hpp"

namespace cj2k::jp2k {

namespace {

class BlockDecoder {
 public:
  BlockDecoder(const std::uint8_t* data, std::size_t size, int num_bitplanes,
               int num_passes, SubbandOrient orient, Span2d<Sample> out,
               const T1Options& options)
      : opt_(options),
        w_(out.width()),
        h_(out.height()),
        num_planes_(num_bitplanes),
        num_passes_(num_passes),
        out_(out),
        flags_(w_, h_, options.vertically_causal),
        mag_(w_ * h_, 0),
        zc_(t1_tables().zc[static_cast<int>(orient)]),
        sc_(t1_tables().sc),
        mq_(data, size) {}

  void run() {
    if (num_planes_ == 0 || num_passes_ == 0) {
      for (std::size_t y = 0; y < h_; ++y) {
        std::fill(out_.row(y), out_.row(y) + w_, Sample{0});
      }
      return;
    }

    int remaining = num_passes_;
    int final_plane = num_planes_ - 1;
    for (int p = num_planes_ - 1; p >= 0 && remaining > 0; --p) {
      final_plane = p;
      if (p != num_planes_ - 1) {
        if (opt_.reset_contexts) ctx_.reset();
        significance_pass(p);
        if (--remaining == 0) break;
        if (opt_.reset_contexts) ctx_.reset();
        refinement_pass(p);
        if (--remaining == 0) break;
      }
      if (opt_.reset_contexts) ctx_.reset();
      cleanup_pass(p);
      --remaining;
    }

    // Reconstruct: exact when final_plane == 0 and all passes ran;
    // otherwise midpoint-offset within the last decoded plane.
    const bool partial =
        final_plane > 0 || remaining > 0 ||
        num_passes_ < 1 + 3 * (num_planes_ - 1);
    reconstruct(partial && final_plane > 0 ? (1u << final_plane) >> 1 : 0);
  }

 private:
  /// Writes every sample of the block: its magnitude, plus `half` when
  /// nonzero, negated when its sign flag is set.  Walks the stripe columns,
  /// one flag word for up to four samples.
  void reconstruct(std::uint32_t half) {
    for (std::size_t s = 0; s < flags_.stripes(); ++s) {
      const unsigned lanes = flags_.lanes(s);
      const std::uint64_t* col = flags_.column(s, 0);
      const std::uint32_t* mag = &mag_[s * kStripeHeight * w_];
      Sample* rows[kStripeHeight];
      for (unsigned j = 0; j < lanes; ++j) {
        rows[j] = out_.row(s * kStripeHeight + j);
      }
      for (std::size_t x = 0; x < w_; ++x) {
        const std::uint64_t word = col[x];
        for (unsigned j = 0; j < lanes; ++j) {
          const std::uint32_t m = mag[j * w_ + x];
          const std::uint32_t v = m + (m != 0 ? half : 0);
          const std::uint32_t neg =
              0u - static_cast<std::uint32_t>(
                       ((word >> (16 * j)) & kFlagSign) != 0);
          rows[j][x] = static_cast<Sample>((v ^ neg) - neg);
        }
      }
    }
  }

  // Each pass decodes through a local copy of the MQ decoder (its register
  // discipline) and mirrors the encoder's lane-set walk exactly.

  /// Decodes the sign of the sample in `lane` of `col`, whose flags are
  /// `f`, and marks it significant.
  [[gnu::always_inline]] void decode_sign(MqDecoder& mq, std::uint64_t* col,
                                          unsigned lane, std::uint32_t f) {
    const std::uint8_t sc = sc_[(f >> 4) & 0xFF];
    const int bit = mq.decode(ctx_[sc & 0x1F]);
    flags_.mark_significant(col, lane, (bit ^ (sc >> 7)) != 0);
  }

  void significance_pass(int p) {
    MqDecoder mq = mq_;
    for (std::size_t s = 0; s < flags_.stripes(); ++s) {
      const std::uint64_t inside = flags_.lane_mask(s);
      std::uint64_t* col = flags_.column(s, 0);
      std::uint32_t* mag = &mag_[s * kStripeHeight * w_];
      for (std::size_t x = 0; x < w_; ++x, ++col, ++mag) {
        std::uint64_t todo = T1Flags::spp_lanes(*col) & inside;
        while (todo != 0) {
          const unsigned j = T1Flags::lane_index(todo);
          const std::uint32_t f = T1Flags::lane(*col, j);
          *col |= std::uint64_t{kFlagVisit} << (16 * j);
          if (mq.decode(ctx_[zc_[f & kNbMask]])) {
            decode_sign(mq, col, j, f);
            mag[j * w_] |= 1u << p;
            todo = T1Flags::spp_lanes(*col) & inside &
                   T1Flags::lanes_after(j);
          } else {
            todo &= todo - 1;
          }
        }
      }
    }
    mq_ = mq;
  }

  void refinement_pass(int p) {
    MqDecoder mq = mq_;
    for (std::size_t s = 0; s < flags_.stripes(); ++s) {
      std::uint64_t* col = flags_.column(s, 0);
      std::uint32_t* mag = &mag_[s * kStripeHeight * w_];
      for (std::size_t x = 0; x < w_; ++x, ++col, ++mag) {
        const std::uint64_t f = *col;
        std::uint64_t todo = T1Flags::mrp_lanes(f);
        if (todo == 0) continue;
        *col = f | (todo << 2);  // kFlagSig -> kFlagRefined
        do {
          const unsigned j = T1Flags::lane_index(todo);
          todo &= todo - 1;
          const std::uint32_t lf = T1Flags::lane(f, j);
          mag[j * w_] |=
              static_cast<std::uint32_t>(mq.decode(ctx_[mr_context(lf)])) << p;
        } while (todo != 0);
      }
    }
    mq_ = mq;
  }

  void cleanup_pass(int p) {
    MqDecoder mq = mq_;
    for (std::size_t s = 0; s < flags_.stripes(); ++s) {
      const std::uint64_t inside = flags_.lane_mask(s);
      const bool full = flags_.lanes(s) == kStripeHeight;
      std::uint64_t* col = flags_.column(s, 0);
      std::uint32_t* mag = &mag_[s * kStripeHeight * w_];
      for (std::size_t x = 0; x < w_; ++x, ++col, ++mag) {
        std::uint64_t todo = T1Flags::cleanup_lanes(*col) & inside;
        if (full && T1Flags::run_mode(*col)) {
          if (mq.decode(ctx_[kCtxRunLength]) == 0) continue;
          unsigned r = static_cast<unsigned>(mq.decode(ctx_[kCtxUniform]) << 1);
          r |= static_cast<unsigned>(mq.decode(ctx_[kCtxUniform]));
          decode_sign(mq, col, r, T1Flags::lane(*col, r));
          mag[r * w_] |= 1u << p;
          todo &= T1Flags::lanes_after(r);
        }
        while (todo != 0) {
          const unsigned j = T1Flags::lane_index(todo);
          todo &= todo - 1;
          const std::uint32_t f = T1Flags::lane(*col, j);
          if (mq.decode(ctx_[zc_[f & kNbMask]])) {
            decode_sign(mq, col, j, f);
            mag[j * w_] |= 1u << p;
          }
        }
        *col &= ~T1Flags::kVisitAll;
      }
    }
    mq_ = mq;
  }

  T1Options opt_;
  std::size_t w_;
  std::size_t h_;
  int num_planes_;
  int num_passes_;
  Span2d<Sample> out_;
  T1Flags flags_;
  std::vector<std::uint32_t> mag_;
  const std::uint8_t* zc_;  ///< ZC table row of the block's orientation.
  const std::uint8_t* sc_;
  MqDecoder mq_;
  T1ContextBank ctx_;
};

}  // namespace

void t1_decode_block(const std::uint8_t* data, std::size_t size,
                     int num_bitplanes, int num_passes, SubbandOrient orient,
                     Span2d<Sample> out, const T1Options& options) {
  CJ2K_CHECK_MSG(num_bitplanes >= 0 && num_bitplanes <= 31,
                 "bad bit plane count");
  const int max_passes = num_bitplanes == 0 ? 0 : 1 + 3 * (num_bitplanes - 1);
  CJ2K_CHECK_MSG(num_passes >= 0 && num_passes <= max_passes,
                 "pass count exceeds the plane budget");
  BlockDecoder(data, size, num_bitplanes, num_passes, orient, out, options)
      .run();
}

}  // namespace cj2k::jp2k
