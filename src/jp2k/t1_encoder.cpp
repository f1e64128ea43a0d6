#include "jp2k/t1_encoder.hpp"

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "jp2k/mq_encoder.hpp"

namespace cj2k::jp2k {

namespace {

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

/// Stands in for MqEncoder to log a block's decisions uncoded: each one's
/// context, as its index in the block's context bank, and its bit.
class DecisionRecorder {
 public:
  DecisionRecorder(const MqContext* bank, std::vector<T1Decision>& log)
      : bank_(bank), log_(&log) {}

  void encode(const MqContext& cx, int d) {
    log_->push_back({static_cast<std::uint8_t>(&cx - bank_),
                     static_cast<std::uint8_t>(d)});
  }
  std::size_t truncation_length() const { return 0; }
  std::uint64_t decisions() const { return log_->size(); }

 private:
  const MqContext* bank_;
  std::vector<T1Decision>* log_;
};

/// Working state for one block encode.  The passes are templates over the
/// coder: MqEncoder, or DecisionRecorder for t1_decision_stream.
class BlockEncoder {
 public:
  BlockEncoder(Span2d<const Sample> coeffs, SubbandOrient orient,
               const T1Options& options)
      : w_(coeffs.width()),
        h_(coeffs.height()),
        opt_(options),
        flags_(w_, h_, options.vertically_causal),
        mag_(w_ * h_),
        zc_(t1_tables().zc[static_cast<int>(orient)]),
        sc_(t1_tables().sc) {
    CJ2K_CHECK_MSG(w_ >= 1 && w_ <= 1024 && h_ >= 1 && h_ <= 1024,
                   "code block dimensions out of range");
    const std::uint32_t maxmag = block_prescan(coeffs, mag_.data(), &flags_);
    num_planes_ = 0;
    while (maxmag >> num_planes_) ++num_planes_;
  }

  T1EncodedBlock run() {
    T1EncodedBlock out;
    out.num_bitplanes = num_planes_;
    if (num_planes_ == 0) return out;  // all-zero block: no passes.

    // Started only here, so an all-zero block allocates no codeword.
    MqEncoder mq(out.data);
    code_passes(mq, out);
    mq.flush();
    // The final pass's truncation estimate may exceed the flushed length;
    // clamp every stored estimate to the real terminated size.
    for (auto& pi : out.passes) {
      if (pi.trunc_len > out.data.size()) pi.trunc_len = out.data.size();
    }
    out.total_symbols = symbols_total_;
    return out;
  }

  std::vector<T1Decision> record() {
    std::vector<T1Decision> log;
    T1EncodedBlock passes;  // pass records, discarded
    DecisionRecorder rec(&ctx_[0], log);
    code_passes(rec, passes);
    return log;
  }

 private:
  template <class Coder>
  void code_passes(Coder& mq, T1EncodedBlock& out) {
    for (int p = num_planes_ - 1; p >= 0; --p) {
      if (p != num_planes_ - 1) {
        if (opt_.reset_contexts) ctx_.reset();
        significance_pass(mq, p);
        finish_pass(out, mq, PassType::kSignificance, p);
        if (opt_.reset_contexts) ctx_.reset();
        refinement_pass(mq, p);
        finish_pass(out, mq, PassType::kRefinement, p);
      }
      if (opt_.reset_contexts) ctx_.reset();
      cleanup_pass(mq, p);
      finish_pass(out, mq, PassType::kCleanup, p);
    }
  }

  // Each pass copies the block's MQ coder `coder` into a local and back
  // (MqEncoder's register discipline), and sums its distortion in a local
  // in coding order, the order the PCRD slopes were pinned with.

  /// Codes the sign of the sample in `lane` of `col`, whose flags are `f`,
  /// and marks it significant.
  template <class Coder>
  [[gnu::always_inline]] void code_sign(Coder& mq, std::uint64_t* col,
                                        unsigned lane, std::uint32_t f) {
    const std::uint8_t sc = sc_[(f >> 4) & 0xFF];
    const bool negative = (f & kFlagSign) != 0;
    mq.encode(ctx_[sc & 0x1F], static_cast<int>(negative) ^ (sc >> 7));
    flags_.mark_significant(col, lane, negative);
  }

  // The passes walk each column's lane set (T1Flags masks) rather than
  // testing every lane, so a column costs one branch per coded lane.

  template <class Coder>
  void significance_pass(Coder& coder, int p) {
    Coder mq = coder;
    double dist = 0.0;
    for (std::size_t s = 0; s < flags_.stripes(); ++s) {
      const std::uint64_t inside = flags_.lane_mask(s);
      std::uint64_t* col = flags_.column(s, 0);
      const std::uint32_t* mag = &mag_[s * kStripeHeight * w_];
      for (std::size_t x = 0; x < w_; ++x, ++col, ++mag) {
        std::uint64_t todo = T1Flags::spp_lanes(*col) & inside;
        while (todo != 0) {
          const unsigned j = T1Flags::lane_index(todo);
          const std::uint32_t f = T1Flags::lane(*col, j);
          const std::uint32_t m = mag[j * w_];
          const int bit = static_cast<int>((m >> p) & 1);
          mq.encode(ctx_[zc_[f & kNbMask]], bit);
          *col |= std::uint64_t{kFlagVisit} << (16 * j);
          if (bit) {
            code_sign(mq, col, j, f);
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
    pass_dist_ = dist;
    coder = mq;
  }

  template <class Coder>
  void refinement_pass(Coder& coder, int p) {
    Coder mq = coder;
    double dist = 0.0;
    for (std::size_t s = 0; s < flags_.stripes(); ++s) {
      std::uint64_t* col = flags_.column(s, 0);
      const std::uint32_t* mag = &mag_[s * kStripeHeight * w_];
      for (std::size_t x = 0; x < w_; ++x, ++col, ++mag) {
        const std::uint64_t f = *col;
        std::uint64_t todo = T1Flags::mrp_lanes(f);
        if (todo == 0) continue;
        // Refinement changes no lane's context inputs within the pass.
        *col = f | (todo << 2);  // kFlagSig -> kFlagRefined
        do {
          const unsigned j = T1Flags::lane_index(todo);
          todo &= todo - 1;
          const std::uint32_t lf = T1Flags::lane(f, j);
          const std::uint32_t m = mag[j * w_];
          mq.encode(ctx_[mr_context(lf)], static_cast<int>((m >> p) & 1));
          dist += dist_delta(m, p);
        } while (todo != 0);
      }
    }
    pass_dist_ = dist;
    coder = mq;
  }

  template <class Coder>
  void cleanup_pass(Coder& coder, int p) {
    Coder mq = coder;
    double dist = 0.0;
    for (std::size_t s = 0; s < flags_.stripes(); ++s) {
      const std::uint64_t inside = flags_.lane_mask(s);
      const bool full = flags_.lanes(s) == kStripeHeight;
      std::uint64_t* col = flags_.column(s, 0);
      const std::uint32_t* mag = &mag_[s * kStripeHeight * w_];
      for (std::size_t x = 0; x < w_; ++x, ++col, ++mag) {
        std::uint64_t todo = T1Flags::cleanup_lanes(*col) & inside;
        if (full && T1Flags::run_mode(*col)) {
          // Run-length mode (no visit bits to clear).
          unsigned r = 0;
          while (r < kStripeHeight && !((mag[r * w_] >> p) & 1)) ++r;
          if (r == kStripeHeight) {
            mq.encode(ctx_[kCtxRunLength], 0);
            continue;  // whole column stays insignificant
          }
          mq.encode(ctx_[kCtxRunLength], 1);
          mq.encode(ctx_[kCtxUniform], static_cast<int>(r >> 1));
          mq.encode(ctx_[kCtxUniform], static_cast<int>(r & 1));
          code_sign(mq, col, r, T1Flags::lane(*col, r));
          dist += dist_delta(mag[r * w_], p);
          todo &= T1Flags::lanes_after(r);
        }
        while (todo != 0) {
          const unsigned j = T1Flags::lane_index(todo);
          todo &= todo - 1;
          const std::uint32_t f = T1Flags::lane(*col, j);
          const std::uint32_t m = mag[j * w_];
          const int bit = static_cast<int>((m >> p) & 1);
          mq.encode(ctx_[zc_[f & kNbMask]], bit);
          if (bit) {
            code_sign(mq, col, j, f);
            dist += dist_delta(m, p);
          }
        }
        *col &= ~T1Flags::kVisitAll;
      }
    }
    pass_dist_ = dist;
    coder = mq;
  }

  template <class Coder>
  void finish_pass(T1EncodedBlock& out, const Coder& mq, PassType type,
                   int plane) {
    PassInfo pi;
    pi.type = type;
    pi.bitplane = plane;
    pi.trunc_len = mq.truncation_length();
    pi.dist_reduction = pass_dist_;
    pi.symbols = mq.decisions() - symbols_total_;
    symbols_total_ = mq.decisions();
    out.passes.push_back(pi);
  }

  std::size_t w_;
  std::size_t h_;
  T1Options opt_;
  T1Flags flags_;
  std::vector<std::uint32_t> mag_;
  const std::uint8_t* zc_;  ///< ZC table row of the block's orientation.
  const std::uint8_t* sc_;
  int num_planes_ = 0;
  T1ContextBank ctx_;
  double pass_dist_ = 0.0;
  std::uint64_t symbols_total_ = 0;
};

}  // namespace

T1EncodedBlock t1_encode_block(Span2d<const Sample> coeffs,
                               SubbandOrient orient,
                               const T1Options& options) {
  return BlockEncoder(coeffs, orient, options).run();
}

std::vector<T1Decision> t1_decision_stream(Span2d<const Sample> coeffs,
                                           SubbandOrient orient,
                                           const T1Options& options) {
  return BlockEncoder(coeffs, orient, options).record();
}

}  // namespace cj2k::jp2k
