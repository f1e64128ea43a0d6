#include "jp2k/t1_encoder.hpp"

#include <cmath>
#include <cstdlib>

#include "common/error.hpp"
#include "jp2k/mq_encoder.hpp"

namespace cj2k::jp2k {

namespace {

/// Working state for one block encode.
class BlockEncoder {
 public:
  BlockEncoder(Span2d<const Sample> coeffs, SubbandOrient orient,
               const T1Options& options)
      : w_(coeffs.width()),
        h_(coeffs.height()),
        orient_(orient),
        opt_(options),
        flags_(w_, h_),
        mag_(w_ * h_) {
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

    for (int p = num_planes_ - 1; p >= 0; --p) {
      if (p != num_planes_ - 1) {
        if (opt_.reset_contexts) ctx_.reset();
        significance_pass(p);
        finish_pass(out, PassType::kSignificance, p);
        if (opt_.reset_contexts) ctx_.reset();
        refinement_pass(p);
        finish_pass(out, PassType::kRefinement, p);
      }
      if (opt_.reset_contexts) ctx_.reset();
      cleanup_pass(p);
      finish_pass(out, PassType::kCleanup, p);
      flags_.clear_visit();
    }
    mq_.flush();
    out.data = mq_.take_bytes();
    // The final pass's truncation estimate may exceed the flushed length;
    // clamp every stored estimate to the real terminated size.
    for (auto& pi : out.passes) {
      if (pi.trunc_len > out.data.size()) pi.trunc_len = out.data.size();
    }
    out.total_symbols = symbols_total_;
    return out;
  }

 private:
  std::uint32_t mag(std::size_t y, std::size_t x) const {
    return mag_[y * w_ + x];
  }

  /// Squared-error reduction when the decoder's reconstruction of `m`
  /// improves from knowing planes > p to knowing planes >= p (midpoint
  /// reconstruction on both sides).
  double dist_delta(std::uint32_t m, int p) const {
    const std::uint32_t hi_known = (m >> (p + 1)) << (p + 1);
    const std::uint32_t lo_known = (m >> p) << p;
    const double rec_old =
        hi_known == 0 ? 0.0
                      : static_cast<double>(hi_known) + (1u << p);
    const double rec_new =
        lo_known == 0
            ? 0.0
            : static_cast<double>(lo_known) + (p > 0 ? (1u << (p - 1)) : 0u);
    const double e_old = static_cast<double>(m) - rec_old;
    const double e_new = static_cast<double>(m) - rec_new;
    return e_old * e_old - e_new * e_new;
  }

  void encode_sign(std::size_t y, std::size_t x) {
    int hc, vc;
    flags_.sign_contributions(y, x, hc, vc, opt_.vertically_causal);
    const ScLookup sc = sc_lookup(hc, vc);
    const int sign = (flags_.at(y, x) & kFlagSign) ? 1 : 0;
    mq_.encode(ctx_[sc.context], sign ^ sc.xor_bit);
  }

  /// Codes the significance decision for (y, x) at plane p; returns true if
  /// the coefficient became significant.
  bool code_significance(std::size_t y, std::size_t x, int p, int zc_ctx) {
    const int bit = static_cast<int>((mag(y, x) >> p) & 1);
    mq_.encode(ctx_[zc_ctx], bit);
    if (bit) {
      encode_sign(y, x);
      flags_.at(y, x) |= kFlagSig;
      pass_dist_ += dist_delta(mag(y, x), p);
      return true;
    }
    return false;
  }

  void significance_pass(int p) {
    for (std::size_t y0 = 0; y0 < h_; y0 += kStripeHeight) {
      const std::size_t ymax = std::min(y0 + kStripeHeight, h_);
      for (std::size_t x = 0; x < w_; ++x) {
        for (std::size_t y = y0; y < ymax; ++y) {
          std::uint16_t& f = flags_.at(y, x);
          if (f & kFlagSig) continue;
          int h, v, d;
          flags_.neighbor_counts(y, x, h, v, d, opt_.vertically_causal);
          if (h + v + d == 0) continue;  // not in the preferred neighborhood
          code_significance(y, x, p, zc_context(orient_, h, v, d));
          f |= kFlagVisit;
        }
      }
    }
  }

  void refinement_pass(int p) {
    for (std::size_t y0 = 0; y0 < h_; y0 += kStripeHeight) {
      const std::size_t ymax = std::min(y0 + kStripeHeight, h_);
      for (std::size_t x = 0; x < w_; ++x) {
        for (std::size_t y = y0; y < ymax; ++y) {
          std::uint16_t& f = flags_.at(y, x);
          if (!(f & kFlagSig) || (f & kFlagVisit)) continue;
          int mr_ctx;
          if (!(f & kFlagRefined)) {
            int h, v, d;
            flags_.neighbor_counts(y, x, h, v, d, opt_.vertically_causal);
            mr_ctx = (h + v + d > 0) ? kCtxMrBase + 1 : kCtxMrBase;
          } else {
            mr_ctx = kCtxMrBase + 2;
          }
          const int bit = static_cast<int>((mag(y, x) >> p) & 1);
          mq_.encode(ctx_[mr_ctx], bit);
          f |= kFlagRefined;
          pass_dist_ += dist_delta(mag(y, x), p);
        }
      }
    }
  }

  void cleanup_pass(int p) {
    for (std::size_t y0 = 0; y0 < h_; y0 += kStripeHeight) {
      const std::size_t ymax = std::min(y0 + kStripeHeight, h_);
      const bool full_stripe = (ymax - y0) == kStripeHeight;
      for (std::size_t x = 0; x < w_; ++x) {
        std::size_t y = y0;
        // Run-length mode: full stripe column, all four insignificant,
        // unvisited, and with entirely insignificant neighborhoods.
        bool run_mode = full_stripe;
        if (run_mode) {
          for (std::size_t j = y0; j < ymax; ++j) {
            const std::uint16_t f = flags_.at(j, x);
            if (f & (kFlagSig | kFlagVisit)) {
              run_mode = false;
              break;
            }
            int h, v, d;
            flags_.neighbor_counts(j, x, h, v, d, opt_.vertically_causal);
            if (h + v + d != 0) {
              run_mode = false;
              break;
            }
          }
        }
        if (run_mode) {
          int first_one = -1;
          for (std::size_t j = 0; j < kStripeHeight; ++j) {
            if ((mag(y0 + j, x) >> p) & 1) {
              first_one = static_cast<int>(j);
              break;
            }
          }
          if (first_one < 0) {
            mq_.encode(ctx_[kCtxRunLength], 0);
            continue;  // whole column stays insignificant
          }
          mq_.encode(ctx_[kCtxRunLength], 1);
          mq_.encode(ctx_[kCtxUniform], (first_one >> 1) & 1);
          mq_.encode(ctx_[kCtxUniform], first_one & 1);
          const std::size_t yr = y0 + static_cast<std::size_t>(first_one);
          encode_sign(yr, x);
          flags_.at(yr, x) |= kFlagSig;
          pass_dist_ += dist_delta(mag(yr, x), p);
          y = yr + 1;
        }
        for (; y < ymax; ++y) {
          const std::uint16_t f = flags_.at(y, x);
          if (f & (kFlagSig | kFlagVisit)) continue;
          int h, v, d;
          flags_.neighbor_counts(y, x, h, v, d, opt_.vertically_causal);
          code_significance(y, x, p, zc_context(orient_, h, v, d));
        }
      }
    }
  }

  void finish_pass(T1EncodedBlock& out, PassType type, int plane) {
    PassInfo pi;
    pi.type = type;
    pi.bitplane = plane;
    pi.trunc_len = mq_.truncation_length();
    pi.dist_reduction = pass_dist_;
    pi.symbols = mq_.decisions() - symbols_total_;
    symbols_total_ = mq_.decisions();
    pass_dist_ = 0.0;
    out.passes.push_back(pi);
  }

  std::size_t w_;
  std::size_t h_;
  SubbandOrient orient_;
  T1Options opt_;
  T1Flags flags_;
  std::vector<std::uint32_t> mag_;
  int num_planes_ = 0;
  MqEncoder mq_;
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

}  // namespace cj2k::jp2k
