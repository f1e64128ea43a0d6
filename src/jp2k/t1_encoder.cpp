#include "jp2k/t1_encoder.hpp"

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "jp2k/mq_encoder.hpp"
#include "jp2k/t1_walk.hpp"

namespace cj2k::jp2k {

namespace {

/// Stands in for MqEncoder to log a block's decisions uncoded: each one's
/// context, as its index in the block's context bank, and its bit.
class DecisionRecorder {
 public:
  DecisionRecorder(const MqContext* bank, std::vector<T1Decision>& log)
      : bank_(bank), log_(&log) {}

  int code(const MqContext& cx, int d) {
    log_->push_back({static_cast<std::uint8_t>(&cx - bank_),
                     static_cast<std::uint8_t>(d)});
    return d;
  }

 private:
  const MqContext* bank_;
  std::vector<T1Decision>* log_;
};

/// The walk's end-of-pass call for the encoder: appends each pass's
/// PassInfo to `out`.
struct PassRecorder {
  T1EncodedBlock& out;
  std::uint64_t symbols = 0;  ///< Decisions coded by earlier passes.

  [[gnu::always_inline]] bool operator()(const MqEncoder& mq, PassType type,
                                         int plane, double dist) {
    out.passes.push_back({type, plane, mq.truncation_length(), dist,
                          mq.decisions() - symbols});
    symbols = mq.decisions();
    return true;
  }
};

/// The walk of one block to encode, loaded with its coefficients; returns
/// the coded bit-plane count in `planes`.  It takes the span by reference:
/// passed by value it goes on the stack, and a call with stack arguments
/// makes gcc give the caller's pass loops a frame pointer, one register
/// fewer (~5% of a lossless block encode).
T1Walk load_block(const Span2d<const Sample>& coeffs, SubbandOrient orient,
                  const T1Options& options, int& planes) {
  CJ2K_CHECK_MSG(coeffs.width() >= 1 && coeffs.width() <= 1024 &&
                     coeffs.height() >= 1 && coeffs.height() <= 1024,
                 "code block dimensions out of range");
  T1Walk walk(coeffs.width(), coeffs.height(), orient, options);
  planes = walk.load(coeffs);
  return walk;
}

}  // namespace

T1EncodedBlock t1_encode_block(Span2d<const Sample> coeffs,
                               SubbandOrient orient,
                               const T1Options& options) {
  T1EncodedBlock out;
  T1Walk walk = load_block(coeffs, orient, options, out.num_bitplanes);
  if (out.num_bitplanes == 0) return out;  // all-zero block: no passes.

  // Started only here, so an all-zero block allocates no codeword.
  MqEncoder mq(out.data);
  walk.code(mq, out.num_bitplanes, PassRecorder{out});
  mq.flush();
  // The final pass's truncation estimate may exceed the flushed length;
  // clamp every stored estimate to the real terminated size.
  for (auto& pi : out.passes) {
    if (pi.trunc_len > out.data.size()) pi.trunc_len = out.data.size();
  }
  out.total_symbols = mq.decisions();
  return out;
}

std::vector<T1Decision> t1_decision_stream(Span2d<const Sample> coeffs,
                                           SubbandOrient orient,
                                           const T1Options& options) {
  int planes = 0;
  T1Walk walk = load_block(coeffs, orient, options, planes);
  std::vector<T1Decision> log;
  DecisionRecorder rec(&walk.contexts()[0], log);
  walk.code(rec, planes, [](const DecisionRecorder&, PassType, int, double) {
    return true;
  });
  return log;
}

}  // namespace cj2k::jp2k
