// MQ arithmetic encoder (ISO/IEC 15444-1 Annex C software conventions).
#pragma once

#include <bit>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "jp2k/mq.hpp"

namespace cj2k::jp2k {

/// Streaming MQ encoder writing into a caller-owned byte vector.  Contexts
/// live outside the coder (they belong to the Tier-1 code-block state) and
/// are passed per decision.
///
/// The coder is a trivially copyable value: the A, C and CT registers, the
/// decision count and a cursor into the output vector.  A Tier-1 coding
/// pass copies it into a local, codes every decision through the inline
/// encode(), and copies it back, so the registers stay in machine registers
/// for the whole pass instead of being reloaded after each context store.
class MqEncoder {
 public:
  /// Starts a codeword in `out`, which the coder treats as raw storage
  /// until flush() trims it to the terminated codeword.  `out` must outlive
  /// the coder and every copy of it.
  explicit MqEncoder(std::vector<std::uint8_t>& out);

  /// Encodes one binary decision `d` (0/1) in context `cx`.
  [[gnu::always_inline]] void encode(MqContext& cx, int d) {
    ++decisions_;
    const MqState& st = kMqStates[cx.state];
    const std::uint32_t qe = st.qe;
    a_ -= qe;
    // CODEMPS / CODELPS (Annex C, Figures C.6 and C.7) without a branch on
    // the decision: A takes Qe exactly when the coded symbol's sub-interval
    // is the lower one, i.e. when "is MPS" equals the conditional exchange
    // test A < Qe; otherwise C advances past the lower sub-interval.
    const bool mps = d == (cx.state & 1);
    const std::uint32_t take_qe =
        0u - static_cast<std::uint32_t>(mps == (a_ < qe));
    c_ += qe & ~take_qe;
    a_ = (qe & take_qe) | (a_ & ~take_qe);
    if (a_ & 0x8000) return;  // only an MPS can leave A normalized
    cx.state = mps ? st.nmps : st.nlps;
    renorm();
  }

  /// The Tier-1 walk's coder call (jp2k/t1_walk.hpp): encodes `d` in
  /// context `cx` and returns it.
  [[gnu::always_inline]] int code(MqContext& cx, int d) {
    encode(cx, d);
    return d;
  }

  /// Terminates the codeword (Annex C FLUSH) so the emitted bytes decode
  /// unambiguously, and leaves exactly it in the output vector.  Must be called
  /// exactly once, after the last encode(); only decisions() stays
  /// meaningful afterwards.
  void flush();

  /// Number of bytes the codeword would occupy if truncated after the
  /// decision stream seen so far (Tier-1 uses this to place pass boundaries
  /// without terminating every pass).  This is the conservative estimate of
  /// Taubman's "length computation": all buffered state counts.
  std::size_t truncation_length() const {
    const auto emitted = static_cast<std::size_t>(bp_ - out_->data());
    const auto pending_bits = static_cast<std::size_t>(27 - ct_);
    return emitted + (pending_bits + 7) / 8 + 1;
  }

  /// Total decisions encoded (instrumentation for the cost models).
  std::uint64_t decisions() const { return decisions_; }

 private:
  /// Renormalizes A to [0x8000, 0xFFFF] with one count-leading-zeros shift,
  /// emitting a byte each time CT runs out, exactly as the bit-by-bit
  /// RENORME loop of Figure C.8 would.  A is in [1, 0x7FFF] here.
  [[gnu::always_inline]] void renorm() {
    int n = std::countl_zero(a_) - 16;
    a_ <<= n;
    while (n >= ct_) {
      c_ <<= ct_;
      n -= ct_;
      byteout();
    }
    c_ <<= n;
    ct_ -= n;
  }

  /// BYTEOUT (Annex C, Figure C.8).  *bp_ plays the role of register B;
  /// the output vector's first byte is a zero placeholder for the B that
  /// precedes the codeword, so a carry out of the first byte lands there.
  [[gnu::always_inline]] void byteout() {
    if (bp_ + 1 == end_) std::tie(bp_, end_) = grow(*out_, bp_);
    if (*bp_ == 0xFF) {
      // Bit stuffing after an 0xFF byte: only 7 bits go out.
      *++bp_ = static_cast<std::uint8_t>(c_ >> 20);
      c_ &= 0xFFFFF;
      ct_ = 7;
      return;
    }
    if (c_ >= 0x8000000) {
      // Propagate the carry into the previous byte.
      ++*bp_;
      if (*bp_ == 0xFF) {
        c_ &= 0x7FFFFFF;
        *++bp_ = static_cast<std::uint8_t>(c_ >> 20);
        c_ &= 0xFFFFF;
        ct_ = 7;
        return;
      }
    }
    *++bp_ = static_cast<std::uint8_t>(c_ >> 19);
    c_ &= 0x7FFFF;
    ct_ = 8;
  }

  /// Doubles the output storage; returns the moved cursor and end.
  static std::pair<std::uint8_t*, std::uint8_t*> grow(
      std::vector<std::uint8_t>& out, std::uint8_t* bp);

  std::vector<std::uint8_t>* out_;
  std::uint8_t* bp_;          ///< Last byte written (B).
  std::uint8_t* end_;         ///< One past the usable storage.
  std::uint32_t c_ = 0;       ///< Code register.
  std::uint32_t a_ = 0x8000;  ///< Interval register.
  int ct_ = 12;               ///< Bits until next byteout.
  std::uint64_t decisions_ = 0;
};

}  // namespace cj2k::jp2k
