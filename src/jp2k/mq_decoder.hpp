// MQ arithmetic decoder (ISO/IEC 15444-1 Annex C).
#pragma once

#include <bit>
#include <cstdint>

#include "jp2k/mq.hpp"

namespace cj2k::jp2k {

/// Streaming MQ decoder over a byte buffer.  Reads past the end of the
/// buffer return 0xFF as the standard requires (the decoder then synthesizes
/// 1-bits, which is what makes truncated codewords decodable).
///
/// Like MqEncoder, the decoder is a trivially copyable value (A, C, CT and
/// the read position), so a Tier-1 pass decodes through a local copy whose
/// registers never round-trip through memory.
class MqDecoder {
 public:
  MqDecoder(const std::uint8_t* data, std::size_t size) { init(data, size); }

  /// (Re)initializes on a new buffer (Annex C INITDEC).
  void init(const std::uint8_t* data, std::size_t size) {
    data_ = data;
    size_ = size;
    bp_ = 0;
    c_ = static_cast<std::uint32_t>(byte_at(0)) << 16;
    bytein();
    c_ <<= 7;
    ct_ -= 7;
    a_ = 0x8000;
  }

  /// Decodes one binary decision in context `cx`.  The MPS sense comes
  /// from the state byte itself, not from its table row, so the decided
  /// bit does not wait on the table load.
  [[gnu::always_inline]] int decode(MqContext& cx) {
    const MqState& st = kMqStates[cx.state];
    const std::uint32_t qe = st.qe;
    const int mps = cx.state & 1;
    int d;
    a_ -= qe;
    if ((c_ >> 16) < qe) {
      // LPS exchange path (Figure C.16 right side).
      if (a_ < qe) {
        d = mps;
        cx.state = st.nmps;
      } else {
        d = 1 - mps;
        cx.state = st.nlps;
      }
      a_ = qe;
    } else {
      c_ -= qe << 16;
      if (a_ & 0x8000) return mps;
      // MPS exchange path.
      if (a_ < qe) {
        d = 1 - mps;
        cx.state = st.nlps;
      } else {
        d = mps;
        cx.state = st.nmps;
      }
    }
    renorm();
    return d;
  }

  /// The Tier-1 walk's coder call (jp2k/t1_walk.hpp): decodes a decision
  /// in context `cx`; `d`, the bit an encoder would code, is ignored.
  [[gnu::always_inline]] int code(MqContext& cx, int /*d*/) {
    return decode(cx);
  }

 private:
  /// BYTEIN (Annex C, Figure C.17).
  [[gnu::always_inline]] void bytein() {
    if (byte_at(bp_) == 0xFF) {
      if (byte_at(bp_ + 1) > 0x8F) {
        // A marker (or the end of data): feed 1-bits without consuming.
        c_ += 0xFF00;
        ct_ = 8;
      } else {
        ++bp_;
        c_ += static_cast<std::uint32_t>(byte_at(bp_)) << 9;
        ct_ = 7;
      }
    } else {
      ++bp_;
      c_ += static_cast<std::uint32_t>(byte_at(bp_)) << 8;
      ct_ = 8;
    }
  }

  /// Renormalizes A with one count-leading-zeros shift, reading a byte
  /// whenever CT is exhausted before the shift completes, exactly as the
  /// bit-by-bit RENORMD loop would.  A is in [1, 0x7FFF] here.
  [[gnu::always_inline]] void renorm() {
    int n = std::countl_zero(a_) - 16;
    a_ <<= n;
    while (ct_ < n) {
      c_ <<= ct_;
      n -= ct_;
      bytein();
    }
    c_ <<= n;
    ct_ -= n;
  }

  std::uint8_t byte_at(std::size_t i) const {
    return i < size_ ? data_[i] : 0xFF;
  }

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t bp_ = 0;  ///< Index of the "current" byte B.
  std::uint32_t c_ = 0;
  std::uint32_t a_ = 0;
  int ct_ = 0;
};

}  // namespace cj2k::jp2k
