// HT cleanup-pass block coder (see ht_block.hpp for the segment layout and
// the simplifications relative to ISO/IEC 15444-15).
#include "jp2k/ht_block.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "jp2k/codestream.hpp"

namespace cj2k::jp2k {
namespace {

// ---------------------------------------------------------------------------
// Bit I/O.  All three streams use LSB-first bit order within a byte; the
// VLC stream is byte-reversed at assembly and read backward byte-by-byte,
// so its per-byte bit order is unchanged.

/// Packs LSB-first bit fields into caller-provided storage that already
/// holds the stream's worst case, so no write checks capacity.  Fields
/// collect in a 64-bit accumulator and leave it four whole bytes at a time.
class BitPacker {
 public:
  explicit BitPacker(std::uint8_t* dst) : begin_(dst), pos_(dst) {}

  /// Appends the low `n` bits of `v` (1 <= n <= 32; no bits of `v` above
  /// bit n-1 may be set).
  void put_bits(std::uint64_t v, int n) {
    acc_ |= v << nbits_;
    nbits_ += n;
    if (nbits_ >= 32) {
      const auto word = static_cast<std::uint32_t>(acc_);
      pos_[0] = static_cast<std::uint8_t>(word);
      pos_[1] = static_cast<std::uint8_t>(word >> 8);
      pos_[2] = static_cast<std::uint8_t>(word >> 16);
      pos_[3] = static_cast<std::uint8_t>(word >> 24);
      pos_ += 4;
      acc_ >>= 32;
      nbits_ -= 32;
    }
  }

  /// Stores the pending bits, the final partial byte padded with zeros,
  /// and returns the stream length in bytes.
  std::size_t flush() {
    for (; nbits_ > 0; nbits_ -= 8) {
      *pos_++ = static_cast<std::uint8_t>(acc_);
      acc_ >>= 8;
    }
    nbits_ = 0;
    return static_cast<std::size_t>(pos_ - begin_);
  }

 private:
  std::uint8_t* begin_;
  std::uint8_t* pos_;
  std::uint64_t acc_ = 0;
  int nbits_ = 0;  ///< Pending bits in acc_, always below 32 between calls.
};

/// Forward reader over [data, data+size); reads past the end yield 0 bits
/// (mirrors the MQ decoder's defensive tail behavior).
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  unsigned get() {
    if (pos_ >= size_) return 0;
    const unsigned b = (data_[pos_] >> bit_) & 1u;
    if (++bit_ == 8) {
      bit_ = 0;
      ++pos_;
    }
    return b;
  }

  std::uint32_t get_bits(int n) {
    std::uint32_t v = 0;
    for (int i = 0; i < n; ++i) v |= get() << i;
    return v;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  int bit_ = 0;
};

/// Backward byte-order reader for the reversed VLC stream: starts at byte
/// `start` and walks toward `low`; bits within each byte are LSB-first.
/// Reads below `low` yield 0 bits.
class ReverseBitReader {
 public:
  ReverseBitReader(const std::uint8_t* data, std::ptrdiff_t start,
                   std::ptrdiff_t low)
      : data_(data), pos_(start), low_(low) {}

  unsigned get() {
    if (pos_ < low_) return 0;
    const unsigned b = (data_[pos_] >> bit_) & 1u;
    if (++bit_ == 8) {
      bit_ = 0;
      --pos_;
    }
    return b;
  }

  std::uint32_t get_bits(int n) {
    std::uint32_t v = 0;
    for (int i = 0; i < n; ++i) v |= get() << i;
    return v;
  }

 private:
  const std::uint8_t* data_;
  std::ptrdiff_t pos_;
  std::ptrdiff_t low_;
  int bit_ = 0;
};

// ---------------------------------------------------------------------------
// MEL coder: the standard's 13-state adaptive run-length coder for the
// significance of zero-context quads.  A full run of 2^E[k] insignificant
// quads emits a lone 1-bit; a significant quad interrupts the run with a
// 0-bit followed by E[k] raw bits of the partial run length.

constexpr int kMelStates = 13;
constexpr int kMelExponent[kMelStates] = {0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4, 5};

class MelEncoder {
 public:
  explicit MelEncoder(BitPacker& out) : out_(out) {}

  void encode(bool significant) {
    const int e = kMelExponent[state_];
    if (!significant) {
      if (++run_ == (1 << e)) {
        out_.put_bits(1, 1);
        run_ = 0;
        state_ = std::min(state_ + 1, kMelStates - 1);
      }
      return;
    }
    // A 0-bit, then the partial run length in E[k] raw bits.
    out_.put_bits(static_cast<std::uint64_t>(run_) << 1, 1 + e);
    run_ = 0;
    state_ = std::max(state_ - 1, 0);
  }

  /// Terminates a pending partial run by claiming it completed; the decoder
  /// over-produces insignificant events past the last quad, which it never
  /// asks for.
  void terminate() {
    if (run_ > 0) {
      out_.put_bits(1, 1);
      run_ = 0;
    }
  }

 private:
  BitPacker& out_;
  int state_ = 0;
  int run_ = 0;
};

class MelDecoder {
 public:
  explicit MelDecoder(BitReader in) : in_(in) {}

  bool decode() {
    if (zeros_ == 0 && !one_pending_) refill();
    if (zeros_ > 0) {
      --zeros_;
      return false;
    }
    one_pending_ = false;
    return true;
  }

 private:
  void refill() {
    if (in_.get()) {
      zeros_ = 1 << kMelExponent[state_];
      state_ = std::min(state_ + 1, kMelStates - 1);
    } else {
      zeros_ = static_cast<int>(in_.get_bits(kMelExponent[state_]));
      one_pending_ = true;
      state_ = std::max(state_ - 1, 0);
    }
  }

  BitReader in_;
  int state_ = 0;
  int zeros_ = 0;
  bool one_pending_ = false;
};

// ---------------------------------------------------------------------------
// u-VLC for the per-quad magnitude exponent bound, coding u = U_q - 1:
//   0 -> "0",  1 -> "10",  2 -> "110",  u >= 3 -> "111" + 5 raw bits of u-3.

/// One coded field: `len` LSB-first bits of `bits`.
struct Field {
  std::uint32_t bits;
  int len;
};

/// The quad's significance pattern rho (4 bits) followed by the u-VLC code
/// of u, as one field of at most 12 bits.
Field rho_uvlc_field(unsigned rho, int u) {
  if (u < 3) {
    // "0", "10", "110": u one-bits then a zero, read LSB first.
    return {rho | (((1u << u) - 1) << 4), 4 + u + 1};
  }
  return {rho | (7u << 4) | (static_cast<std::uint32_t>(u - 3) << 7), 12};
}

template <typename Reader>
int uvlc_decode(Reader& in) {
  if (!in.get()) return 0;
  if (!in.get()) return 1;
  if (!in.get()) return 2;
  return 3 + static_cast<int>(in.get_bits(5));
}

/// The four samples of quad (qy, qx) in scan order n0=TL, n1=BL, n2=TR,
/// n3=BR; out-of-bounds positions are reported absent.  The decoder's
/// view; the encoder walks the same order through two row pointers.
struct Quad {
  std::size_t y[4];
  std::size_t x[4];
  bool present[4];
};

Quad quad_at(std::size_t qy, std::size_t qx, std::size_t w, std::size_t h) {
  Quad q;
  static constexpr std::size_t dy[4] = {0, 1, 0, 1};
  static constexpr std::size_t dx[4] = {0, 0, 1, 1};
  for (int i = 0; i < 4; ++i) {
    q.y[i] = 2 * qy + dy[i];
    q.x[i] = 2 * qx + dx[i];
    q.present[i] = q.y[i] < h && q.x[i] < w;
  }
  return q;
}

}  // namespace

T1EncodedBlock ht_encode_block(Span2d<const Sample> coeffs) {
  const std::size_t w = coeffs.width();
  const std::size_t h = coeffs.height();
  CJ2K_CHECK_MSG(w >= 1 && w <= 1024 && h >= 1 && h <= 1024,
                 "HT block dimensions out of range");

  // Magnitude bit-plane count, exactly as EBCOT computes it: Tier-2 still
  // transmits it through the imsb tag tree, so the per-band maxima must
  // agree between coders.
  const std::uint32_t maxmag = block_prescan(coeffs);

  T1EncodedBlock out;
  out.num_bitplanes = std::bit_width(maxmag);
  out.total_symbols = static_cast<std::uint64_t>(w) * h;
  if (maxmag == 0) return out;  // All-zero block: empty, like EBCOT.

  // One allocation holds each stream's worst case: MagSgn at most 32 bits
  // per sample, VLC at most 12 bits (rho + u-VLC) and MEL at most 6 bits
  // (a break of 1 + E[12] bits) per quad.
  const std::size_t num_qx = (w + 1) / 2;
  const std::size_t num_qy = (h + 1) / 2;
  const std::size_t quads = num_qx * num_qy;
  const std::size_t magsgn_cap = 4 * w * h;
  const std::size_t vlc_cap = (12 * quads + 7) / 8;
  const std::size_t mel_cap = (6 * quads + 7) / 8;
  const auto scratch = std::make_unique_for_overwrite<std::uint8_t[]>(
      magsgn_cap + vlc_cap + mel_cap);
  std::uint8_t* const magsgn_buf = scratch.get();
  std::uint8_t* const vlc_buf = magsgn_buf + magsgn_cap;
  std::uint8_t* const mel_buf = vlc_buf + vlc_cap;
  BitPacker magsgn(magsgn_buf);
  BitPacker vlc(vlc_buf);
  BitPacker melbits(mel_buf);
  MelEncoder mel(melbits);

  std::vector<std::uint8_t> north_sig(num_qx, 0);
  double dist = 0.0;

  for (std::size_t qy = 0; qy < num_qy; ++qy) {
    // Quad samples in scan order n0=TL, n1=BL, n2=TR, n3=BR; samples
    // outside the block read as zero.
    const Sample* top = coeffs.row(2 * qy);
    const Sample* bottom = 2 * qy + 1 < h ? coeffs.row(2 * qy + 1) : nullptr;
    bool west_sig = false;
    for (std::size_t qx = 0; qx < num_qx; ++qx) {
      const std::size_t x = 2 * qx;
      const bool right = x + 1 < w;
      const Sample v[4] = {top[x], bottom ? bottom[x] : 0,
                           right ? top[x + 1] : 0,
                           bottom && right ? bottom[x + 1] : 0};
      std::uint32_t mag[4];
      unsigned rho = 0;
      for (int i = 0; i < 4; ++i) {
        mag[i] = v[i] < 0 ? 0u - static_cast<std::uint32_t>(v[i])
                          : static_cast<std::uint32_t>(v[i]);
        rho |= (mag[i] != 0 ? 1u : 0u) << i;
      }

      const bool sig = rho != 0;
      if (!west_sig && !north_sig[qx]) {
        mel.encode(sig);
      } else if (!sig) {
        vlc.put_bits(0, 4);
      }
      if (sig) {
        const int umax = std::bit_width(mag[0] | mag[1] | mag[2] | mag[3]);
        const Field f = rho_uvlc_field(rho, umax - 1);
        vlc.put_bits(f.bits, f.len);
        for (int i = 0; i < 4; ++i) {
          if (mag[i] == 0) continue;
          dist += static_cast<double>(mag[i]) * static_cast<double>(mag[i]);
          // The sign bit, then mag - 1 in umax bits.
          magsgn.put_bits((static_cast<std::uint64_t>(mag[i] - 1) << 1) |
                              (v[i] < 0 ? 1u : 0u),
                          umax + 1);
        }
      }
      west_sig = sig;
      north_sig[qx] = sig ? 1 : 0;
    }
  }

  mel.terminate();
  const std::size_t magsgn_len = magsgn.flush();
  const std::size_t mel_len = melbits.flush();
  const std::size_t vlc_len = vlc.flush();
  const std::size_t scup = mel_len + vlc_len + 4;

  out.data.resize(magsgn_len + scup);
  std::uint8_t* dst = out.data.data();
  std::memcpy(dst, magsgn_buf, magsgn_len);
  dst += magsgn_len;
  std::memcpy(dst, mel_buf, mel_len);
  dst += mel_len;
  dst = std::reverse_copy(vlc_buf, vlc_buf + vlc_len, dst);
  dst[0] = static_cast<std::uint8_t>((scup >> 24) & 0xFF);
  dst[1] = static_cast<std::uint8_t>((scup >> 16) & 0xFF);
  dst[2] = static_cast<std::uint8_t>((scup >> 8) & 0xFF);
  dst[3] = static_cast<std::uint8_t>(scup & 0xFF);

  PassInfo pass;
  pass.type = PassType::kCleanup;
  pass.bitplane = 0;
  pass.trunc_len = out.data.size();
  pass.dist_reduction = dist;
  pass.symbols = out.total_symbols;
  out.passes.push_back(pass);
  return out;
}

void ht_decode_block(const std::uint8_t* data, std::size_t size,
                     int num_bitplanes, Span2d<Sample> out) {
  const std::size_t w = out.width();
  const std::size_t h = out.height();
  for (std::size_t y = 0; y < h; ++y) {
    Sample* row = out.row(y);
    for (std::size_t x = 0; x < w; ++x) row[x] = 0;
  }
  if (size == 0) return;  // All-zero block (no included passes).
  if (size < 4) throw CodestreamError("HT segment shorter than its trailer");
  const std::size_t scup =
      (static_cast<std::size_t>(data[size - 4]) << 24) |
      (static_cast<std::size_t>(data[size - 3]) << 16) |
      (static_cast<std::size_t>(data[size - 2]) << 8) |
      static_cast<std::size_t>(data[size - 1]);
  if (scup < 4 || scup > size) {
    throw CodestreamError("HT Scup out of range");
  }

  BitReader magsgn(data, size - scup);
  MelDecoder mel(BitReader(data + (size - scup), scup - 4));
  ReverseBitReader vlc(data, static_cast<std::ptrdiff_t>(size) - 5,
                       static_cast<std::ptrdiff_t>(size - scup));

  const std::size_t num_qx = (w + 1) / 2;
  const std::size_t num_qy = (h + 1) / 2;
  std::vector<std::uint8_t> north_sig(num_qx, 0);

  for (std::size_t qy = 0; qy < num_qy; ++qy) {
    bool west_sig = false;
    for (std::size_t qx = 0; qx < num_qx; ++qx) {
      const Quad q = quad_at(qy, qx, w, h);
      const int context = (west_sig ? 1 : 0) | (north_sig[qx] ? 2 : 0);
      unsigned rho = 0;
      if (context == 0) {
        if (mel.decode()) rho = vlc.get_bits(4);
      } else {
        rho = vlc.get_bits(4);
      }
      const bool sig = rho != 0;
      if (sig) {
        // Every magnitude the encoder writes is below 2^umax, and umax never
        // exceeds the block's bit-plane count (itself at most 31).
        const int u = uvlc_decode(vlc) + 1;
        if (u > 31 || u > num_bitplanes) {
          throw CodestreamError("HT magnitude exponent above the bit planes");
        }
        for (int i = 0; i < 4; ++i) {
          if (!(rho & (1u << i))) continue;
          if (!q.present[i]) {
            throw CodestreamError("HT significance outside the block");
          }
          const bool negative = magsgn.get() != 0;
          const std::uint32_t mag_minus_1 = magsgn.get_bits(u);
          if (mag_minus_1 == (std::uint32_t{1} << u) - 1) {
            throw CodestreamError("HT magnitude out of its exponent bound");
          }
          const Sample v = static_cast<Sample>(mag_minus_1 + 1);
          out.at(q.y[i], q.x[i]) = negative ? -v : v;
        }
      }
      west_sig = sig;
      north_sig[qx] = sig ? 1 : 0;
    }
  }
}

double ht_step_scale_for_rate(double rate) {
  if (rate <= 0.0) return 1.0;
  // Measured achieved-rate curve on the 512² synthetic photographic
  // workload (9/7, base step 1/16): each table row is (achieved rate,
  // log2 of the step multiplier).  The mapping interpolates log2(scale)
  // linearly between rows — a Qfactor-style log-linear fit, approximate by
  // design (content-dependent; DESIGN.md §9).
  static constexpr struct {
    double rate;
    double log2_scale;
  } kTable[] = {{0.9228, 0.0}, {0.7245, 1.0}, {0.5560, 2.0}, {0.3889, 3.0},
                {0.2295, 4.0}, {0.1480, 5.0}, {0.0875, 6.0}, {0.0329, 7.0}};
  constexpr int kRows = static_cast<int>(sizeof(kTable) / sizeof(kTable[0]));
  if (rate >= kTable[0].rate) return 1.0;
  double log2_scale = 8.0;  // clamp for targets below the table
  for (int i = 1; i < kRows; ++i) {
    if (rate >= kTable[i].rate) {
      const double t = (kTable[i - 1].rate - rate) /
                       (kTable[i - 1].rate - kTable[i].rate);
      log2_scale = kTable[i - 1].log2_scale +
                   t * (kTable[i].log2_scale - kTable[i - 1].log2_scale);
      break;
    }
  }
  return std::exp2(std::min(log2_scale, 8.0));
}

double effective_base_quant_step(const CodingParams& params) {
  if (params.block_coder == BlockCoder::kHt && params.rate > 0.0) {
    return params.base_quant_step * ht_step_scale_for_rate(params.rate);
  }
  return params.base_quant_step;
}

}  // namespace cj2k::jp2k
