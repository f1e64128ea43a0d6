// HT (Part 15) block-coder tests: block-level roundtrips over random and
// adversarial content, a differential check of the word-packing encoder
// against a bit-at-a-time reference, hand-built hostile segments, the
// HT<->EBCOT lossless cross-check (same pixels from either backend),
// CAP-marker signaling, the HT-disabled decoder rejection, and the coder's
// validate() rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/span2d.hpp"
#include "image/synth.hpp"
#include "jp2k/codestream.hpp"
#include "jp2k/decoder.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/ht_block.hpp"

namespace cj2k::jp2k {
namespace {

// --- Reference model ---------------------------------------------------------
//
// The HT cleanup pass as ht_block.hpp describes it, written one bit per call:
// every MagSgn, MEL and VLC bit goes through RefBitWriter::put and each
// finished byte is pushed back.  The production encoder packs whole fields
// into a word and must match this byte for byte and field for field.

class RefBitWriter {
 public:
  void put(unsigned bit) {
    acc_ |= (bit & 1u) << nbits_;
    if (++nbits_ == 8) {
      bytes_.push_back(static_cast<std::uint8_t>(acc_));
      acc_ = 0;
      nbits_ = 0;
    }
  }

  void put_bits(std::uint32_t v, int n) {
    for (int i = 0; i < n; ++i) put((v >> i) & 1u);
  }

  void flush() {
    if (nbits_ > 0) put_bits(0, 8 - nbits_);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  unsigned acc_ = 0;
  int nbits_ = 0;
};

class RefHtEncoder {
 public:
  static T1EncodedBlock encode(Span2d<const Sample> coeffs) {
    const std::size_t w = coeffs.width();
    const std::size_t h = coeffs.height();
    const std::uint32_t maxmag = block_prescan(coeffs);
    T1EncodedBlock out;
    out.num_bitplanes = bit_length(maxmag);
    out.total_symbols = static_cast<std::uint64_t>(w) * h;
    if (maxmag == 0) return out;

    RefHtEncoder enc;
    const std::size_t num_qx = (w + 1) / 2;
    const std::size_t num_qy = (h + 1) / 2;
    std::vector<std::uint8_t> north_sig(num_qx, 0);
    double dist = 0.0;
    for (std::size_t qy = 0; qy < num_qy; ++qy) {
      bool west_sig = false;
      for (std::size_t qx = 0; qx < num_qx; ++qx) {
        // Scan order within the quad: n0=TL, n1=BL, n2=TR, n3=BR.
        unsigned rho = 0;
        std::uint32_t mag[4] = {0, 0, 0, 0};
        bool neg[4] = {false, false, false, false};
        int umax = 0;
        for (int i = 0; i < 4; ++i) {
          const std::size_t y = 2 * qy + (i & 1);
          const std::size_t x = 2 * qx + (i >> 1);
          if (y >= h || x >= w) continue;
          const Sample v = coeffs.at(y, x);
          mag[i] = static_cast<std::uint32_t>(std::abs(v));
          neg[i] = v < 0;
          if (mag[i] != 0) {
            rho |= 1u << i;
            umax = std::max(umax, bit_length(mag[i]));
            dist += static_cast<double>(mag[i]) * static_cast<double>(mag[i]);
          }
        }
        const bool sig = rho != 0;
        if (!west_sig && !north_sig[qx]) {
          enc.mel(sig);
          if (sig) enc.vlc_.put_bits(rho, 4);
        } else {
          enc.vlc_.put_bits(rho, 4);
        }
        if (sig) {
          enc.uvlc(umax - 1);
          for (int i = 0; i < 4; ++i) {
            if (!(rho & (1u << i))) continue;
            enc.magsgn_.put(neg[i] ? 1u : 0u);
            enc.magsgn_.put_bits(mag[i] - 1, umax);
          }
        }
        west_sig = sig;
        north_sig[qx] = sig ? 1 : 0;
      }
    }
    if (enc.mel_run_ > 0) enc.mel_.put(1);
    enc.magsgn_.flush();
    enc.mel_.flush();
    enc.vlc_.flush();

    const auto& ms = enc.magsgn_.bytes();
    const auto& ml = enc.mel_.bytes();
    const auto& vl = enc.vlc_.bytes();
    const std::size_t scup = ml.size() + vl.size() + 4;
    out.data.insert(out.data.end(), ms.begin(), ms.end());
    out.data.insert(out.data.end(), ml.begin(), ml.end());
    out.data.insert(out.data.end(), vl.rbegin(), vl.rend());
    for (int shift = 24; shift >= 0; shift -= 8) {
      out.data.push_back(static_cast<std::uint8_t>(scup >> shift));
    }
    PassInfo pass;
    pass.type = PassType::kCleanup;
    pass.bitplane = 0;
    pass.trunc_len = out.data.size();
    pass.dist_reduction = dist;
    pass.symbols = out.total_symbols;
    out.passes.push_back(pass);
    return out;
  }

 private:
  static int bit_length(std::uint32_t v) {
    int n = 0;
    while (v >> n) ++n;
    return n;
  }

  void mel(bool significant) {
    static constexpr int kExp[13] = {0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4, 5};
    if (!significant) {
      if (++mel_run_ == (1 << kExp[mel_state_])) {
        mel_.put(1);
        mel_run_ = 0;
        mel_state_ = std::min(mel_state_ + 1, 12);
      }
      return;
    }
    mel_.put(0);
    mel_.put_bits(static_cast<std::uint32_t>(mel_run_), kExp[mel_state_]);
    mel_run_ = 0;
    mel_state_ = std::max(mel_state_ - 1, 0);
  }

  void uvlc(int u) {
    const int ones = std::min(u, 3);
    for (int i = 0; i < ones; ++i) vlc_.put(1);
    if (u < 3) {
      vlc_.put(0);
    } else {
      vlc_.put_bits(static_cast<std::uint32_t>(u - 3), 5);
    }
  }

  RefBitWriter magsgn_;
  RefBitWriter mel_;
  RefBitWriter vlc_;
  int mel_state_ = 0;
  int mel_run_ = 0;
};

/// Encode -> decode one block and require bit-exact coefficients.
void roundtrip(const std::vector<Sample>& coeffs, std::size_t w,
               std::size_t h) {
  ASSERT_EQ(coeffs.size(), w * h);
  const Span2d<const Sample> in(coeffs.data(), w, h, w);
  const T1EncodedBlock enc = ht_encode_block(in);
  EXPECT_EQ(enc.total_symbols, static_cast<std::uint64_t>(w * h));

  std::vector<Sample> back(w * h, Sample{-12345});
  Span2d<Sample> out(back.data(), w, h, w);
  ht_decode_block(enc.data.data(), enc.data.size(), enc.num_bitplanes, out);
  EXPECT_EQ(back, coeffs) << w << "x" << h;
}

TEST(HtBlock, RoundTripsRandomBlocksAcrossShapesAndMagnitudes) {
  std::mt19937 rng(42);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {1, 7}, {5, 1}, {2, 2}, {3, 5}, {17, 13}, {33, 31}, {64, 64}};
  for (const auto& [w, h] : shapes) {
    for (int bits : {1, 4, 12}) {
      std::uniform_int_distribution<Sample> mag(-(1 << bits), 1 << bits);
      std::vector<Sample> coeffs(w * h);
      for (auto& c : coeffs) c = mag(rng);
      roundtrip(coeffs, w, h);
    }
  }
}

TEST(HtBlock, RoundTripsSparseBlocks) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> pos(0, 31 * 29 - 1);
  std::vector<Sample> coeffs(31 * 29, 0);
  for (int i = 0; i < 8; ++i) coeffs[pos(rng)] = (i % 2) ? 30000 : -30000;
  roundtrip(coeffs, 31, 29);
}

TEST(HtBlock, AllZeroBlockEncodesEmptyAndDecodesToZero) {
  const std::vector<Sample> coeffs(16 * 16, 0);
  const Span2d<const Sample> in(coeffs.data(), 16, 16, 16);
  const T1EncodedBlock enc = ht_encode_block(in);
  EXPECT_TRUE(enc.data.empty());
  EXPECT_EQ(enc.num_bitplanes, 0);

  std::vector<Sample> back(16 * 16, Sample{99});
  Span2d<Sample> out(back.data(), 16, 16, 16);
  ht_decode_block(enc.data.data(), enc.data.size(), 0, out);
  EXPECT_EQ(back, coeffs);
}

TEST(HtBlock, DecoderRejectsTruncatedOrCorruptSegments) {
  std::vector<Sample> coeffs(8 * 8);
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    coeffs[i] = static_cast<Sample>((i * 37) % 255) - 127;
  }
  const Span2d<const Sample> in(coeffs.data(), 8, 8, 8);
  const T1EncodedBlock enc = ht_encode_block(in);
  ASSERT_GE(enc.data.size(), 5u);

  std::vector<Sample> back(8 * 8);
  Span2d<Sample> out(back.data(), 8, 8, 8);
  // Shorter than the 4-byte Scup trailer.
  EXPECT_THROW(ht_decode_block(enc.data.data(), 3, 0, out), CodestreamError);
  // Scup trailer claiming more bytes than the segment holds.
  std::vector<std::uint8_t> bad(enc.data);
  bad[bad.size() - 1] = 0xff;
  bad[bad.size() - 2] = 0xff;
  EXPECT_THROW(ht_decode_block(bad.data(), bad.size(), 0, out),
               CodestreamError);
}

void expect_same_block(const T1EncodedBlock& got, const T1EncodedBlock& ref,
                       int draw) {
  EXPECT_EQ(got.data, ref.data) << "draw " << draw;
  EXPECT_EQ(got.num_bitplanes, ref.num_bitplanes) << "draw " << draw;
  EXPECT_EQ(got.total_symbols, ref.total_symbols) << "draw " << draw;
  ASSERT_EQ(got.passes.size(), ref.passes.size()) << "draw " << draw;
  for (std::size_t i = 0; i < ref.passes.size(); ++i) {
    const PassInfo& a = got.passes[i];
    const PassInfo& b = ref.passes[i];
    EXPECT_EQ(a.type, b.type) << "draw " << draw;
    EXPECT_EQ(a.bitplane, b.bitplane) << "draw " << draw;
    EXPECT_EQ(a.trunc_len, b.trunc_len) << "draw " << draw;
    EXPECT_EQ(a.symbols, b.symbols) << "draw " << draw;
    EXPECT_EQ(std::memcmp(&a.dist_reduction, &b.dist_reduction,
                          sizeof a.dist_reduction),
              0)
        << "draw " << draw;
  }
}

TEST(HtDifferential, EncoderMatchesReferenceOnSeededBlocks) {
  Rng rng(2019);
  for (int draw = 0; draw < 500; ++draw) {
    // Mostly code-block sized shapes, with every tenth draw at a legal
    // extreme (a single row or column up to 1024 long).
    std::size_t w = 1 + rng.next_below(64);
    std::size_t h = 1 + rng.next_below(64);
    if (draw % 10 == 9) {
      const std::size_t len = 1 + rng.next_below(1024);
      w = (draw % 20 == 9) ? len : 1 + rng.next_below(4);
      h = (draw % 20 == 9) ? 1 + rng.next_below(4) : len;
    }
    const int bits = 1 + static_cast<int>(rng.next_below(31));
    const std::uint64_t maxmag = (std::uint64_t{1} << bits) - 1;
    std::vector<Sample> coeffs(w * h, 0);
    auto draw_sample = [&] {
      const auto m = static_cast<Sample>(1 + rng.next_below(maxmag));
      return rng.next_below(2) ? -m : m;
    };
    switch (draw % 3) {
      case 0:  // dense: every sample drawn, zeros included
        for (auto& v : coeffs) {
          v = rng.next_below(8) ? draw_sample() : 0;
        }
        break;
      case 1:  // sparse: long MEL runs broken by the odd significant quad
        for (auto& v : coeffs) {
          if (rng.next_below(50) == 0) v = draw_sample();
        }
        break;
      default:  // all zero but one sample
        coeffs[rng.next_below(coeffs.size())] = draw_sample();
        break;
    }
    // Code blocks are views into a wider subband plane: read each draw
    // through a stride 0–3 samples over its width, padded with a value
    // that would show if a row were walked by the width instead.
    const std::size_t stride = w + draw % 4;
    std::vector<Sample> plane(stride * h, Sample{12345});
    for (std::size_t y = 0; y < h; ++y) {
      std::copy_n(coeffs.begin() + static_cast<std::ptrdiff_t>(y * w), w,
                  plane.begin() + static_cast<std::ptrdiff_t>(y * stride));
    }
    const Span2d<const Sample> in(plane.data(), w, h, stride);
    const T1EncodedBlock got = ht_encode_block(in);
    expect_same_block(got, RefHtEncoder::encode(in), draw);

    std::vector<Sample> back(w * h, Sample{-7});
    ht_decode_block(got.data.data(), got.data.size(), got.num_bitplanes,
                    Span2d<Sample>(back.data(), w, h, w));
    ASSERT_EQ(back, coeffs) << "draw " << draw << " " << w << "x" << h;
  }
}

// --- Hostile segments --------------------------------------------------------
//
// A 2×2 block whose one quad is significant in n0 only: MagSgn 0xFFFFFFFF
// (sign 1, then 31 one bits), MEL 0x00 (a break with no run bits), and the
// VLC bytes 0x0D 0xF1 read backward: rho = 1, then u-VLC "111" + 27, so
// U = 31.  Scup = 7.
const std::vector<std::uint8_t> kMagnitude2To31 = {
    0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x0D, 0xF1, 0x00, 0x00, 0x00, 0x07};

TEST(HtHostile, MagnitudeOfTwoToTheUIsRejected) {
  // The 31 MagSgn bits decode to mag - 1 = 2^31 - 1, i.e. mag = 2^31 =
  // 2^U: no encoder writes it (every magnitude is below 2^umax) and it
  // does not fit a Sample.
  std::vector<Sample> back(4);
  EXPECT_THROW(ht_decode_block(kMagnitude2To31.data(), kMagnitude2To31.size(),
                               31, Span2d<Sample>(back.data(), 2, 2, 2)),
               CodestreamError);
}

TEST(HtHostile, ExponentBoundAboveTheBitPlaneCountIsRejected) {
  // The same VLC codes U = 31, but with MagSgn bits 0 (sign 0, mag - 1 =
  // 0) the magnitude itself is a valid 1; only U exceeding the 30 planes
  // Tier-2 signalled gives the segment away.
  std::vector<std::uint8_t> seg = kMagnitude2To31;
  std::fill(seg.begin(), seg.begin() + 4, std::uint8_t{0});
  std::vector<Sample> back(4);
  const Span2d<Sample> out(back.data(), 2, 2, 2);
  EXPECT_THROW(ht_decode_block(seg.data(), seg.size(), 30, out),
               CodestreamError);
  // With 31 planes signalled the segment is a plain block holding a 1.
  ht_decode_block(seg.data(), seg.size(), 31, out);
  EXPECT_EQ(back, (std::vector<Sample>{1, 0, 0, 0}));
}

TEST(HtHostile, BitPlaneBoundIsTightAtEveryExponent) {
  // The bounds are tight: a block at each magnitude 2^k - 1 decodes with
  // its own num_bitplanes, and one plane fewer is rejected.
  for (int k = 1; k <= 31; ++k) {
    const std::vector<Sample> coeffs = {
        static_cast<Sample>((std::uint64_t{1} << k) - 1), 0, 0, -1};
    const Span2d<const Sample> in(coeffs.data(), 2, 2, 2);
    const T1EncodedBlock enc = ht_encode_block(in);
    ASSERT_EQ(enc.num_bitplanes, k);
    std::vector<Sample> back(4);
    const Span2d<Sample> out(back.data(), 2, 2, 2);
    ht_decode_block(enc.data.data(), enc.data.size(), k, out);
    EXPECT_EQ(back, coeffs) << k;
    EXPECT_THROW(
        ht_decode_block(enc.data.data(), enc.data.size(), k - 1, out),
        CodestreamError)
        << k;
  }
}

TEST(HtCodec, LosslessDecodesPixelIdenticalToEbcot) {
  const Image img = synth::photographic(96, 80, 3, 2024);
  CodingParams pe;
  pe.levels = 3;
  CodingParams ph = pe;
  ph.block_coder = BlockCoder::kHt;

  const auto eb = encode(img, pe);
  const auto ht = encode(img, ph);
  const Image de = decode(eb);
  const Image dh = decode(ht);
  ASSERT_EQ(de.components(), dh.components());
  for (std::size_t c = 0; c < de.components(); ++c) {
    for (std::size_t y = 0; y < de.height(); ++y) {
      for (std::size_t x = 0; x < de.width(); ++x) {
        ASSERT_EQ(de.plane(c).at(y, x), dh.plane(c).at(y, x))
            << "c=" << c << " y=" << y << " x=" << x;
        ASSERT_EQ(dh.plane(c).at(y, x), img.plane(c).at(y, x));
      }
    }
  }
}

TEST(HtCodec, CapMarkerSignalsPart15) {
  const Image img = synth::photographic(64, 48, 3, 5);
  CodingParams ph;
  ph.levels = 3;
  ph.block_coder = BlockCoder::kHt;
  const auto ht = encode(img, ph);

  std::vector<TilePart> parts;
  const auto hdr = parse_codestream(ht, parts);
  EXPECT_TRUE(hdr.cap_present);
  EXPECT_EQ(hdr.pcap & 0x00020000u, 0x00020000u);  // Part 15 bit
  EXPECT_EQ(hdr.params.block_coder, BlockCoder::kHt);

  CodingParams pe;
  pe.levels = 3;
  const auto eb = encode(img, pe);
  std::vector<TilePart> eparts;
  const auto ehdr = parse_codestream(eb, eparts);
  EXPECT_FALSE(ehdr.cap_present);
  EXPECT_EQ(ehdr.params.block_coder, BlockCoder::kEbcot);
}

TEST(HtCodec, ValidateRejectsLayersAndReversibleRate) {
  const Image img = synth::photographic(32, 32, 3, 8);
  CodingParams p;
  p.block_coder = BlockCoder::kHt;
  p.layers = 2;
  EXPECT_THROW(encode(img, p), InvalidArgument);

  CodingParams q;
  q.block_coder = BlockCoder::kHt;
  q.rate = 0.2;  // rate on the reversible 5/3 path has no quantizer to use
  EXPECT_THROW(encode(img, q), InvalidArgument);
}

TEST(HtCodec, QuantizerRateTargetingTracksTheRequestedRate) {
  const Image img = synth::photographic(256, 256, 3, 9);
  CodingParams p;
  p.block_coder = BlockCoder::kHt;
  p.wavelet = WaveletKind::kIrreversible97;
  const double raw = static_cast<double>(img.raw_bytes());

  double prev_size = raw * 2;
  for (double rate : {0.5, 0.25, 0.1}) {
    p.rate = rate;
    const auto bytes = encode(img, p);
    const double achieved = static_cast<double>(bytes.size()) / raw;
    // Monotone in the target and within a loose factor of it (the mapping
    // is an approximate calibration, not a closed loop; DESIGN.md §9).
    EXPECT_LT(static_cast<double>(bytes.size()), prev_size) << rate;
    EXPECT_LT(achieved, rate * 2.0) << rate;
    EXPECT_GT(achieved, rate * 0.3) << rate;
    prev_size = static_cast<double>(bytes.size());
  }
}

}  // namespace
}  // namespace cj2k::jp2k
