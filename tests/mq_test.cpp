// MQ arithmetic coder tests: table invariants, encoder/decoder roundtrip on
// adversarial decision streams, truncation behavior, and a differential
// check of the register-held coder against a bit-by-bit Annex C reference.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "jp2k/mq_decoder.hpp"
#include "jp2k/mq_encoder.hpp"
#include "jp2k/t1_common.hpp"

namespace cj2k::jp2k {
namespace {

// --- Reference model ---------------------------------------------------------
//
// The MQ coder as Annex C draws it: one renormalization shift per loop
// iteration, registers in the object, output grown a byte at a time.  The
// production coder must match it byte for byte and decision for decision.
// It keeps its own {index, mps} contexts and reads kMqTable only, so the
// folded kMqStates table is checked against Table C.2, not against itself.

struct RefMqContext {
  std::uint8_t index = 0;
  std::uint8_t mps = 0;
};

/// The Tier-1 initial states of Annex D, Table D.7.
class RefContextBank {
 public:
  RefContextBank() {
    ctx_[kCtxZcBase].index = 4;
    ctx_[kCtxRunLength].index = 3;
    ctx_[kCtxUniform].index = 46;
  }
  RefMqContext& operator[](int i) { return ctx_[static_cast<std::size_t>(i)]; }

 private:
  RefMqContext ctx_[kNumT1Contexts];
};

class RefMqEncoder {
 public:
  void encode(RefMqContext& cx, int d) {
    ++decisions_;
    const MqStateRow& st = kMqTable[cx.index];
    const std::uint32_t qe = st.qe;
    if (d == cx.mps) {
      // CODEMPS (Figure C.7).
      a_ -= qe;
      if ((a_ & 0x8000) == 0) {
        if (a_ < qe) {
          a_ = qe;
        } else {
          c_ += qe;
        }
        cx.index = st.nmps;
        renorm();
      } else {
        c_ += qe;
      }
    } else {
      // CODELPS (Figure C.6).
      a_ -= qe;
      if (a_ < qe) {
        c_ += qe;
      } else {
        a_ = qe;
      }
      if (st.sw) cx.mps ^= 1;
      cx.index = st.nlps;
      renorm();
    }
  }

  void flush() {
    const std::uint32_t tempc = c_ + a_;
    c_ |= 0xFFFF;
    if (c_ >= tempc) c_ -= 0x8000;
    c_ <<= ct_;
    byteout();
    c_ <<= ct_;
    byteout();
    while (!out_.empty() && out_.back() == 0xFF) out_.pop_back();
  }

  std::size_t truncation_length() const {
    const std::size_t pending_bits = static_cast<std::size_t>(27 - ct_);
    return out_.size() + (pending_bits + 7) / 8 + 1;
  }

  std::uint64_t decisions() const { return decisions_; }
  const std::vector<std::uint8_t>& bytes() const { return out_; }

 private:
  void renorm() {
    do {
      a_ <<= 1;
      c_ <<= 1;
      if (--ct_ == 0) byteout();
    } while ((a_ & 0x8000) == 0);
  }

  void byteout() {
    // Figure C.8; out_.back() plays the role of register B.
    if (!out_.empty() && out_.back() == 0xFF) {
      out_.push_back(static_cast<std::uint8_t>(c_ >> 20));
      c_ &= 0xFFFFF;
      ct_ = 7;
      return;
    }
    if (c_ < 0x8000000 || out_.empty()) {
      out_.push_back(static_cast<std::uint8_t>(c_ >> 19));
      c_ &= 0x7FFFF;
      ct_ = 8;
      return;
    }
    out_.back() = static_cast<std::uint8_t>(out_.back() + 1);
    if (out_.back() == 0xFF) {
      c_ &= 0x7FFFFFF;
      out_.push_back(static_cast<std::uint8_t>(c_ >> 20));
      c_ &= 0xFFFFF;
      ct_ = 7;
    } else {
      out_.push_back(static_cast<std::uint8_t>(c_ >> 19));
      c_ &= 0x7FFFF;
      ct_ = 8;
    }
  }

  std::uint32_t c_ = 0;
  std::uint32_t a_ = 0x8000;
  int ct_ = 12;
  std::uint64_t decisions_ = 0;
  std::vector<std::uint8_t> out_;
};

class RefMqDecoder {
 public:
  RefMqDecoder(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {
    c_ = static_cast<std::uint32_t>(byte_at(0)) << 16;
    bytein();
    c_ <<= 7;
    ct_ -= 7;
    a_ = 0x8000;
  }

  int decode(RefMqContext& cx) {
    const MqStateRow& st = kMqTable[cx.index];
    const std::uint32_t qe = st.qe;
    int d;
    a_ -= qe;
    if (((c_ >> 16) & 0xFFFF) < qe) {
      if (a_ < qe) {
        d = cx.mps;
        cx.index = st.nmps;
      } else {
        d = 1 - cx.mps;
        if (st.sw) cx.mps ^= 1;
        cx.index = st.nlps;
      }
      a_ = qe;
      renorm();
    } else {
      c_ -= static_cast<std::uint32_t>(qe) << 16;
      if ((a_ & 0x8000) == 0) {
        if (a_ < qe) {
          d = 1 - cx.mps;
          if (st.sw) cx.mps ^= 1;
          cx.index = st.nlps;
        } else {
          d = cx.mps;
          cx.index = st.nmps;
        }
        renorm();
      } else {
        d = cx.mps;
      }
    }
    return d;
  }

 private:
  std::uint8_t byte_at(std::size_t i) const {
    return i < size_ ? data_[i] : 0xFF;
  }

  void bytein() {
    if (byte_at(bp_) == 0xFF) {
      if (byte_at(bp_ + 1) > 0x8F) {
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

  void renorm() {
    do {
      if (ct_ == 0) bytein();
      a_ <<= 1;
      c_ <<= 1;
      --ct_;
    } while ((a_ & 0x8000) == 0);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t bp_ = 0;
  std::uint32_t c_ = 0;
  std::uint32_t a_ = 0;
  int ct_ = 0;
};

TEST(MqTable, IndicesStayInRange) {
  for (const auto& row : kMqTable) {
    EXPECT_LT(row.nmps, kMqTable.size());
    EXPECT_LT(row.nlps, kMqTable.size());
    EXPECT_GT(row.qe, 0u);
    EXPECT_LE(row.qe, 0x5601u);
  }
}

TEST(MqTable, TerminalStatesSelfLoop) {
  // State 45 is the most-skewed adaptive state; 46 is the static UNIFORM.
  EXPECT_EQ(kMqTable[45].nmps, 45);
  EXPECT_EQ(kMqTable[46].nmps, 46);
  EXPECT_EQ(kMqTable[46].nlps, 46);
}

TEST(MqTable, FoldedStatesFollowTableC2) {
  ASSERT_EQ(kMqStates.size(), 2 * kMqTable.size());
  for (std::size_t s = 0; s < kMqStates.size(); ++s) {
    const MqStateRow& row = kMqTable[s / 2];
    const MqState& st = kMqStates[s];
    const unsigned mps = s & 1;  // the state's low bit is its MPS sense
    EXPECT_EQ(st.qe, row.qe) << "state " << s;
    EXPECT_LT(st.nmps, kMqStates.size()) << "state " << s;
    EXPECT_LT(st.nlps, kMqStates.size()) << "state " << s;
    EXPECT_EQ(st.nmps, 2 * row.nmps + mps) << "state " << s;
    EXPECT_EQ(st.nlps, 2 * row.nlps + (mps ^ row.sw)) << "state " << s;
    // An MPS keeps the sense; an LPS flips it on SWITCH rows 0, 6, 14 only.
    EXPECT_EQ(st.nmps & 1u, mps) << "state " << s;
    const bool flips = (st.nlps & 1u) != mps;
    const std::size_t i = s / 2;
    EXPECT_EQ(flips, i == 0 || i == 6 || i == 14) << "state " << s;
  }

  // ZC(0) starts in table state 4, RL in 3, UNIFORM in 46, all with MPS 0.
  T1ContextBank bank;
  for (int c = 0; c < kNumT1Contexts; ++c) {
    const int expect = c == kCtxZcBase      ? 8
                       : c == kCtxRunLength ? 6
                       : c == kCtxUniform   ? 92
                                            : 0;
    EXPECT_EQ(bank[c].state, expect) << "context " << c;
  }
  bank[kCtxUniform].state = 5;
  bank.reset();
  EXPECT_EQ(bank[kCtxUniform].state, 92);
}

TEST(MqTable, SwitchOnlyOnKnownStates) {
  // SWITCH=1 exactly on states 0, 6, 14 (Table C.2).
  for (std::size_t i = 0; i < kMqTable.size(); ++i) {
    const bool expect_switch = (i == 0 || i == 6 || i == 14);
    EXPECT_EQ(kMqTable[i].sw != 0, expect_switch) << "state " << i;
  }
}

/// Encodes `bits` with `n_ctx` rotating contexts, decodes, compares.
void roundtrip(const std::vector<int>& bits, int n_ctx,
               std::uint64_t ctx_seed) {
  std::vector<MqContext> enc_ctx(static_cast<std::size_t>(n_ctx));
  std::vector<MqContext> dec_ctx(static_cast<std::size_t>(n_ctx));
  Rng rng(ctx_seed);
  std::vector<int> which(bits.size());
  for (auto& w : which) w = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(n_ctx)));

  std::vector<std::uint8_t> bytes;
  MqEncoder enc(bytes);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    enc.encode(enc_ctx[static_cast<std::size_t>(which[i])], bits[i]);
  }
  enc.flush();

  MqDecoder dec(bytes.data(), bytes.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(dec.decode(dec_ctx[static_cast<std::size_t>(which[i])]),
              bits[i])
        << "at decision " << i << " of " << bits.size();
  }
}

TEST(MqRoundtrip, AllZeros) { roundtrip(std::vector<int>(5000, 0), 1, 7); }
TEST(MqRoundtrip, AllOnes) { roundtrip(std::vector<int>(5000, 1), 1, 7); }

TEST(MqRoundtrip, Alternating) {
  std::vector<int> bits(4096);
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = static_cast<int>(i & 1);
  roundtrip(bits, 3, 11);
}

TEST(MqRoundtrip, RandomUniform) {
  Rng rng(42);
  std::vector<int> bits(20000);
  for (auto& b : bits) b = static_cast<int>(rng.next_below(2));
  roundtrip(bits, 19, 99);
}

TEST(MqRoundtrip, SkewedTowardMps) {
  Rng rng(43);
  std::vector<int> bits(20000);
  for (auto& b : bits) b = rng.next_below(100) < 3 ? 1 : 0;
  roundtrip(bits, 19, 100);
}

TEST(MqRoundtrip, SkewedTowardLps) {
  Rng rng(44);
  std::vector<int> bits(20000);
  for (auto& b : bits) b = rng.next_below(100) < 3 ? 0 : 1;
  roundtrip(bits, 5, 101);
}

TEST(MqRoundtrip, ShortStreams) {
  for (int n = 1; n <= 24; ++n) {
    Rng rng(static_cast<std::uint64_t>(n));
    std::vector<int> bits(static_cast<std::size_t>(n));
    for (auto& b : bits) b = static_cast<int>(rng.next_below(2));
    roundtrip(bits, 2, static_cast<std::uint64_t>(n) * 7);
  }
}

TEST(MqEncoder, TerminatedStreamNeverEndsInFF) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> bytes;
    MqEncoder enc(bytes);
    MqContext cx;
    const std::size_t n = 100 + rng.next_below(2000);
    for (std::size_t i = 0; i < n; ++i) {
      enc.encode(cx, static_cast<int>(rng.next_below(2)));
    }
    enc.flush();
    ASSERT_FALSE(bytes.empty());
    EXPECT_NE(bytes.back(), 0xFF);
  }
}

TEST(MqEncoder, NoFFPairWithHighSecondByte) {
  // Bit stuffing guarantees no 0xFF is followed by a byte > 0x8F.
  Rng rng(5);
  std::vector<std::uint8_t> b;
  MqEncoder enc(b);
  MqContext cx;
  for (int i = 0; i < 50000; ++i) {
    enc.encode(cx, static_cast<int>(rng.next_below(2)));
  }
  enc.flush();
  for (std::size_t i = 0; i + 1 < b.size(); ++i) {
    if (b[i] == 0xFF) {
      EXPECT_LE(b[i + 1], 0x8F) << "offset " << i;
    }
  }
}

TEST(MqEncoder, TruncationLengthIsMonotoneAndCoversOutput) {
  // The production coder keeps no readable byte count mid-stream, so the
  // reference model runs beside it: both must report the same length after
  // every symbol, and that length must cover the reference's emitted bytes.
  Rng rng(6);
  std::vector<std::uint8_t> bytes;
  MqEncoder enc(bytes);
  RefMqEncoder ref;
  MqContext cx;
  RefMqContext ref_cx;
  std::size_t prev = 0;
  for (int i = 0; i < 5000; ++i) {
    const int d = static_cast<int>(rng.next_below(2));
    enc.encode(cx, d);
    ref.encode(ref_cx, d);
    const std::size_t len = enc.truncation_length();
    ASSERT_EQ(len, ref.truncation_length()) << "symbol " << i;
    EXPECT_GE(len, ref.bytes().size());
    EXPECT_GE(len + 2, prev);  // near-monotone (allows byte-boundary slack)
    prev = len;
  }
  enc.flush();
  ref.flush();
  EXPECT_EQ(bytes, ref.bytes());
}

TEST(MqDecoder, DecodesPastTruncationWithoutCrashing) {
  // A truncated codeword must still produce *some* decisions (the decoder
  // synthesizes 1-bits past the end) — this is what rate truncation relies
  // on.
  Rng rng(7);
  std::vector<std::uint8_t> bytes;
  MqEncoder enc(bytes);
  MqContext cx;
  std::vector<int> bits(2000);
  for (auto& b : bits) b = static_cast<int>(rng.next_below(2));
  for (int b : bits) enc.encode(cx, b);
  enc.flush();

  const std::size_t half = bytes.size() / 2;
  MqDecoder dec(bytes.data(), half);
  MqContext dcx;
  int agree = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (dec.decode(dcx) == bits[i]) {
      ++agree;
    } else {
      break;  // first disagreement marks the truncation horizon
    }
  }
  // Roughly half the decisions should survive a half-length truncation.
  EXPECT_GT(agree, static_cast<int>(bits.size() / 4));
}

// --- Differential: production coder vs the Annex C reference -----------------

/// A seeded decision stream over all 19 Tier-1 contexts.  Even seeds draw
/// every decision from one skew (uniform down to ~1% ones, or mirrored),
/// odd seeds give each context its own skew, as Tier-1 data does.
struct MqStream {
  std::vector<int> bits;
  std::vector<int> which;
};

MqStream mq_stream(std::uint64_t seed) {
  Rng rng(seed);
  MqStream s;
  const std::size_t n = 1 + rng.next_below(seed % 10 == 0 ? 40 : 6000);
  std::uint64_t skew[kNumT1Contexts];
  for (auto& k : skew) k = rng.next_below(101);  // P(1) in percent
  const std::uint64_t global = seed % 4 == 0 ? 50 : rng.next_below(101);
  for (std::size_t i = 0; i < n; ++i) {
    const auto cx = static_cast<int>(rng.next_below(kNumT1Contexts));
    const std::uint64_t p1 = seed % 2 ? skew[cx] : global;
    s.which.push_back(cx);
    s.bits.push_back(rng.next_below(100) < p1 ? 1 : 0);
  }
  return s;
}

constexpr std::uint64_t kDiffStreams = 500;

TEST(MqDifferential, EncoderMatchesReferenceSymbolBySymbol) {
  for (std::uint64_t seed = 1; seed <= kDiffStreams; ++seed) {
    const MqStream s = mq_stream(seed);
    std::vector<std::uint8_t> bytes;
    MqEncoder enc(bytes);
    RefMqEncoder ref;
    T1ContextBank enc_ctx;
    RefContextBank ref_ctx;
    for (std::size_t i = 0; i < s.bits.size(); ++i) {
      enc.encode(enc_ctx[s.which[i]], s.bits[i]);
      ref.encode(ref_ctx[s.which[i]], s.bits[i]);
      ASSERT_EQ(enc.truncation_length(), ref.truncation_length())
          << "seed " << seed << " symbol " << i;
      ASSERT_EQ(enc.decisions(), ref.decisions());
    }
    enc.flush();
    ref.flush();
    ASSERT_EQ(bytes, ref.bytes()) << "seed " << seed;
  }
}

/// Decodes `data` along `s`'s context sequence, and 64 decisions past its
/// end, with both decoders and requires identical decisions throughout.
void expect_decoders_agree(const std::vector<std::uint8_t>& data,
                           const MqStream& s, std::uint64_t seed) {
  MqDecoder dec(data.data(), data.size());
  RefMqDecoder ref(data.data(), data.size());
  T1ContextBank dec_ctx;
  RefContextBank ref_ctx;
  // Run past the end of the stream: both must synthesize the same 1-bits.
  for (std::size_t i = 0; i < s.bits.size() + 64; ++i) {
    const int cx = s.which[i % s.which.size()];
    ASSERT_EQ(dec.decode(dec_ctx[cx]), ref.decode(ref_ctx[cx]))
        << "seed " << seed << " size " << data.size() << " symbol " << i;
  }
}

TEST(MqDifferential, DecoderMatchesReferenceOnFullTruncatedAndMarkerTails) {
  for (std::uint64_t seed = 1; seed <= kDiffStreams; ++seed) {
    const MqStream s = mq_stream(seed);
    std::vector<std::uint8_t> bytes;
    MqEncoder enc(bytes);
    T1ContextBank enc_ctx;
    for (std::size_t i = 0; i < s.bits.size(); ++i) {
      enc.encode(enc_ctx[s.which[i]], s.bits[i]);
    }
    enc.flush();

    // The full codeword decodes to the original decisions.
    MqDecoder dec(bytes.data(), bytes.size());
    T1ContextBank dec_ctx;
    for (std::size_t i = 0; i < s.bits.size(); ++i) {
      ASSERT_EQ(dec.decode(dec_ctx[s.which[i]]), s.bits[i])
          << "seed " << seed << " symbol " << i;
    }
    expect_decoders_agree(bytes, s, seed);

    // A truncation, and tails ending in 0xFF, an 0xFF-led marker, a
    // stuffed 0xFF 0x7F pair and an 0xFF 0xFF run.
    Rng rng(seed ^ 0x5eed);
    std::vector<std::uint8_t> cut(
        bytes.begin(),
        bytes.begin() +
            static_cast<std::ptrdiff_t>(rng.next_below(bytes.size() + 1)));
    expect_decoders_agree(cut, s, seed);
    for (const std::vector<std::uint8_t>& tail :
         {std::vector<std::uint8_t>{0xFF},
          std::vector<std::uint8_t>{0xFF, 0x90},
          std::vector<std::uint8_t>{0xFF, 0x7F},
          std::vector<std::uint8_t>{0xFF, 0xFF, 0xD9}}) {
      std::vector<std::uint8_t> tailed = cut;
      tailed.insert(tailed.end(), tail.begin(), tail.end());
      expect_decoders_agree(tailed, s, seed);
    }
  }
}

// --- The Tier-1 walk's coder contract ----------------------------------------
//
// jp2k/t1_walk.hpp codes every decision as `bit = coder.code(cx, d)`: the
// encoder must code `d` exactly as encode() does and hand it back, and the
// decoder must return the decoded bit whatever `d` says.

TEST(MqCoderContract, EncoderCodeReturnsItsBitAndEmitsEncodesBytes) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const MqStream s = mq_stream(seed);
    std::vector<std::uint8_t> coded;
    std::vector<std::uint8_t> encoded;
    MqEncoder by_code(coded);
    MqEncoder by_encode(encoded);
    T1ContextBank code_ctx;
    T1ContextBank encode_ctx;
    for (std::size_t i = 0; i < s.bits.size(); ++i) {
      ASSERT_EQ(by_code.code(code_ctx[s.which[i]], s.bits[i]), s.bits[i])
          << "seed " << seed << " symbol " << i;
      by_encode.encode(encode_ctx[s.which[i]], s.bits[i]);
      ASSERT_EQ(by_code.truncation_length(), by_encode.truncation_length());
    }
    EXPECT_EQ(by_code.decisions(), by_encode.decisions());
    by_code.flush();
    by_encode.flush();
    ASSERT_EQ(coded, encoded) << "seed " << seed;
  }
}

TEST(MqCoderContract, DecoderCodeIgnoresTheGivenBit) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const MqStream s = mq_stream(seed);
    std::vector<std::uint8_t> bytes;
    MqEncoder enc(bytes);
    T1ContextBank enc_ctx;
    for (std::size_t i = 0; i < s.bits.size(); ++i) {
      enc.encode(enc_ctx[s.which[i]], s.bits[i]);
    }
    enc.flush();

    // Offered 0, offered 1, and offered the right bit: the same decisions,
    // through the codeword and 64 synthesized ones past its end.
    MqDecoder zeros(bytes.data(), bytes.size());
    MqDecoder ones(bytes.data(), bytes.size());
    MqDecoder plain(bytes.data(), bytes.size());
    T1ContextBank zeros_ctx;
    T1ContextBank ones_ctx;
    T1ContextBank plain_ctx;
    for (std::size_t i = 0; i < s.bits.size() + 64; ++i) {
      const int cx = s.which[i % s.which.size()];
      const int bit = plain.decode(plain_ctx[cx]);
      if (i < s.bits.size()) {
        ASSERT_EQ(bit, s.bits[i]) << "seed " << seed << " symbol " << i;
      }
      ASSERT_EQ(zeros.code(zeros_ctx[cx], 0), bit)
          << "seed " << seed << " symbol " << i;
      ASSERT_EQ(ones.code(ones_ctx[cx], 1), bit)
          << "seed " << seed << " symbol " << i;
    }
  }
}

}  // namespace
}  // namespace cj2k::jp2k
