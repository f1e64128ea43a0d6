// Tier-1 pins: SHA-256 digests over everything the EBCOT block coder
// produces for a seeded corpus, captured from the Annex D reference layout
// (one flags cell per sample, neighbour counts rebuilt per visit).  Any
// change to the block coder's internals must keep both digests: the
// encoder's codeword bytes and every PassInfo field (PCRD slopes are built
// from trunc_len and the exact bits of dist_reduction), and the decoder's
// output at full and truncated pass counts.  T1Walk runs the shared pass
// walk over the same corpus in the decode direction.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "jp2k/t1_decoder.hpp"
#include "jp2k/t1_encoder.hpp"
#include "jp2k/t1_walk.hpp"

namespace cj2k::jp2k {
namespace {

struct PinShape {
  std::size_t w;
  std::size_t h;
  std::int64_t maxmag;  ///< Magnitudes are drawn from [0, maxmag].
  int sparsity;         ///< One sample in `sparsity` is nonzero.
};

// 1x1 and 3x7 carry magnitudes up to 2^30 (31 coded planes); 64x5 ends on
// a partial stripe; 1024x4 is one full-width stripe and 4x1024 is 256
// stripes of one column group.
constexpr PinShape kPinShapes[] = {
    {1, 1, std::int64_t{1} << 30, 1},   {3, 7, std::int64_t{1} << 30, 1},
    {64, 5, 5000, 2},                   {64, 64, 1000, 1},
    {64, 64, std::int64_t{1} << 30, 9}, {1024, 4, 255, 3},
    {4, 1024, 1 << 16, 4},
};

constexpr SubbandOrient kPinOrients[] = {SubbandOrient::LL, SubbandOrient::HL,
                                         SubbandOrient::LH, SubbandOrient::HH};

struct PinCase {
  std::vector<Sample> coeffs;
  std::size_t w;
  std::size_t h;
  SubbandOrient orient;
  T1Options opt;
};

std::vector<PinCase> pin_corpus() {
  std::vector<PinCase> out;
  std::uint64_t seed = 1;
  for (const PinShape& s : kPinShapes) {
    for (const SubbandOrient orient : kPinOrients) {
      for (int style = 0; style < 4; ++style) {
        PinCase c;
        c.w = s.w;
        c.h = s.h;
        c.orient = orient;
        c.opt.reset_contexts = (style & 1) != 0;
        c.opt.vertically_causal = (style & 2) != 0;
        Rng rng(seed++);
        c.coeffs.assign(s.w * s.h, 0);
        for (auto& v : c.coeffs) {
          if (rng.next_below(static_cast<std::uint64_t>(s.sparsity)) != 0) {
            continue;
          }
          const auto m = static_cast<Sample>(
              rng.next_below(static_cast<std::uint64_t>(s.maxmag) + 1));
          v = rng.next_below(2) ? -m : m;
        }
        // Pin the top plane: every shape reaches its full magnitude range.
        c.coeffs[c.coeffs.size() / 2] = static_cast<Sample>(s.maxmag);
        out.push_back(std::move(c));
      }
    }
  }
  return out;
}

void put(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

TEST(T1Pins, EncoderDigest) {
  std::vector<std::uint8_t> record;
  for (const PinCase& c : pin_corpus()) {
    const T1EncodedBlock enc = t1_encode_block(
        Span2d<const Sample>(c.coeffs.data(), c.w, c.h), c.orient, c.opt);
    put(record, static_cast<std::uint32_t>(enc.num_bitplanes), 4);
    put(record, enc.total_symbols, 8);
    put(record, enc.data.size(), 8);
    record.insert(record.end(), enc.data.begin(), enc.data.end());
    put(record, enc.passes.size(), 8);
    for (const PassInfo& pi : enc.passes) {
      std::uint64_t dist_bits = 0;
      std::memcpy(&dist_bits, &pi.dist_reduction, sizeof dist_bits);
      put(record, static_cast<std::uint8_t>(pi.type), 1);
      put(record, static_cast<std::uint32_t>(pi.bitplane), 4);
      put(record, pi.trunc_len, 8);
      put(record, dist_bits, 8);
      put(record, pi.symbols, 8);
    }
  }
  EXPECT_EQ(common::sha256_hex(record),
            "107a0144949342e0d9883d11f8a969b1bb892a511e47bd3b00c9e530f39a3610");
}

TEST(T1Pins, DecoderDigest) {
  std::vector<std::uint8_t> record;
  for (const PinCase& c : pin_corpus()) {
    const T1EncodedBlock enc = t1_encode_block(
        Span2d<const Sample>(c.coeffs.data(), c.w, c.h), c.orient, c.opt);
    const int full = static_cast<int>(enc.passes.size());
    // Full decode, then rate-control style truncations: the first pass,
    // the middle one and the last-but-one, each cut at its trunc_len.
    for (const int k : {full, 1, full / 2, full - 1}) {
      if (k < 1 || k > full) continue;
      const std::size_t len =
          k == full ? enc.data.size() : enc.passes[k - 1].trunc_len;
      std::vector<Sample> out(c.w * c.h, 0);
      t1_decode_block(enc.data.data(), len, enc.num_bitplanes, k, c.orient,
                      Span2d<Sample>(out.data(), c.w, c.h), c.opt);
      if (k == full) {
        ASSERT_EQ(out, c.coeffs);
      }
      for (const Sample v : out) {
        put(record, static_cast<std::uint32_t>(v), 4);
      }
    }
  }
  EXPECT_EQ(common::sha256_hex(record),
            "96125c8ea7cc4929a78d23ed900682632ffd8bb873881b3b9d44aa611c29d400");
}

/// Stands in for MqDecoder in the walk: ignores the bit the walk offers and
/// returns the next decision of a recorded stream, noting the first
/// decision the walk asks for in another context than the recorded one.
class StreamCoder {
 public:
  StreamCoder(const MqContext* bank, const std::vector<T1Decision>& stream)
      : bank_(bank), stream_(&stream) {}

  int code(const MqContext& cx, int /*d*/) {
    if (next_ == stream_->size()) {
      overrun_ = true;
      return 0;
    }
    const T1Decision& dec = (*stream_)[next_];
    if (first_mismatch_ == kNone && &cx - bank_ != dec.context) {
      first_mismatch_ = next_;
    }
    ++next_;
    return dec.bit;
  }

  static constexpr std::size_t kNone = ~std::size_t{0};
  std::size_t consumed() const { return next_; }
  bool overrun() const { return overrun_; }
  std::size_t first_mismatch() const { return first_mismatch_; }

 private:
  const MqContext* bank_;
  const std::vector<T1Decision>* stream_;
  std::size_t next_ = 0;
  bool overrun_ = false;
  std::size_t first_mismatch_ = kNone;
};

TEST(T1Walk, DecodeDirectionRequestsTheEncodersContexts) {
  std::size_t index = 0;
  for (const PinCase& c : pin_corpus()) {
    const Span2d<const Sample> in(c.coeffs.data(), c.w, c.h);
    const std::vector<T1Decision> stream =
        t1_decision_stream(in, c.orient, c.opt);
    T1Flags prescan(c.w, c.h, c.opt.vertically_causal);
    std::vector<std::uint32_t> mag(prescan.stripes() * kStripeHeight * c.w);
    const int planes = std::bit_width(block_prescan(in, mag.data(), &prescan));

    // From zero state, as the decoder starts, with every pass run.
    T1Walk walk(c.w, c.h, c.orient, c.opt);
    StreamCoder coder(&walk.contexts()[0], stream);
    walk.code(coder, planes,
              [](const StreamCoder&, PassType, int, double) { return true; });
    const std::string where = "case " + std::to_string(index++) + " (" +
                              std::to_string(c.w) + "x" +
                              std::to_string(c.h) + ")";
    ASSERT_EQ(coder.first_mismatch(), StreamCoder::kNone) << where;
    ASSERT_FALSE(coder.overrun()) << where;
    ASSERT_EQ(coder.consumed(), stream.size()) << where;
    ASSERT_EQ(walk.magnitudes(), mag) << where;
    for (std::size_t y = 0; y < c.h; ++y) {
      for (std::size_t x = 0; x < c.w; ++x) {
        ASSERT_EQ(walk.flags().at(y, x) & kFlagSign,
                  prescan.at(y, x) & kFlagSign)
            << where << " at (" << x << "," << y << ")";
      }
    }
  }
}

}  // namespace
}  // namespace cj2k::jp2k
