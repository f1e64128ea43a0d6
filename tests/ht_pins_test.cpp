// HT pins: SHA-256 digests over everything the HT block coder produces,
// captured from the bit-at-a-time encoder (one BitWriter::put per coded
// bit).  Any change to the coder's internals must keep them: the segment
// bytes, num_bitplanes, total_symbols (the HT cost-model basis) and every
// PassInfo field, with dist_reduction compared by its exact bits.
//
// The seeded corpus covers 1×1, odd widths and heights (partial quads),
// 64×64, and the 1024×4 / 4×1024 extremes, with magnitudes up to 2^31−1;
// the photo digests cover every HT block of a lossless 5/3 and a lossy 9/7
// encode of the synthetic photo.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "image/synth.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/ht_block.hpp"

namespace cj2k::jp2k {
namespace {

struct PinShape {
  std::size_t w;
  std::size_t h;
  std::int64_t maxmag;  ///< Magnitudes are drawn from [0, maxmag].
  int sparsity;         ///< One sample in `sparsity` is nonzero.
};

constexpr std::int64_t kMaxMag = (std::int64_t{1} << 31) - 1;

// 1×1 and 3×7 reach 31 magnitude bits; 5×3, 17×13 and 63×1 end on partial
// quads in one or both directions; 64×64 is a full block both dense and
// sparse; 1024×4 and 4×1024 are the longest legal rows and columns.
constexpr PinShape kPinShapes[] = {
    {1, 1, kMaxMag, 1},    {3, 7, kMaxMag, 1},     {5, 3, 40, 2},
    {17, 13, 5000, 3},     {63, 1, 1 << 20, 2},    {64, 64, 1000, 1},
    {64, 64, kMaxMag, 9},  {64, 64, 3, 40},        {1024, 4, 255, 3},
    {4, 1024, 1 << 16, 4},
};

struct PinCase {
  std::vector<Sample> coeffs;
  std::size_t w;
  std::size_t h;
};

std::vector<PinCase> pin_corpus() {
  std::vector<PinCase> out;
  std::uint64_t seed = 1;
  for (const PinShape& s : kPinShapes) {
    for (int draw = 0; draw < 4; ++draw) {
      PinCase c;
      c.w = s.w;
      c.h = s.h;
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
      // Every shape reaches its full magnitude range, with either sign.
      c.coeffs[c.coeffs.size() / 2] =
          static_cast<Sample>((draw & 1) ? -s.maxmag : s.maxmag);
      out.push_back(std::move(c));
    }
  }
  return out;
}

void put(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void record_block(std::vector<std::uint8_t>& record,
                  const T1EncodedBlock& enc) {
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

/// Digest over every code block of a one-tile HT encode of the photo, in
/// component / subband / block order (build_tile runs ht_encode_block).
std::string photo_digest(const CodingParams& p) {
  const Image img = synth::photographic(384, 320, 3, 20080901);
  const Tile tile = build_tile(img, p);
  std::vector<std::uint8_t> record;
  std::size_t blocks = 0;
  for (const auto& tc : tile.components) {
    for (const auto& sb : tc.subbands) {
      for (const auto& cb : sb.blocks) {
        record_block(record, cb.enc);
        ++blocks;
      }
    }
  }
  EXPECT_GT(blocks, 100u);
  return common::sha256_hex(record);
}

TEST(HtPins, SeededCorpusEncoderDigest) {
  std::vector<std::uint8_t> record;
  for (const PinCase& c : pin_corpus()) {
    record_block(record, ht_encode_block(Span2d<const Sample>(
                             c.coeffs.data(), c.w, c.h)));
  }
  EXPECT_EQ(common::sha256_hex(record),
            "410307d3d1bb0b249be72bbdd1a81088bd6241d7320d647efb68c9c0134f1717");
}

TEST(HtPins, LosslessPhotoBlocksDigest) {
  CodingParams p;
  p.block_coder = BlockCoder::kHt;
  EXPECT_EQ(photo_digest(p),
            "0e2364441cdfe8f4c4823e22e6eab7ad1907da332db4660d0d85b0466754898d");
}

TEST(HtPins, LossyPhotoBlocksDigest) {
  CodingParams p;
  p.block_coder = BlockCoder::kHt;
  p.wavelet = WaveletKind::kIrreversible97;
  p.rate = 0.25;
  EXPECT_EQ(photo_digest(p),
            "93d09332ca9101d219f97614e521076cf16166d863c634647aef74d62ca1b20b");
}

}  // namespace
}  // namespace cj2k::jp2k
