// Bit-stuffed header bit I/O and tag-tree tests.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "jp2k/tagtree.hpp"

namespace cj2k::jp2k {
namespace {

TEST(BitIo, RoundtripRandomBits) {
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.next_below(500);
    std::vector<int> bits(n);
    for (auto& b : bits) b = static_cast<int>(rng.next_below(2));

    BitWriter bw;
    for (int b : bits) bw.put_bit(b);
    bw.align();
    const auto bytes = bw.take();

    BitReader br(bytes.data(), bytes.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(br.get_bit(), bits[i]) << "trial " << trial << " bit " << i;
    }
    br.align();
    EXPECT_EQ(br.position(), bytes.size());
  }
}

TEST(BitIo, StuffsZeroAfterFF) {
  BitWriter bw;
  // 16 one-bits would produce 0xFF 0xFF without stuffing.
  for (int i = 0; i < 16; ++i) bw.put_bit(1);
  bw.align();
  const auto& bytes = bw.bytes();
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    if (bytes[i] == 0xFF) {
      EXPECT_LT(bytes[i + 1], 0x80) << i;
    }
  }
  // Reader recovers the exact bit sequence.
  BitReader br(bytes.data(), bytes.size());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(br.get_bit(), 1);
}

TEST(BitIo, FlushNeverEndsOnFF) {
  BitWriter bw;
  for (int i = 0; i < 8; ++i) bw.put_bit(1);
  bw.align();
  EXPECT_NE(bw.bytes().back(), 0xFF);
}

TEST(BitIo, MultiBitValues) {
  BitWriter bw;
  bw.put_bits(0b101101, 6);
  bw.put_bits(0xFFFF, 16);
  bw.put_bits(3, 2);
  bw.align();
  const auto bytes = bw.take();
  BitReader br(bytes.data(), bytes.size());
  EXPECT_EQ(br.get_bits(6), 0b101101u);
  EXPECT_EQ(br.get_bits(16), 0xFFFFu);
  EXPECT_EQ(br.get_bits(2), 3u);
}

TEST(BitIo, ConcatenatedSegmentsAlignCorrectly) {
  // Two flushed segments back to back (like consecutive packet headers).
  BitWriter w1, w2;
  for (int i = 0; i < 13; ++i) w1.put_bit(1);
  w1.align();
  for (int i = 0; i < 5; ++i) w2.put_bit(i & 1);
  w2.align();
  auto bytes = w1.take();
  const auto b2 = w2.take();
  bytes.insert(bytes.end(), b2.begin(), b2.end());

  BitReader br(bytes.data(), bytes.size());
  for (int i = 0; i < 13; ++i) EXPECT_EQ(br.get_bit(), 1);
  br.align();
  const std::size_t seg2 = br.position();
  BitReader br2(bytes.data() + seg2, bytes.size() - seg2);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(br2.get_bit(), i & 1);
}

/// Encodes then decodes a full tag-tree field with per-leaf thresholds
/// value+1 (the "how many zero planes" usage).
void tagtree_roundtrip(std::size_t w, std::size_t h, std::uint64_t seed,
                       int maxval) {
  Rng rng(seed);
  std::vector<int> values(w * h);
  for (auto& v : values) {
    v = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(maxval) + 1));
  }

  TagTree enc(w, h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      enc.set_value(x, y, values[y * w + x]);
    }
  }
  enc.finalize();

  BitWriter bw;
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      enc.code(bw, x, y, values[y * w + x] + 1);
    }
  }
  bw.align();
  const auto bytes = bw.take();

  TagTree dec(w, h);
  BitReader br(bytes.data(), bytes.size());
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      int t = 0;
      while (!dec.code(br, x, y, t + 1)) ++t;
      ASSERT_EQ(t, values[y * w + x]) << w << "x" << h << " (" << x << ","
                                      << y << ")";
    }
  }
}

TEST(TagTree, RoundtripSingleLeaf) { tagtree_roundtrip(1, 1, 21, 9); }
TEST(TagTree, RoundtripRow) { tagtree_roundtrip(7, 1, 22, 5); }
TEST(TagTree, RoundtripColumn) { tagtree_roundtrip(1, 9, 23, 5); }
TEST(TagTree, RoundtripSquare) { tagtree_roundtrip(8, 8, 24, 12); }
TEST(TagTree, RoundtripOdd) { tagtree_roundtrip(13, 5, 25, 12); }
TEST(TagTree, RoundtripLarge) { tagtree_roundtrip(33, 17, 26, 20); }

TEST(TagTree, InclusionStyleThresholdQueries) {
  // Binary inclusion field queried at threshold 1 (Tier-2's usage).
  Rng rng(31);
  const std::size_t w = 9, h = 6;
  std::vector<int> incl(w * h);
  for (auto& v : incl) v = static_cast<int>(rng.next_below(2));

  TagTree enc(w, h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) enc.set_value(x, y, incl[y * w + x]);
  }
  enc.finalize();
  BitWriter bw;
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) enc.code(bw, x, y, 1);
  }
  bw.align();
  const auto bytes = bw.take();

  TagTree dec(w, h);
  BitReader br(bytes.data(), bytes.size());
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      EXPECT_EQ(dec.code(br, x, y, 1), incl[y * w + x] < 1);
    }
  }
}

TEST(TagTree, MinimumPropagatesToRoot) {
  TagTree t(4, 4);
  for (std::size_t y = 0; y < 4; ++y) {
    for (std::size_t x = 0; x < 4; ++x) {
      t.set_value(x, y, 10);
    }
  }
  t.set_value(2, 3, 1);
  t.finalize();
  // Coding the minimum leaf takes few bits; a max leaf in the same subtree
  // must re-use the root information.  Just verify codability.
  BitWriter bw;
  t.code(bw, 2, 3, 2);
  bw.align();
  EXPECT_LE(bw.bytes().size(), 2u);
}

}  // namespace
}  // namespace cj2k::jp2k
