// Tier-2 packet encoder/decoder roundtrip on synthetic tiles.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "jp2k/t2_decoder.hpp"
#include "jp2k/t2_encoder.hpp"
#include "jp2k/tagtree.hpp"

namespace cj2k::jp2k {
namespace {

/// Builds a synthetic encoded tile with random codewords and pass counts.
/// Blocks carry 1 to 31 planes, so pass counts reach every field of the
/// Table B.4 code (up to 91 passes).
Tile make_tile(std::size_t w, std::size_t h, int levels, std::size_t ncomp,
               std::size_t cb, std::uint64_t seed, double include_prob) {
  Rng rng(seed);
  Tile tile;
  tile.width = w;
  tile.height = h;
  tile.levels = levels;
  for (std::size_t c = 0; c < ncomp; ++c) {
    TileComponent tc;
    for (const auto& info : subband_layout(w, h, levels)) {
      Subband sb;
      sb.info = info;
      sb.quant_step = 1.0;
      make_block_grid(sb, cb, cb);
      int numbps_band = 0;
      for (auto& blk : sb.blocks) {
        if (rng.next_double() < include_prob) {
          const int planes = 1 + static_cast<int>(rng.next_below(31));
          const int max_passes = 1 + 3 * (planes - 1);
          blk.enc.num_bitplanes = planes;
          blk.included_passes =
              1 + static_cast<int>(rng.next_below(
                      static_cast<std::uint64_t>(max_passes)));
          const std::size_t len = 1 + rng.next_below(5000);
          blk.enc.data.resize(len);
          for (auto& byte : blk.enc.data) {
            byte = static_cast<std::uint8_t>(rng.next_below(255));  // no FF
          }
          blk.included_len = len;
          numbps_band = std::max(numbps_band, planes);
        } else {
          blk.included_passes = 0;
          blk.enc.num_bitplanes = 0;
        }
      }
      sb.band_numbps = numbps_band;
      tc.subbands.push_back(std::move(sb));
    }
    tile.components.push_back(std::move(tc));
  }
  return tile;
}

Tile skeleton_of(const Tile& src, std::size_t cb) {
  Tile t;
  t.width = src.width;
  t.height = src.height;
  t.levels = src.levels;
  for (const auto& tc : src.components) {
    TileComponent out;
    for (const auto& sb : tc.subbands) {
      Subband s;
      s.info = sb.info;
      s.quant_step = sb.quant_step;
      s.band_numbps = sb.band_numbps;
      make_block_grid(s, cb, cb);
      out.subbands.push_back(std::move(s));
    }
    t.components.push_back(std::move(out));
  }
  return t;
}

void roundtrip(std::size_t w, std::size_t h, int levels, std::size_t ncomp,
               std::size_t cb, std::uint64_t seed, double include_prob) {
  const Tile tile = make_tile(w, h, levels, ncomp, cb, seed, include_prob);
  const auto packets = t2_encode(tile);

  Tile back = skeleton_of(tile, cb);
  const std::size_t consumed = t2_decode(packets.data(), packets.size(), back);
  EXPECT_EQ(consumed, packets.size());

  for (std::size_t c = 0; c < tile.components.size(); ++c) {
    const auto& tc = tile.components[c];
    const auto& bc = back.components[c];
    ASSERT_EQ(tc.subbands.size(), bc.subbands.size());
    for (std::size_t s = 0; s < tc.subbands.size(); ++s) {
      const auto& sb = tc.subbands[s];
      const auto& sc = bc.subbands[s];
      ASSERT_EQ(sb.blocks.size(), sc.blocks.size());
      for (std::size_t i = 0; i < sb.blocks.size(); ++i) {
        const auto& a = sb.blocks[i];
        const auto& b = sc.blocks[i];
        ASSERT_EQ(a.included_passes, b.included_passes)
            << "c" << c << " s" << s << " blk" << i;
        if (a.included_passes > 0) {
          EXPECT_EQ(a.enc.num_bitplanes, b.enc.num_bitplanes);
          ASSERT_EQ(b.enc.data.size(), a.included_len);
          EXPECT_TRUE(std::equal(b.enc.data.begin(), b.enc.data.end(),
                                 a.enc.data.begin()));
        }
      }
    }
  }
}

TEST(T2Roundtrip, SmallTileAllIncluded) { roundtrip(64, 64, 2, 1, 32, 1, 1.0); }
TEST(T2Roundtrip, ColorTile) { roundtrip(128, 96, 3, 3, 64, 2, 1.0); }
TEST(T2Roundtrip, SparseInclusion) { roundtrip(256, 256, 5, 3, 64, 3, 0.4); }
TEST(T2Roundtrip, NothingIncluded) { roundtrip(128, 128, 3, 1, 64, 4, 0.0); }
TEST(T2Roundtrip, OddGeometry) { roundtrip(97, 61, 3, 2, 32, 5, 0.7); }
TEST(T2Roundtrip, TinyBlocks) { roundtrip(64, 64, 1, 1, 8, 6, 0.6); }

TEST(T2, EncodedSizeMatchesEncode) {
  const Tile tile = make_tile(128, 128, 3, 3, 64, 9, 0.8);
  EXPECT_EQ(t2_encoded_size(tile), t2_encode(tile).size());
}

TEST(T2, TruncatedBodyThrows) {
  const Tile tile = make_tile(64, 64, 2, 1, 32, 10, 1.0);
  auto packets = t2_encode(tile);
  packets.resize(packets.size() / 2);
  Tile back = skeleton_of(tile, 32);
  EXPECT_THROW(t2_decode(packets.data(), packets.size(), back),
               Error);
}

// --- Hostile packet headers -------------------------------------------------
//
// Each header below is built bit by bit for a one-block tile, so every field
// the parser bounds can be pushed just past its limit.  All of them must be
// rejected while parsing, as CodestreamError, before any Tier-1 decode could
// see the block.

/// A 32x32 tile with no decomposition levels, one 32x32 block, whose LL
/// band announces `band_numbps` magnitude planes.
Tile one_block_tile(int band_numbps, int layers = 1) {
  Tile t;
  t.width = 32;
  t.height = 32;
  t.layers = layers;
  TileComponent tc;
  for (const auto& info : subband_layout(32, 32, 0)) {
    Subband sb;
    sb.info = info;
    sb.quant_step = 1.0;
    sb.band_numbps = band_numbps;
    make_block_grid(sb, 32, 32);
    tc.subbands.push_back(std::move(sb));
  }
  t.components.push_back(std::move(tc));
  return t;
}

/// Appends a header's literal bits ("0"/"1" characters, spaces ignored).
void put(BitWriter& bw, const char* bits) {
  for (; *bits; ++bits) {
    if (*bits != ' ') bw.put_bit(*bits == '1');
  }
}

/// The block's first packet: non-empty, included in layer 0,
/// `zero_planes` missing planes, then `tail` (pass count, Lblock increment
/// and segment length), then `body` bytes.
std::vector<std::uint8_t> first_packet(int zero_planes, const char* tail,
                                       std::size_t body) {
  BitWriter bw;
  put(bw, "1 1");
  for (int z = 0; z < zero_planes; ++z) put(bw, "0");
  put(bw, "1");
  put(bw, tail);
  bw.align();
  std::vector<std::uint8_t> out = bw.take();
  out.resize(out.size() + body, 0x11);
  return out;
}

std::size_t decode_packets(const std::vector<std::uint8_t>& packets,
                           Tile tile) {
  return t2_decode(packets.data(), packets.size(), tile);
}

TEST(T2Hostile, WellFormedOneBlockPacketParses) {
  // One pass, Lblock 3, a 3-bit length of 1 byte, 31 planes: accepted.
  Tile tile = one_block_tile(31);
  const auto packets = first_packet(0, "0 0 001", 1);
  EXPECT_EQ(t2_decode(packets.data(), packets.size(), tile), packets.size());
  EXPECT_EQ(tile.components[0].subbands[0].blocks[0].enc.num_bitplanes, 31);
}

TEST(T2Hostile, NegativeBitPlaneCountIsACodestreamError) {
  EXPECT_THROW(decode_packets(first_packet(3, "0 0 001", 1), one_block_tile(2)),
               CodestreamError);
}

TEST(T2Hostile, BitPlaneCountOver31IsACodestreamError) {
  // QCD admits numbps up to 38; a 32-bit magnitude has at most 31 planes.
  for (const int numbps : {32, 38}) {
    EXPECT_THROW(
        decode_packets(first_packet(0, "0 0 001", 1), one_block_tile(numbps)),
        CodestreamError)
        << numbps;
  }
}

TEST(T2Hostile, SegmentLengthWiderThan32BitsIsACodestreamError) {
  // Lblock 3 + 30 increments = 33 length bits for one pass.
  EXPECT_THROW(decode_packets(first_packet(0,
                                           "0 111111111111111111111111111111 0",
                                           0),
                              one_block_tile(8)),
               CodestreamError);
}

TEST(T2Hostile, TruncatedPacketBodyIsACodestreamError) {
  // The header promises 7 body bytes; 3 follow.
  EXPECT_THROW(decode_packets(first_packet(0, "0 0 111", 3), one_block_tile(8)),
               CodestreamError);
}

TEST(T2Hostile, TruncatedPacketHeaderIsACodestreamError) {
  std::vector<std::uint8_t> packets = first_packet(0, "0 0 111", 7);
  packets.resize(1);
  EXPECT_THROW(decode_packets(packets, one_block_tile(8)), CodestreamError);
}

TEST(T2Hostile, MorePassesThanBitPlanesIsACodestreamError) {
  // One plane allows one pass; the first packet claims two.
  EXPECT_THROW(
      decode_packets(first_packet(0, "10 0 0010", 2), one_block_tile(1)),
      CodestreamError);

  // Two layers of one pass each: the second packet pushes the block's
  // accumulated count past 1 + 3 (planes - 1).
  std::vector<std::uint8_t> packets = first_packet(0, "0 0 001", 1);
  BitWriter bw;
  put(bw, "1 1 0 0 001");  // non-empty, included again, 1 pass, 1 byte
  bw.align();
  const std::vector<std::uint8_t> second = bw.take();
  packets.insert(packets.end(), second.begin(), second.end());
  packets.push_back(0x11);
  EXPECT_THROW(decode_packets(packets, one_block_tile(1, 2)), CodestreamError);
}

/// A tile whose blocks have genuine pass records and a random ascending
/// allocation over 3 quality layers (possibly empty in early layers).
Tile make_layered_tile() {
  Rng rng(77);
  Tile tile;
  tile.width = 128;
  tile.height = 128;
  tile.levels = 2;
  tile.layers = 3;
  TileComponent tc;
  for (const auto& info : subband_layout(128, 128, 2)) {
    Subband sb;
    sb.info = info;
    sb.quant_step = 1.0;
    make_block_grid(sb, 32, 32);
    int numbps_band = 1;
    for (auto& blk : sb.blocks) {
      const int planes = 2 + static_cast<int>(rng.next_below(6));
      const int total_passes = 1 + 3 * (planes - 1);
      blk.enc.num_bitplanes = planes;
      numbps_band = std::max(numbps_band, planes);
      std::size_t len = 0;
      for (int pi = 0; pi < total_passes; ++pi) {
        PassInfo info2{};
        len += 1 + rng.next_below(40);
        info2.trunc_len = len;
        blk.enc.passes.push_back(info2);
      }
      blk.enc.data.resize(len);
      for (auto& byte : blk.enc.data) {
        byte = static_cast<std::uint8_t>(rng.next_below(255));
      }
      const int l0 = static_cast<int>(rng.next_below(total_passes + 1));
      const int l1 =
          l0 + static_cast<int>(rng.next_below(total_passes - l0 + 1));
      blk.layer_passes = {l0, l1, total_passes};
      blk.included_passes = total_passes;
      blk.included_len = len;
    }
    sb.band_numbps = numbps_band;
    tc.subbands.push_back(std::move(sb));
  }
  tile.components.push_back(std::move(tc));
  return tile;
}

/// Encodes `tile`'s 3 layers, decodes them, and compares the accumulated
/// segments.
void layered_roundtrip(const Tile& tile) {
  const auto packets = t2_encode(tile);

  Tile back = skeleton_of(tile, 32);
  back.layers = tile.layers;
  back.progression = tile.progression;
  const std::size_t consumed = t2_decode(packets.data(), packets.size(), back);
  EXPECT_EQ(consumed, packets.size());

  for (std::size_t s2 = 0; s2 < tile.components[0].subbands.size(); ++s2) {
    const auto& sb = tile.components[0].subbands[s2];
    const auto& sc = back.components[0].subbands[s2];
    for (std::size_t i = 0; i < sb.blocks.size(); ++i) {
      const auto& a = sb.blocks[i];
      const auto& b = sc.blocks[i];
      ASSERT_EQ(b.included_passes, a.included_passes) << s2 << " " << i;
      ASSERT_EQ(b.enc.data.size(), a.included_len);
      EXPECT_TRUE(std::equal(b.enc.data.begin(), b.enc.data.end(),
                             a.enc.data.begin()));
      EXPECT_EQ(b.enc.num_bitplanes, a.enc.num_bitplanes);
    }
  }
}

TEST(T2Layers, MultiLayerRoundtripWithPassRecords) {
  layered_roundtrip(make_layered_tile());
}

TEST(T2Layers, RlcpMultiLayerRoundtrip) {
  Tile tile = make_layered_tile();
  tile.progression = 1;
  layered_roundtrip(tile);
}

TEST(T2Layers, RlcpTruncationIsRefusedBeforeParsing) {
  // A valid 2-layer RLCP stream: every resolution's packets carry both
  // layers, so stopping each resolution after one layer would read the next
  // resolution from the wrong offset.  t2_decode refuses it as an argument
  // error, before any packet is read; the full decode is accepted.
  Tile tile = make_tile(128, 96, 3, 3, 64, 12, 1.0);
  tile.layers = 2;
  tile.progression = 1;
  const auto packets = t2_encode(tile);
  for (const int max_layers : {0, 2, 3}) {
    Tile back = skeleton_of(tile, 64);
    back.layers = 2;
    back.progression = 1;
    EXPECT_EQ(t2_decode(packets.data(), packets.size(), back, max_layers),
              packets.size())
        << max_layers;
  }
  Tile back = skeleton_of(tile, 64);
  back.layers = 2;
  back.progression = 1;
  EXPECT_THROW(t2_decode(packets.data(), packets.size(), back, 1),
               InvalidArgument);
  // Refused before parsing: an empty stream gets the same answer.
  EXPECT_THROW(t2_decode(nullptr, 0, back, 1), InvalidArgument);
}

// --- Pins ---------------------------------------------------------------
//
// SHA-256 digests of t2_encode over the tiles above, in both progression
// orders.  They pin the packet syntax byte for byte: inclusion and
// zero-plane tag trees, every pass-count field, Lblock growth, segment
// lengths, empty packets and the stitch order.

struct T2PinTile {
  const char* name;
  Tile tile;
};

std::vector<T2PinTile> t2_pin_tiles() {
  std::vector<T2PinTile> out;
  out.push_back({"small", make_tile(64, 64, 2, 1, 32, 1, 1.0)});
  out.push_back({"color", make_tile(128, 96, 3, 3, 64, 2, 1.0)});
  out.push_back({"sparse", make_tile(256, 256, 5, 3, 64, 3, 0.4)});
  out.push_back({"empty", make_tile(128, 128, 3, 1, 64, 4, 0.0)});
  out.push_back({"odd", make_tile(97, 61, 3, 2, 32, 5, 0.7)});
  out.push_back({"tiny", make_tile(64, 64, 1, 1, 8, 6, 0.6)});
  out.push_back({"layered", make_layered_tile()});
  Tile two = make_tile(128, 96, 3, 3, 64, 12, 1.0);
  two.layers = 2;
  out.push_back({"two_layer", std::move(two)});
  return out;
}

struct T2Pin {
  const char* name;
  const char* lrcp;
  const char* rlcp;
};

// With one layer both orders send the same packets, so the two digests
// agree; the layered tiles tell them apart.
constexpr T2Pin kT2Pins[] = {
    {"small",
     "a147138e1d4ee42e2a1c8c92778e50ee0d14c656e6015ef5d0f7f64cf7d4f352",
     "a147138e1d4ee42e2a1c8c92778e50ee0d14c656e6015ef5d0f7f64cf7d4f352"},
    {"color",
     "f67fa19e4a578660308844e955c6b293e275338a5867b1ca34d6f5e0d1e1729c",
     "f67fa19e4a578660308844e955c6b293e275338a5867b1ca34d6f5e0d1e1729c"},
    {"sparse",
     "bf98f3bfacd349ea1fa216e8d43a5f51d6c9bcafc92fb7f569f8232712b70a1e",
     "bf98f3bfacd349ea1fa216e8d43a5f51d6c9bcafc92fb7f569f8232712b70a1e"},
    {"empty",
     "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
     "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119"},
    {"odd",
     "8e65f758a7dfbbe0ba8d254dc59dbff4f6fcc4b5136580b88905ff5222a0b362",
     "8e65f758a7dfbbe0ba8d254dc59dbff4f6fcc4b5136580b88905ff5222a0b362"},
    {"tiny",
     "cc41a42885228fe3b807f27e20f801d2927fdc666f23e144cc05b36d6248e8fc",
     "cc41a42885228fe3b807f27e20f801d2927fdc666f23e144cc05b36d6248e8fc"},
    {"layered",
     "6626d14ce457a152215b3c9fddc86b38e6a135f65c92163bba1d89441751f7c4",
     "7ec8efd4d405b7640d3ff72564ab18392dc9c9ff6e3411a7c0d3a07dc0181056"},
    {"two_layer",
     "714cad357695ae726bed8d7f2f730983b9eb87a75f0ffbd82605d56d175efa37",
     "7ee68b05ab074085c27a3bd8ff3dea3700eca53580b2d75bd5706a2fef67a139"},
};

TEST(T2Pins, EncoderDigests) {
  auto tiles = t2_pin_tiles();
  ASSERT_EQ(tiles.size(), std::size(kT2Pins));
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    ASSERT_STREQ(tiles[i].name, kT2Pins[i].name);
    Tile& tile = tiles[i].tile;
    tile.progression = 0;
    const std::string lrcp = common::sha256_hex(t2_encode(tile));
    tile.progression = 1;
    const std::string rlcp = common::sha256_hex(t2_encode(tile));
    EXPECT_EQ(lrcp, kT2Pins[i].lrcp) << tiles[i].name << " LRCP";
    EXPECT_EQ(rlcp, kT2Pins[i].rlcp) << tiles[i].name << " RLCP";
  }
}

}  // namespace
}  // namespace cj2k::jp2k
