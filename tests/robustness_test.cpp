// Robustness: corrupted codestreams must fail cleanly (throw cj2k::Error)
// or decode to *some* image — never crash, hang, or exhaust memory.  Also
// exercises the paper's §2 constant-Local-Store property as an executable
// invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "cell/machine.hpp"
#include "cellenc/stage_dwt.hpp"
#include "common/rng.hpp"
#include "image/synth.hpp"
#include "jp2k/decoder.hpp"
#include "jp2k/codestream.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/t2_decoder.hpp"
#include "jp2k/tile.hpp"

namespace cj2k {
namespace {

TEST(Fuzz, SingleByteCorruptionNeverCrashes) {
  const Image img = synth::photographic(96, 96, 3, 11);
  jp2k::CodingParams p;
  p.levels = 3;
  const auto good = jp2k::encode(img, p);

  Rng rng(99);
  int threw = 0, decoded = 0;
  for (int trial = 0; trial < 300; ++trial) {
    auto bad = good;
    const std::size_t pos = rng.next_below(bad.size());
    bad[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    try {
      const Image out = jp2k::decode(bad);
      EXPECT_EQ(out.width(), img.width());
      ++decoded;
    } catch (const Error&) {
      ++threw;
    }
  }
  // Both outcomes are acceptable; both must occur over 300 trials (a
  // decoder that never throws is not validating, one that always throws is
  // too brittle for single-bit payload damage).
  EXPECT_GT(threw, 0);
  EXPECT_GT(decoded, 0);
}

TEST(Fuzz, TruncationAtEveryRegionFailsCleanly) {
  const Image img = synth::photographic(64, 64, 1, 13);
  jp2k::CodingParams p;
  p.mct = false;
  const auto good = jp2k::encode(img, p);
  for (std::size_t keep = 0; keep < good.size(); keep += 7) {
    auto cut = good;
    cut.resize(keep);
    try {
      (void)jp2k::decode(cut);
    } catch (const Error&) {
      // expected for most prefixes
    }
  }
  SUCCEED();
}

TEST(Fuzz, RandomGarbageIsRejected) {
  Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(4096));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    EXPECT_THROW((void)jp2k::decode(junk), Error) << trial;
  }
}

TEST(Fuzz, LossyStreamCorruptionNeverCrashes) {
  const Image img = synth::photographic(96, 96, 3, 19);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.rate = 0.2;
  p.layers = 3;
  const auto good = jp2k::encode(img, p);
  Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    auto bad = good;
    // Corrupt a small burst.
    const std::size_t pos = rng.next_below(bad.size());
    for (std::size_t k = 0; k < 4 && pos + k < bad.size(); ++k) {
      bad[pos + k] ^= static_cast<std::uint8_t>(rng.next_below(256));
    }
    try {
      (void)jp2k::decode(bad);
    } catch (const Error&) {
    }
  }
  SUCCEED();
}

TEST(ConstantLocalStore, DwtFootprintIsIndependentOfImageHeight) {
  // Paper §2: "the Local Store space requirement becomes constant
  // independent of the data array size."  The DWT kernels must use the
  // same peak Local Store for a 128-row and a 2048-row image of the same
  // width.
  cell::MachineConfig cfg;
  cfg.num_spes = 2;
  const std::size_t w = 512;

  std::size_t peak_small = 0, peak_tall = 0;
  {
    cell::Machine m(cfg);
    Plane plane(w, 128);
    cellenc::stage_dwt53(m, plane.view(), 1);
    for (int i = 0; i < m.num_spes(); ++i) {
      peak_small = std::max(peak_small, m.spe(i).ls.peak_used());
    }
  }
  {
    cell::Machine m(cfg);
    Plane plane(w, 2048);
    cellenc::stage_dwt53(m, plane.view(), 1);
    for (int i = 0; i < m.num_spes(); ++i) {
      peak_tall = std::max(peak_tall, m.spe(i).ls.peak_used());
    }
  }
  EXPECT_EQ(peak_small, peak_tall);
  EXPECT_GT(peak_small, 0u);
  EXPECT_LT(peak_tall, cell::LocalStore::kCapacity);
}

TEST(ConstantLocalStore, HugeImageStillFits) {
  // A 4096-wide, 4096-tall single-component plane streams through the
  // pipeline without ever exhausting the 256 KB Local Store.
  cell::MachineConfig cfg;
  cfg.num_spes = 8;
  cell::Machine m(cfg);
  Plane plane(4096, 4096);
  EXPECT_NO_THROW(cellenc::stage_dwt53(m, plane.view(), 2));
}


// --- Typed errors from hostile streams -------------------------------------
// Each case damages one structure the decoder must reject and asserts the
// exact CodestreamError reaches the caller — not the internal cj2k::Error,
// not a crash, not a wrapped or swallowed error — including when the damage
// is found by a Tier-1 block decode running on a host pool helper.

std::uint32_t get_be(const std::vector<std::uint8_t>& b, std::size_t pos,
                     int bytes) {
  std::uint32_t v = 0;
  for (int i = 0; i < bytes; ++i) v = (v << 8) | b[pos + i];
  return v;
}

void put_be(std::vector<std::uint8_t>& b, std::size_t pos, int bytes,
            std::uint32_t v) {
  for (int i = bytes - 1; i >= 0; --i) {
    b[pos + i] = static_cast<std::uint8_t>(v);
    v >>= 8;
  }
}

/// Offset of the first SOT marker, found by walking the main header's
/// marker segments from SOC.
std::size_t first_sot(const std::vector<std::uint8_t>& b) {
  std::size_t pos = 2;
  while (get_be(b, pos, 2) != 0xFF90) pos += 2 + get_be(b, pos + 2, 2);
  return pos;
}

/// Adds `delta` bytes to the single tile-part's Psot.
void adjust_psot(std::vector<std::uint8_t>& b, long delta) {
  const std::size_t psot = first_sot(b) + 6;
  put_be(b, psot, 4,
         static_cast<std::uint32_t>(static_cast<long>(get_be(b, psot, 4)) +
                                    delta));
}

/// Calls decode and returns the CodestreamError's message ("" if it did not
/// throw one; any other exception type fails the test).
std::string codestream_error_of(const std::vector<std::uint8_t>& bytes) {
  try {
    (void)jp2k::decode(bytes);
  } catch (const CodestreamError& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected CodestreamError, got " << typeid(e).name()
                  << ": " << e.what();
    return {};
  }
  ADD_FAILURE() << "decode accepted the damaged stream";
  return {};
}

std::vector<std::uint8_t> small_lossless_stream() {
  jp2k::CodingParams p;
  p.levels = 2;
  return jp2k::encode(synth::photographic(64, 48, 3, 41), p);
}

TEST(DecodeErrors, QcdDroppingABandIsCodestreamError) {
  auto bytes = small_lossless_stream();
  // Tile header: SOT (12 bytes), then QCD marker, Lqcd, Ncomp, and
  // component 0's band count followed by its 11-byte band records.
  const std::size_t qcd = first_sot(bytes) + 12;
  ASSERT_EQ(get_be(bytes, qcd, 2), 0xFF5Cu);
  const std::size_t nbands_at = qcd + 6;
  const std::uint32_t nbands = get_be(bytes, nbands_at, 2);
  ASSERT_EQ(nbands, 7u);  // 3 * levels + 1
  const std::size_t last = nbands_at + 2 + (nbands - 1) * 11;
  bytes.erase(bytes.begin() + static_cast<long>(last),
              bytes.begin() + static_cast<long>(last + 11));
  put_be(bytes, nbands_at, 2, nbands - 1);
  put_be(bytes, qcd + 2, 2, get_be(bytes, qcd + 2, 2) - 11);
  adjust_psot(bytes, -11);
  EXPECT_NE(codestream_error_of(bytes).find("QCD band count"),
            std::string::npos);
}

TEST(DecodeErrors, QcdAddingABandIsCodestreamError) {
  auto bytes = small_lossless_stream();
  const std::size_t qcd = first_sot(bytes) + 12;
  ASSERT_EQ(get_be(bytes, qcd, 2), 0xFF5Cu);
  const std::size_t nbands_at = qcd + 6;
  const std::uint32_t nbands = get_be(bytes, nbands_at, 2);
  const std::size_t end = nbands_at + 2 + nbands * 11;
  const std::vector<std::uint8_t> record(
      bytes.begin() + static_cast<long>(end - 11),
      bytes.begin() + static_cast<long>(end));
  bytes.insert(bytes.begin() + static_cast<long>(end), record.begin(),
               record.end());
  put_be(bytes, nbands_at, 2, nbands + 1);
  put_be(bytes, qcd + 2, 2, get_be(bytes, qcd + 2, 2) + 11);
  adjust_psot(bytes, 11);
  EXPECT_NE(codestream_error_of(bytes).find("QCD band count"),
            std::string::npos);
}

TEST(DecodeErrors, TileHeaderSegmentPastEndOfStreamIsCodestreamError) {
  auto bytes = small_lossless_stream();
  const std::size_t qcd = first_sot(bytes) + 12;
  ASSERT_EQ(get_be(bytes, qcd, 2), 0xFF5Cu);
  ASSERT_LT(bytes.size(), 0xFFFFu);
  put_be(bytes, qcd + 2, 2, 0xFFFF);  // Lqcd: far past the stream's end
  EXPECT_NE(codestream_error_of(bytes).find("past end of stream"),
            std::string::npos);
}

/// Re-runs Tier-2 over a single-tile stream to recover every code block's
/// segment bytes.
jp2k::Tile parsed_tile(const std::vector<std::uint8_t>& bytes) {
  std::vector<jp2k::TilePart> parts;
  const jp2k::StreamHeader hdr = jp2k::parse_codestream(bytes, parts);
  jp2k::Tile tile;
  tile.width = hdr.width;
  tile.height = hdr.height;
  tile.levels = hdr.params.levels;
  tile.layers = hdr.params.layers;
  tile.progression = static_cast<int>(hdr.params.progression);
  for (std::size_t c = 0; c < hdr.components; ++c) {
    jp2k::TileComponent tc;
    const auto layout =
        jp2k::subband_layout(hdr.width, hdr.height, hdr.params.levels);
    for (std::size_t b = 0; b < layout.size(); ++b) {
      jp2k::Subband sb;
      sb.info = layout[b];
      sb.band_numbps = parts[0].band_meta[c][b].numbps;
      jp2k::make_block_grid(sb, hdr.params.cb_width, hdr.params.cb_height);
      tc.subbands.push_back(std::move(sb));
    }
    tile.components.push_back(std::move(tc));
  }
  jp2k::t2_decode(bytes.data() + parts[0].packet_offset, parts[0].packet_size,
                  tile);
  return tile;
}

/// The middle block (in tile order) among `comp`'s subbands from index
/// `first_band` on whose segment has at least 8 bytes, and the offset of
/// that segment in `bytes` (which must hold it exactly once).
std::size_t middle_segment(const std::vector<std::uint8_t>& bytes,
                           const jp2k::Tile& tile, std::size_t comp,
                           std::size_t first_band, std::size_t* len) {
  std::vector<const jp2k::CodeBlock*> candidates;
  const auto& bands = tile.components[comp].subbands;
  for (std::size_t b = first_band; b < bands.size(); ++b) {
    for (const auto& cb : bands[b].blocks) {
      if (cb.enc.data.size() >= 8) candidates.push_back(&cb);
    }
  }
  EXPECT_GE(candidates.size(), 3u);
  const auto& seg = candidates[candidates.size() / 2]->enc.data;
  std::size_t found = bytes.size();
  int matches = 0;
  for (auto it = bytes.begin();
       (it = std::search(it, bytes.end(), seg.begin(), seg.end())) !=
       bytes.end();
       ++it) {
    found = static_cast<std::size_t>(it - bytes.begin());
    ++matches;
  }
  EXPECT_EQ(matches, 1);
  *len = seg.size();
  return found;
}

TEST(DecodeErrors, BadHtScupInTheMiddleOfATileIsCodestreamError) {
  jp2k::CodingParams p;
  p.levels = 3;
  p.cb_width = 16;
  p.cb_height = 16;
  p.block_coder = jp2k::BlockCoder::kHt;
  auto bytes = jp2k::encode(synth::photographic(128, 96, 3, 43), p);
  const jp2k::Tile tile = parsed_tile(bytes);
  std::size_t len = 0;
  const std::size_t at = middle_segment(bytes, tile, 1, 0, &len);
  ASSERT_LT(at, bytes.size());
  // Scup is the segment's last 4 bytes; 1 is below the 4-byte minimum.
  put_be(bytes, at + len - 4, 4, 1);
  EXPECT_NE(codestream_error_of(bytes).find("Scup"), std::string::npos);
}

TEST(DecodeErrors, TruncatedEbcotSegmentInTheMiddleOfATileIsCodestreamError) {
  jp2k::CodingParams p;
  p.levels = 3;
  p.cb_width = 16;
  p.cb_height = 16;
  auto bytes = jp2k::encode(synth::photographic(128, 96, 3, 47), p);
  const jp2k::Tile tile = parsed_tile(bytes);
  // A block of the tile's last packet (finest resolution, last component),
  // so every packet header stays intact.  An MQ segment carries no length
  // of its own: the cut shows as a body shorter than its header announces.
  const std::size_t finest = tile.components[2].subbands.size() - 3;
  std::size_t len = 0;
  const std::size_t at = middle_segment(bytes, tile, 2, finest, &len);
  ASSERT_LT(at, bytes.size());
  const std::size_t cut = len / 2;
  bytes.erase(bytes.begin() + static_cast<long>(at + len - cut),
              bytes.begin() + static_cast<long>(at + len));
  adjust_psot(bytes, -static_cast<long>(cut));
  EXPECT_NE(codestream_error_of(bytes).find("truncated"), std::string::npos);
}

}  // namespace
}  // namespace cj2k
