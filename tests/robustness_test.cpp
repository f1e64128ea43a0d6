// Robustness: corrupted codestreams must fail cleanly (throw cj2k::Error)
// or decode to *some* image — never crash, hang, or exhaust memory.  Also
// exercises the paper's §2 constant-Local-Store property as an executable
// invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cell/machine.hpp"
#include "cellenc/pipeline.hpp"
#include "cellenc/stage_dwt.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "image/metrics.hpp"
#include "image/synth.hpp"
#include "jp2k/decoder.hpp"
#include "jp2k/codestream.hpp"
#include "jp2k/dwt2d.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/quant.hpp"
#include "jp2k/t2_decoder.hpp"
#include "jp2k/tile.hpp"
#include "service/encode_service.hpp"

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

TEST(Fuzz, PacketStreamMutationsFailAsCodestreamError) {
  // Damage only the packet data (tile-part headers and bodies between SOD
  // and the next tile-part), so every mutation reaches Tier-2 and the block
  // decoders: each decode must either produce a full-size image or fail as
  // a CodestreamError -- never a bare cj2k::Error, an argument error or a
  // crash.
  struct Kind {
    const char* name;
    jp2k::CodingParams params;
  };
  std::vector<Kind> kinds(5);
  kinds[0].name = "5/3";
  kinds[1].name = "9/7, 3 layers";
  kinds[1].params.wavelet = jp2k::WaveletKind::kIrreversible97;
  kinds[1].params.layers = 3;
  kinds[1].params.rate = 0.5;
  kinds[2].name = "HT";
  kinds[2].params.block_coder = jp2k::BlockCoder::kHt;
  kinds[3].name = "5/3, 2x2 tiles";
  kinds[3].params.tiles_x = 2;
  kinds[3].params.tiles_y = 2;
  kinds[4].name = "9/7 Q13, 2 layers";
  kinds[4].params.wavelet = jp2k::WaveletKind::kIrreversible97;
  kinds[4].params.fixed_point_97 = true;
  kinds[4].params.layers = 2;
  kinds[4].params.rate = 0.5;
  constexpr std::size_t kW = 96, kH = 80;
  std::uint64_t seed = 0x7e2;
  for (Kind& k : kinds) {
    SCOPED_TRACE(k.name);
    k.params.levels = 3;
    const auto good =
        jp2k::encode(synth::photographic(kW, kH, 3, 61), k.params);
    std::vector<jp2k::TilePart> parts;
    (void)jp2k::parse_codestream(good, parts);
    ASSERT_FALSE(parts.empty());
    Rng rng(++seed);
    int decoded = 0, rejected = 0;
    for (int trial = 0; trial < 200; ++trial) {
      const auto& part = parts[rng.next_below(parts.size())];
      ASSERT_GT(part.packet_size, 0u);
      auto bad = good;
      // One mutation in four lands in the part's first 8 bytes, where its
      // first packet header sits; the rest anywhere in the packet data.
      const std::size_t reach = rng.next_below(4) == 0
                                    ? std::min<std::size_t>(8, part.packet_size)
                                    : part.packet_size;
      const std::size_t at = part.packet_offset + rng.next_below(reach);
      const std::size_t end = part.packet_offset + part.packet_size;
      switch (rng.next_below(4)) {
        case 0:  // one bit
          bad[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
          break;
        case 1:  // an 8-byte burst
          for (std::size_t i = at; i < std::min(at + 8, end); ++i) {
            bad[i] = static_cast<std::uint8_t>(rng.next_below(256));
          }
          break;
        case 2:
          bad[at] = 0x00;
          break;
        default:
          bad[at] = 0xFF;
          break;
      }
      try {
        const Image out = jp2k::decode(bad);
        EXPECT_EQ(out.width(), kW);
        EXPECT_EQ(out.height(), kH);
        ++decoded;
      } catch (const CodestreamError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "trial " << trial << " at byte " << at
                      << ": not a CodestreamError: " << e.what();
      }
    }
    EXPECT_GT(decoded, 0);
    EXPECT_GT(rejected, 0);
  }
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

// --- QCD magnitude fields ----------------------------------------------------
// A band's QCD record carries Mb (guard bits + exponent - 1, the bound on
// its decoded magnitudes) and its quantizer step.  Raising either lets
// Tier-1 produce coefficients, or Q13 dequantization values, that the
// integer inverse transforms cannot carry; the decoder must reject such a
// tile with a CodestreamError before any arithmetic overflows (the ASan/
// UBSan leg aborts on signed overflow).  Lowering them must still decode.

/// Offsets of every QCD band record (11 bytes: orient, level, Mb, step)
/// of a single-tile stream.
std::vector<std::size_t> qcd_records(const std::vector<std::uint8_t>& b) {
  const std::size_t qcd = first_sot(b) + 12;
  EXPECT_EQ(get_be(b, qcd, 2), 0xFF5Cu);
  std::vector<std::size_t> out;
  std::size_t pos = qcd + 6;  // marker, Lqcd, component count
  for (std::uint32_t c = get_be(b, qcd + 4, 2); c > 0; --c) {
    const std::uint32_t nbands = get_be(b, pos, 2);
    for (std::uint32_t k = 0; k < nbands; ++k) out.push_back(pos + 2 + k * 11);
    pos += 2 + nbands * 11;
  }
  return out;
}

/// Applies mutation `kind` to the record at `at`: Mb set to a value around
/// or far beyond its own, or the step's binary exponent moved.
void mutate_qcd(std::vector<std::uint8_t>& b, std::size_t at, int kind) {
  static constexpr int kMb[] = {0, 1, 16, 20, 24, 26, 28, 30, 31, 32, 38};
  static constexpr int kExp[] = {-60, -8, -1, 1, 4, 8, 16, 30, 60, 1023};
  constexpr int kMbCount = static_cast<int>(std::size(kMb));
  if (kind < kMbCount) {
    b[at + 2] = static_cast<std::uint8_t>(kMb[kind]);
  } else if (kind < kMbCount + 2) {
    const int delta = kind == kMbCount ? 1 : -1;
    b[at + 2] = static_cast<std::uint8_t>(b[at + 2] + delta);
  } else {
    // Step: IEEE-754 double, big-endian; exponent in bits 62..52.
    const std::uint32_t hi = get_be(b, at + 3, 4);
    const int e = static_cast<int>((hi >> 20) & 0x7FF) +
                  kExp[kind - kMbCount - 2];
    const std::uint32_t field =
        static_cast<std::uint32_t>(std::clamp(e, 0, 0x7FF));
    put_be(b, at + 3, 4, (hi & ~(0x7FFu << 20)) | (field << 20));
  }
}

TEST(QcdFuzz, MagnitudeAndStepMutationsDecodeOrThrowCodestreamError) {
  struct Kind {
    const char* name;
    jp2k::CodingParams params;
  };
  std::vector<Kind> kinds(3);
  kinds[0].name = "5/3";
  kinds[1].name = "9/7 float, 3 layers";
  kinds[1].params.wavelet = jp2k::WaveletKind::kIrreversible97;
  kinds[1].params.layers = 3;
  kinds[1].params.rate = 0.5;
  kinds[2].name = "9/7 Q13, 2 layers";
  kinds[2].params.wavelet = jp2k::WaveletKind::kIrreversible97;
  kinds[2].params.fixed_point_97 = true;
  kinds[2].params.layers = 2;
  kinds[2].params.rate = 0.5;
  constexpr int kMutations = 23;  // 11 Mb values, Mb +-1, 10 step exponents
  for (Kind& k : kinds) {
    SCOPED_TRACE(k.name);
    k.params.levels = 3;
    const auto good =
        jp2k::encode(synth::photographic(40, 36, 3, 53), k.params);
    const auto records = qcd_records(good);
    ASSERT_EQ(records.size(), 3u * 10u);
    Rng rng(0x9cd + records.size());
    int decoded = 0, rejected = 0, overflow = 0;
    // Every mutation on one band of each orientation, then random draws.
    std::vector<std::pair<std::size_t, int>> cases;
    for (std::size_t r : {0, 1, 2, 3, 27}) {
      for (int m = 0; m < kMutations; ++m) cases.emplace_back(records[r], m);
    }
    for (int t = 0; t < 120; ++t) {
      cases.emplace_back(records[rng.next_below(records.size())],
                         static_cast<int>(rng.next_below(kMutations)));
    }
    for (const auto& [at, m] : cases) {
      auto bad = good;
      mutate_qcd(bad, at, m);
      try {
        (void)jp2k::decode(bad);
        ++decoded;
      } catch (const CodestreamError& e) {
        ++rejected;
        if (std::string(e.what()).find("overflow") != std::string::npos) {
          ++overflow;
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "record at " << at << ", mutation " << m
                      << ": not a CodestreamError: " << e.what();
      }
    }
    EXPECT_GT(decoded, 0);
    EXPECT_GT(rejected, 0);
    // The overflow gate guards the two integer inverse transforms.
    if (!k.params.fixed_point_97 &&
        k.params.wavelet == jp2k::WaveletKind::kIrreversible97) {
      EXPECT_EQ(overflow, 0);
    } else {
      EXPECT_GT(overflow, 0);
    }
  }
}

// --- The gate against the encoder ------------------------------------------
// Whatever the encoder emits must pass the decoder's overflow gate.  The
// fixed-point 9/7 is the tight case: validate admits it for samples of at
// most 8 bits, so every QCD an 8-bit Q13 encode can produce must fit.

TEST(QcdGate, FixedPointNeedsSamplesOfAtMostEightBits) {
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.fixed_point_97 = true;
  EXPECT_NO_THROW(jp2k::validate(Image(16, 16, 3, 8), p));
  EXPECT_THROW(jp2k::validate(Image(16, 16, 3, 9), p), InvalidArgument);
  EXPECT_THROW(jp2k::validate(Image(16, 16, 1, 16), p), InvalidArgument);
  // The float 9/7 and the 5/3 take any depth.
  p.fixed_point_97 = false;
  EXPECT_NO_THROW(jp2k::validate(Image(16, 16, 3, 16), p));
  p.wavelet = jp2k::WaveletKind::kReversible53;
  EXPECT_NO_THROW(jp2k::validate(Image(16, 16, 3, 16), p));
}

/// validate, jp2k::encode, CellEncoder::encode and EncodeService all refuse
/// `p` on `img` with InvalidArgument.
void expect_refused_up_front(const std::shared_ptr<const Image>& img,
                             const jp2k::CodingParams& p) {
  EXPECT_THROW(jp2k::validate(*img, p), InvalidArgument);
  EXPECT_THROW(jp2k::encode(*img, p), InvalidArgument);
  cell::MachineConfig mc;
  mc.num_spes = 8;
  cellenc::CellEncoder enc(mc);
  EXPECT_THROW(enc.encode(*img, p), InvalidArgument);
  service::ServiceOptions sopt;
  sopt.machine.num_spes = 8;
  service::EncodeService svc(sopt);
  service::EncodeJob job;
  job.image = img;
  job.params = p;
  svc.submit(std::move(job));
  EXPECT_THROW(svc.run(), InvalidArgument);
}

TEST(QcdGate, OverLargeFixedPointStepIsRefusedUpFront) {
  // At base step 65536 every band's dequantized range overflows the Q13
  // inverse whatever the content, so validate refuses the parameters before
  // any stage runs, in every encode entry point, tiled or not.
  const auto img =
      std::make_shared<const Image>(synth::photographic(96, 80, 3, 5));
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.fixed_point_97 = true;
  p.levels = 3;
  p.base_quant_step = 65536;
  for (const std::size_t tiles : {1u, 2u}) {
    SCOPED_TRACE(testing::Message() << tiles << "x" << tiles << " tiles");
    p.tiles_x = p.tiles_y = tiles;
    expect_refused_up_front(img, p);
  }
  // The same encode at a workable step goes through.
  p.base_quant_step = 1.0 / 16;
  EXPECT_NO_THROW(jp2k::encode(*img, p));
}

TEST(QcdGate, BadAndTinyStepsAreRefusedUpFront) {
  // A base step that is not a positive finite number is refused on every
  // path.  On the float 9/7 paths (EBCOT and HT) a step so small that some
  // quantization index could reach 2^31, past the 31 magnitude bit planes
  // either block coder codes, is refused too: at 1e-9 such an encode used
  // to run for minutes on out-of-range float-to-int conversions.
  const auto img =
      std::make_shared<const Image>(synth::photographic(96, 80, 3, 5));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Path {
    const char* name;
    jp2k::WaveletKind wavelet;
    bool q13;
    jp2k::BlockCoder coder;
  };
  constexpr Path kPaths[] = {
      {"float 9/7", jp2k::WaveletKind::kIrreversible97, false,
       jp2k::BlockCoder::kEbcot},
      {"HT 9/7", jp2k::WaveletKind::kIrreversible97, false,
       jp2k::BlockCoder::kHt},
      {"Q13 9/7", jp2k::WaveletKind::kIrreversible97, true,
       jp2k::BlockCoder::kEbcot},
      {"5/3", jp2k::WaveletKind::kReversible53, false,
       jp2k::BlockCoder::kEbcot},
  };
  for (const Path& path : kPaths) {
    jp2k::CodingParams p;
    p.wavelet = path.wavelet;
    p.fixed_point_97 = path.q13;
    p.block_coder = path.coder;
    p.levels = 3;
    const bool lossy = path.wavelet == jp2k::WaveletKind::kIrreversible97;
    for (const double step : {0.0, -1.0, std::nan(""), kInf, -kInf, 1e-9}) {
      if (step == 1e-9 && !lossy) continue;  // 5/3 does not quantize
      SCOPED_TRACE(testing::Message() << path.name << ", step " << step);
      p.base_quant_step = step;
      expect_refused_up_front(img, p);
    }
    // Small but admitted steps still encode.
    p.base_quant_step = 1e-5;
    EXPECT_NO_THROW(jp2k::encode(*img, p)) << path.name;
  }
}

/// For an l-level 1-D 9/7 analysis, l = 1..levels: the largest sum of
/// |weight| over the input of one coefficient of the level-l low band
/// (lo[l]) and of the level-l high band (hi[l]).  lo[0] = 1.
struct AnalysisNorms {
  std::vector<double> lo, hi;
};

AnalysisNorms analysis_norms(int levels) {
  constexpr std::size_t n = 512;
  AnalysisNorms a{{1.0}, {0.0}};
  for (int l = 1; l <= levels; ++l) {
    std::vector<double> row_sum(n, 0.0);  // per coefficient
    for (std::size_t x = 0; x < n; ++x) {
      std::vector<float> v(n, 0.0f);
      v[x] = 1.0f;
      jp2k::forward97({Span2d<float>(v.data(), n, 1, n)}, l);
      for (std::size_t k = 0; k < n; ++k) row_sum[k] += std::fabs(v[k]);
    }
    const std::size_t nl = n >> l, nh = n >> (l - 1);
    a.lo.push_back(*std::max_element(row_sum.begin(), row_sum.begin() + nl));
    a.hi.push_back(
        *std::max_element(row_sum.begin() + nl, row_sum.begin() + nh));
  }
  return a;
}

TEST(QcdGate, EveryQcdAnEightBitFixedPointEncodeCanEmitFits) {
  constexpr int kMaxLevels = 7;  // the lossy paths encode up to 7 levels
  const AnalysisNorms norms = analysis_norms(kMaxLevels);
  for (int levels = 0; levels <= kMaxLevels; ++levels) {
    for (const double base : {1.0 / 1024, 1.0 / 16, 1.0, 16.0, 256.0}) {
      for (const auto& [w, h] :
           {std::pair<std::size_t, std::size_t>{1586, 1558}, {96, 80}}) {
        SCOPED_TRACE(testing::Message() << levels << " levels, base step "
                                        << base << ", " << w << "x" << h);
        jp2k::CodingParams p;
        p.wavelet = jp2k::WaveletKind::kIrreversible97;
        p.fixed_point_97 = true;
        p.levels = levels;
        p.base_quant_step = base;
        jp2k::TileComponent tc = jp2k::make_component_skeleton(w, h, p);
        for (jp2k::Subband& sb : tc.subbands) {
          // Level-shifted 8-bit samples and their ICT stay within 2^7; in
          // Q13 that is 2^20.  The 1% and the half sample of slack cover
          // the Q13 constants and the forward transform's rounding.
          const int l = sb.info.level;
          const bool hx = sb.info.orient == jp2k::SubbandOrient::HL ||
                          sb.info.orient == jp2k::SubbandOrient::HH;
          const bool hy = sb.info.orient == jp2k::SubbandOrient::LH ||
                          sb.info.orient == jp2k::SubbandOrient::HH;
          const double coef =
              (hx ? norms.hi[l] : norms.lo[l]) *
                  (hy ? norms.hi[l] : norms.lo[l]) * 0x1p20 * 1.01 +
              0x1p12;
          const auto q =
              static_cast<std::uint64_t>(coef / (sb.quant_step * 0x1p13));
          sb.band_numbps = static_cast<int>(std::bit_width(q));
        }
        EXPECT_TRUE(jp2k::inverse_fits(tc, p.wavelet, w, h, levels));
      }
    }
  }
}

/// Extreme content: every sample at 0 or the top of its range, at random
/// (kind 0), in a one-pixel checkerboard whose phase differs per component
/// (1), or in columns (2); or uniform noise (3).
Image extreme(std::size_t w, std::size_t h, std::size_t comps,
              unsigned depth, int kind, std::uint64_t seed) {
  Image img(w, h, comps, depth);
  Rng rng(seed);
  const Sample top = (Sample{1} << depth) - 1;
  for (std::size_t c = 0; c < comps; ++c) {
    for (std::size_t y = 0; y < h; ++y) {
      Sample* row = img.plane(c).row(y);
      for (std::size_t x = 0; x < w; ++x) {
        const bool on = kind == 0   ? rng.next_below(2) == 1
                        : kind == 1 ? (x + y + c) % 2 == 1
                                    : (x + c) % 2 == 1;
        row[x] = kind == 3 ? static_cast<Sample>(rng.next_below(
                                 static_cast<std::uint64_t>(top) + 1))
                           : (on ? top : 0);
      }
    }
  }
  return img;
}

TEST(QcdGate, ExtremeContentRoundTripsAtEveryLevelCount) {
  for (int kind = 0; kind < 4; ++kind) {
    for (const std::size_t comps : {1u, 3u}) {
      for (int levels = 0; levels <= 7; ++levels) {
        SCOPED_TRACE(testing::Message() << "content " << kind << ", "
                                        << comps << " components, "
                                        << levels << " levels");
        jp2k::CodingParams q13;
        q13.wavelet = jp2k::WaveletKind::kIrreversible97;
        q13.fixed_point_97 = true;
        q13.levels = levels;
        const Image img8 = extreme(96, 80, comps, 8, kind, 7 + kind);
        const Image back = jp2k::decode(jp2k::encode(img8, q13));
        EXPECT_GT(metrics::psnr(img8, back), 40.0);

        jp2k::CodingParams rev;
        rev.levels = levels;
        const Image img16 = extreme(96, 80, comps, 16, kind, 7 + kind);
        EXPECT_TRUE(metrics::identical(
            img16, jp2k::decode(jp2k::encode(img16, rev))));
      }
    }
  }
}

TEST(QcdGate, InversePeakBoundsSignAlignedCoefficients) {
  // Coefficients at their bands' bounds, signed to push one output sample
  // as far as it goes: the bound must cover that sample.
  struct Case {
    std::size_t w, h;
    int levels;
  };
  Rng rng(0x9ea4);
  for (const auto kind : {jp2k::WaveletKind::kReversible53,
                          jp2k::WaveletKind::kIrreversible97}) {
    const auto inverse = [&](std::vector<Sample>& v, std::size_t w,
                             std::size_t h, int levels) {
      const std::vector<Span2d<Sample>> planes{
          Span2d<Sample>(v.data(), w, h, w)};
      if (kind == jp2k::WaveletKind::kReversible53) {
        jp2k::inverse53(planes, levels);
      } else {
        jp2k::inverse97_fixed(planes, levels);
      }
    };
    for (const Case c : {Case{40, 24, 3}, Case{33, 17, 4}, Case{1, 40, 4},
                         Case{37, 3, 4}}) {
      SCOPED_TRACE(testing::Message() << c.w << "x" << c.h << ", "
                                      << c.levels << " levels");
      const auto bands = jp2k::subband_layout(c.w, c.h, c.levels);
      std::vector<double> peaks;
      std::vector<Sample> bound_at(c.w * c.h);
      for (const auto& b : bands) {
        peaks.push_back(
            std::ldexp(1.0, 14 + static_cast<int>(rng.next_below(4))));
        for (std::size_t y = 0; y < b.h; ++y) {
          for (std::size_t x = 0; x < b.w; ++x) {
            bound_at[(b.y0 + y) * c.w + b.x0 + x] =
                static_cast<Sample>(peaks.back());
          }
        }
      }
      // Each coefficient's weights, from the transform of an impulse.
      const std::size_t n = c.w * c.h;
      std::vector<std::vector<Sample>> weight(n);
      for (std::size_t k = 0; k < n; ++k) {
        weight[k].assign(n, 0);
        weight[k][k] = 1 << 20;
        inverse(weight[k], c.w, c.h, c.levels);
      }
      std::size_t target = 0;
      double reach = 0;
      for (std::size_t i = 0; i < n; ++i) {
        double sum = 0;
        for (std::size_t k = 0; k < n; ++k) {
          sum += std::fabs(static_cast<double>(weight[k][i])) * bound_at[k];
        }
        if (sum > reach) {
          reach = sum;
          target = i;
        }
      }
      std::vector<Sample> coef(n);
      for (std::size_t k = 0; k < n; ++k) {
        coef[k] = weight[k][target] < 0 ? -bound_at[k] : bound_at[k];
      }
      inverse(coef, c.w, c.h, c.levels);
      EXPECT_LE(std::abs(coef[target]),
                jp2k::inverse_peak(kind, c.w, c.h, c.levels, peaks));
      // The sign alignment worked: the sample is near its linear reach.
      EXPECT_GT(std::abs(coef[target]), 0.99 * reach / (1 << 20));
    }
  }
}

}  // namespace
}  // namespace cj2k
