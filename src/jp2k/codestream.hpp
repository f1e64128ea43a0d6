// Codestream framing: marker-delimited headers around the Tier-2 packet
// streams, modeled on the JPEG2000 Part-1 structure (SOC, SIZ, COD, then
// one SOT/QCD/SOD tile-part per tile, EOC).  The SIZ segment carries the
// nominal tile size (XTsiz/YTsiz); each tile-part's SOT carries the
// standard Isot/Psot/TPsot/TNsot fields and its own QCD with explicit
// per-band bit-plane counts and quantizer steps (see DESIGN.md — we do not
// claim bit-level interop with third-party decoders; the paper's claims
// don't depend on it, and carrying the values explicitly keeps the decoder
// free of guard-bit conventions).
#pragma once

#include <cstdint>
#include <vector>

#include "jp2k/dwt2d.hpp"
#include "jp2k/t1_common.hpp"
#include "jp2k/tile.hpp"

namespace cj2k::jp2k {

/// Packet progression order (which dimension varies slowest).
enum class Progression : std::uint8_t {
  kLRCP = 0,  ///< Layer -> Resolution -> Component (quality progressive).
  kRLCP = 1,  ///< Resolution -> Layer -> Component (resolution progressive).
};

/// Everything the encoder chose, carried in the main header.
struct CodingParams {
  WaveletKind wavelet = WaveletKind::kReversible53;
  int levels = 5;
  std::size_t cb_width = 64;
  std::size_t cb_height = 64;
  bool mct = true;            ///< RCT/ICT when the image has 3 components.
  double rate = 0.0;          ///< Target size as a fraction of raw bytes
                              ///< (Jasper's -O rate=...); 0 disables.
  double base_quant_step = 1.0 / 16.0;  ///< Lossy base step (image domain).
  T1Options t1;               ///< Code-block style flags (RESET / VSC).
  /// Run the lossy path in Jasper's Q13 fixed point instead of float —
  /// the representation the paper replaces on the Cell (§4).  Lossless
  /// (5/3) ignores this.
  bool fixed_point_97 = false;
  /// Quality layers: >1 produces a quality-progressive stream whose layer
  /// boundaries are R-D-optimized truncation points.
  int layers = 1;
  Progression progression = Progression::kLRCP;
  /// Tile grid (jp2k/tile_grid.hpp).  Not serialized in COD — the grid
  /// travels as the SIZ nominal tile size.  1x1 keeps the single-tile path.
  std::size_t tiles_x = 1;
  std::size_t tiles_y = 1;
  /// Block coder backend.  Not carried in COD: HT streams announce
  /// themselves with a CAP (capabilities, Part 15) marker after SIZ, so
  /// EBCOT codestreams are byte-identical to pre-HT ones.
  BlockCoder block_coder = BlockCoder::kEbcot;
};

/// True when the encoder must run PCRD rate control (convex-hull pruning +
/// the λ scan).  HT blocks have no truncation points, so any rate target is
/// folded into the quantizer instead (jp2k/ht_block.hpp) and the whole
/// lossy tail disappears — the serial-residue win of the HT backend.
inline bool uses_pcrd_rate_control(const CodingParams& p) {
  return (p.rate > 0.0 || p.layers > 1) &&
         p.block_coder == BlockCoder::kEbcot;
}

/// Parsed main header.
struct StreamHeader {
  std::size_t width = 0;
  std::size_t height = 0;
  std::size_t components = 0;
  unsigned bit_depth = 8;
  /// Nominal tile size from SIZ (== image size for a single-tile stream).
  std::size_t tile_w = 0;
  std::size_t tile_h = 0;
  CodingParams params;
  /// CAP marker contents, when present (HT streams only).  Pcap bit 17
  /// (0x00020000) announces Part-15 capabilities; Scap15 is the Ccap15
  /// style word.
  bool cap_present = false;
  std::uint32_t pcap = 0;
  std::uint16_t scap15 = 0;
  /// Per component, per subband (layout order): band_numbps and step.
  struct BandMeta {
    std::uint8_t orient;
    std::uint8_t level;
    std::int32_t numbps;
    double step;
  };
};

/// One tile-part: per-band metadata (the tile's QCD) plus its Tier-2
/// packet stream.  The writer consumes `band_meta` + `packets`; the parser
/// fills `band_meta` and the packet bounds (offsets into the parsed
/// buffer, which must outlive them).
struct TilePart {
  std::vector<std::vector<StreamHeader::BandMeta>> band_meta;
  std::vector<std::uint8_t> packets;  ///< Writer side.
  std::size_t packet_offset = 0;      ///< Parser side.
  std::size_t packet_size = 0;
};

/// Serializes main header + one tile-part per grid tile (in Isot order) +
/// EOC.  `tiles` must match the grid implied by hdr.tile_w/tile_h.
std::vector<std::uint8_t> write_codestream(const StreamHeader& hdr,
                                           const std::vector<TilePart>& tiles);

/// Parses the main header and every tile-part; `tiles` comes back indexed
/// by Isot with each part's band metadata and packet bounds.  Throws
/// CodestreamError on malformed input (bad marker, out-of-range or
/// duplicate Isot, unsupported TPsot/TNsot, Psot overruns, missing tiles).
StreamHeader parse_codestream(const std::vector<std::uint8_t>& bytes,
                              std::vector<TilePart>& tiles);

/// Exact framing bytes write_codestream adds around one tile-part's packet
/// body (SOT marker + segment, QCD, SOD) for a tile with `components`
/// components of `bands_per_component` subbands each.
std::size_t tile_part_overhead_bytes(std::size_t components,
                                     std::size_t bands_per_component);

}  // namespace cj2k::jp2k
