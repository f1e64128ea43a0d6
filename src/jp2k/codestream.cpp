#include "jp2k/codestream.hpp"

#include <cstring>

#include "common/error.hpp"
#include "jp2k/tile_grid.hpp"

namespace cj2k::jp2k {

namespace {

constexpr std::uint16_t kSoc = 0xFF4F;
constexpr std::uint16_t kCap = 0xFF50;
constexpr std::uint16_t kSiz = 0xFF51;
constexpr std::uint16_t kCod = 0xFF52;
constexpr std::uint16_t kQcd = 0xFF5C;
constexpr std::uint16_t kSot = 0xFF90;
constexpr std::uint16_t kSod = 0xFF93;
constexpr std::uint16_t kEoc = 0xFFD9;

/// QCD body bytes per band: orient u8 + level u8 + numbps u8 + step f64.
constexpr std::size_t kQcdBandBytes = 11;

/// Pcap bit announcing Part-15 (HT) capabilities: bit 15 counted from the
/// MSB as bit 1, i.e. 1 << (32 - 15).
constexpr std::uint32_t kPcapPart15 = 0x00020000u;

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u32(static_cast<std::uint32_t>(bits >> 32));
    u32(static_cast<std::uint32_t>(bits));
  }
  void raw(const std::uint8_t* p, std::size_t n) {
    out_.insert(out_.end(), p, p + n);
  }
  std::vector<std::uint8_t> take() { return std::move(out_); }
  std::size_t size() const { return out_.size(); }

 private:
  std::vector<std::uint8_t> out_;
};

class ByteReader {
 public:
  ByteReader(const std::uint8_t* p, std::size_t n) : p_(p), n_(n) {}

  std::uint8_t u8() {
    need(1);
    return p_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    const std::uint16_t v =
        static_cast<std::uint16_t>((p_[pos_] << 8) | p_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    const std::uint32_t hi = u16();
    return (hi << 16) | u16();
  }
  double f64() {
    const std::uint64_t hi = u32();
    const std::uint64_t bits = (hi << 32) | u32();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::size_t pos() const { return pos_; }
  /// Seeks are to ends of segments whose lengths come from the stream.
  void seek(std::size_t p) {
    if (p > n_) throw CodestreamError("marker segment runs past end of stream");
    pos_ = p;
  }

 private:
  void need(std::size_t k) const {
    if (pos_ + k > n_) throw CodestreamError("truncated codestream");
  }
  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

/// Serializes one tile's QCD body (explicit per-band metadata).
std::vector<std::uint8_t> qcd_body(
    const std::vector<std::vector<StreamHeader::BandMeta>>& band_meta) {
  ByteWriter q;
  q.u16(static_cast<std::uint16_t>(band_meta.size()));
  for (const auto& comp : band_meta) {
    q.u16(static_cast<std::uint16_t>(comp.size()));
    for (const auto& bm : comp) {
      q.u8(bm.orient);
      q.u8(bm.level);
      q.u8(static_cast<std::uint8_t>(bm.numbps));
      q.f64(bm.step);
    }
  }
  return q.take();
}

/// Parses one tile's QCD body into `band_meta`, validating plausibility.
void parse_qcd_body(ByteReader& r,
                    std::vector<std::vector<StreamHeader::BandMeta>>& out) {
  const std::size_t ncomp = r.u16();
  out.resize(ncomp);
  for (auto& comp : out) {
    const std::size_t nbands = r.u16();
    comp.resize(nbands);
    for (auto& bm : comp) {
      bm.orient = r.u8();
      bm.level = r.u8();
      bm.numbps = r.u8();
      bm.step = r.f64();
      if (bm.orient > 3 || bm.numbps > 38 || !(bm.step > 0)) {
        throw CodestreamError("implausible QCD band metadata");
      }
    }
  }
}

}  // namespace

std::size_t tile_part_overhead_bytes(std::size_t components,
                                     std::size_t bands_per_component) {
  // SOT marker (2) + segment (10), QCD marker+length (4) + body
  // (2 + per-component 2 + band records), SOD marker (2).
  return 12 + 4 + 2 + components * (2 + bands_per_component * kQcdBandBytes) +
         2;
}

std::vector<std::uint8_t> write_codestream(
    const StreamHeader& hdr, const std::vector<TilePart>& tiles) {
  CJ2K_CHECK_MSG(!tiles.empty(), "codestream needs at least one tile");
  CJ2K_CHECK_MSG(tiles.size() <= 65535, "tile count exceeds Isot range");

  ByteWriter w;
  w.u16(kSoc);

  // SIZ — image geometry plus the nominal tile size (XTsiz/YTsiz).
  w.u16(kSiz);
  w.u16(2 + 4 + 4 + 2 + 1 + 4 + 4);  // segment length excluding the marker
  w.u32(static_cast<std::uint32_t>(hdr.width));
  w.u32(static_cast<std::uint32_t>(hdr.height));
  w.u16(static_cast<std::uint16_t>(hdr.components));
  w.u8(static_cast<std::uint8_t>(hdr.bit_depth));
  w.u32(static_cast<std::uint32_t>(hdr.tile_w));
  w.u32(static_cast<std::uint32_t>(hdr.tile_h));

  // CAP — emitted only for HT streams, so EBCOT codestreams stay
  // byte-identical to pre-HT ones.
  if (hdr.params.block_coder == BlockCoder::kHt) {
    w.u16(kCap);
    w.u16(2 + 4 + 2);       // Lcap
    w.u32(kPcapPart15);     // Pcap: Part-15 capabilities present
    w.u16(0);               // Ccap15: default HT style
  }

  // COD.
  w.u16(kCod);
  w.u16(2 + 1 + 1 + 2 + 2 + 1 + 1 + 1 + 1 + 8);
  w.u8(static_cast<std::uint8_t>(hdr.params.wavelet));
  w.u8(static_cast<std::uint8_t>(hdr.params.levels));
  w.u16(static_cast<std::uint16_t>(hdr.params.cb_width));
  w.u16(static_cast<std::uint16_t>(hdr.params.cb_height));
  w.u8(hdr.params.mct ? 1 : 0);
  // Style flags: bit 0 = RESET contexts, bit 1 = VSC, bit 2 = fixed-point
  // 9/7 arithmetic.
  w.u8(static_cast<std::uint8_t>((hdr.params.t1.reset_contexts ? 1 : 0) |
                                 (hdr.params.t1.vertically_causal ? 2 : 0) |
                                 (hdr.params.fixed_point_97 ? 4 : 0)));
  w.u8(static_cast<std::uint8_t>(hdr.params.layers));
  w.u8(static_cast<std::uint8_t>(hdr.params.progression));
  w.f64(hdr.params.base_quant_step);

  // One tile-part per tile, in Isot order.  Psot spans from the SOT marker
  // through the end of the packet stream (the standard's framing).
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    const TilePart& t = tiles[i];
    const auto qbody = qcd_body(t.band_meta);
    const std::size_t psot = 12 + 4 + qbody.size() + 2 + t.packets.size();

    w.u16(kSot);
    w.u16(2 + 2 + 4 + 1 + 1);  // Lsot = 10
    w.u16(static_cast<std::uint16_t>(i));               // Isot
    w.u32(static_cast<std::uint32_t>(psot));            // Psot
    w.u8(0);                                            // TPsot
    w.u8(1);                                            // TNsot

    w.u16(kQcd);
    w.u16(static_cast<std::uint16_t>(2 + qbody.size()));
    w.raw(qbody.data(), qbody.size());

    w.u16(kSod);
    w.raw(t.packets.data(), t.packets.size());
  }

  w.u16(kEoc);
  return w.take();
}

StreamHeader parse_codestream(const std::vector<std::uint8_t>& bytes,
                              std::vector<TilePart>& tiles) {
  ByteReader r(bytes.data(), bytes.size());
  StreamHeader hdr;

  if (r.u16() != kSoc) throw CodestreamError("missing SOC marker");

  // --- Main header: SIZ + COD, terminated by the first SOT. ---------------
  bool saw_siz = false, saw_cod = false;
  std::uint16_t marker;
  for (;;) {
    marker = r.u16();
    if (marker == kSot) break;
    if (marker == kEoc) throw CodestreamError("codestream has no tile-parts");
    const std::uint16_t len = r.u16();
    if (len < 2) throw CodestreamError("bad marker segment length");
    const std::size_t seg_end = r.pos() + (len - 2);
    switch (marker) {
      case kSiz: {
        hdr.width = r.u32();
        hdr.height = r.u32();
        hdr.components = r.u16();
        hdr.bit_depth = r.u8();
        hdr.tile_w = r.u32();
        hdr.tile_h = r.u32();
        if (hdr.width == 0 || hdr.height == 0 || hdr.components == 0 ||
            hdr.components > 16384 || hdr.bit_depth < 1 ||
            hdr.bit_depth > 16) {
          throw CodestreamError("implausible SIZ geometry");
        }
        if (hdr.tile_w == 0 || hdr.tile_h == 0 || hdr.tile_w > hdr.width ||
            hdr.tile_h > hdr.height) {
          throw CodestreamError("implausible SIZ tile size");
        }
        // Divide rather than multiply so the check itself cannot overflow.
        const std::size_t cols = ceil_div(hdr.width, hdr.tile_w);
        const std::size_t rows = ceil_div(hdr.height, hdr.tile_h);
        if (cols > TileGrid::kMaxTiles / rows) {
          throw CodestreamError("SIZ tile grid exceeds 65535 tiles");
        }
        saw_siz = true;
        break;
      }
      case kCod: {
        const std::uint8_t wk = r.u8();
        if (wk > 1) throw CodestreamError("unknown wavelet kind in COD");
        hdr.params.wavelet = static_cast<WaveletKind>(wk);
        hdr.params.levels = r.u8();
        hdr.params.cb_width = r.u16();
        hdr.params.cb_height = r.u16();
        hdr.params.mct = r.u8() != 0;
        const std::uint8_t cb_style = r.u8();
        if (cb_style > 7) throw CodestreamError("unknown code-block style");
        hdr.params.t1.reset_contexts = (cb_style & 1) != 0;
        hdr.params.t1.vertically_causal = (cb_style & 2) != 0;
        hdr.params.fixed_point_97 = (cb_style & 4) != 0;
        hdr.params.layers = r.u8();
        if (hdr.params.layers < 1 || hdr.params.layers > 64) {
          throw CodestreamError("implausible layer count");
        }
        const std::uint8_t prog = r.u8();
        if (prog > 1) throw CodestreamError("unknown progression order");
        hdr.params.progression = static_cast<Progression>(prog);
        hdr.params.base_quant_step = r.f64();
        if (hdr.params.levels > 32 || hdr.params.cb_width == 0 ||
            hdr.params.cb_height == 0 || hdr.params.cb_width > 1024 ||
            hdr.params.cb_height > 1024) {
          throw CodestreamError("implausible COD parameters");
        }
        saw_cod = true;
        break;
      }
      case kCap: {
        hdr.cap_present = true;
        hdr.pcap = r.u32();
        hdr.scap15 = r.u16();
        if (hdr.pcap & kPcapPart15) hdr.params.block_coder = BlockCoder::kHt;
        break;
      }
      default:
        throw CodestreamError("unknown marker in main header");
    }
    r.seek(seg_end);
  }
  if (!saw_siz || !saw_cod) {
    throw CodestreamError("main header missing SIZ/COD");
  }

  // The grid both sides agree on, from the SIZ nominal tile size.
  const TileGrid grid =
      TileGrid::from_tile_size(hdr.width, hdr.height, hdr.tile_w, hdr.tile_h);
  const std::size_t ntiles = grid.num_tiles();
  tiles.assign(ntiles, {});
  std::vector<bool> seen(ntiles, false);

  // --- Tile-parts: SOT / tile header / SOD / packets, Isot-indexed. -------
  while (marker == kSot) {
    const std::size_t sot_start = r.pos() - 2;
    if (r.u16() != 10) throw CodestreamError("bad SOT length");
    const std::size_t isot = r.u16();
    const std::size_t psot = r.u32();
    const unsigned tpsot = r.u8();
    const unsigned tnsot = r.u8();
    if (isot >= ntiles) {
      throw CodestreamError("SOT tile index out of range (Isot=" +
                            std::to_string(isot) + " of " +
                            std::to_string(ntiles) + " tiles)");
    }
    if (seen[isot]) {
      throw CodestreamError("duplicate tile-part for tile " +
                            std::to_string(isot));
    }
    if (tpsot != 0 || tnsot != 1) {
      throw CodestreamError(
          "unsupported tile-part structure (TPsot/TNsot) for tile " +
          std::to_string(isot));
    }
    seen[isot] = true;
    TilePart& part = tiles[isot];

    bool saw_qcd = false;
    std::uint16_t tmarker;
    for (;;) {
      tmarker = r.u16();
      if (tmarker == kSod) break;
      const std::uint16_t len = r.u16();
      if (len < 2) throw CodestreamError("bad marker segment length");
      const std::size_t seg_end = r.pos() + (len - 2);
      if (tmarker == kQcd) {
        parse_qcd_body(r, part.band_meta);
        if (part.band_meta.size() != hdr.components) {
          throw CodestreamError("QCD component count mismatch");
        }
        saw_qcd = true;
      } else {
        throw CodestreamError("unknown marker in tile header");
      }
      r.seek(seg_end);
    }
    if (!saw_qcd) throw CodestreamError("tile header missing QCD");

    part.packet_offset = r.pos();
    const std::size_t consumed = r.pos() - sot_start;
    if (psot < consumed) throw CodestreamError("implausible Psot");
    // Room for the packets plus the next marker (another SOT or EOC).
    if (sot_start + psot + 2 > bytes.size()) {
      throw CodestreamError("tile data runs past end of stream");
    }
    part.packet_size = psot - consumed;
    r.seek(sot_start + psot);
    marker = r.u16();
  }
  if (marker != kEoc) {
    throw CodestreamError("unknown marker between tile-parts");
  }
  for (std::size_t t = 0; t < ntiles; ++t) {
    if (!seen[t]) {
      throw CodestreamError("codestream missing tile-part for tile " +
                            std::to_string(t));
    }
  }
  return hdr;
}

}  // namespace cj2k::jp2k
