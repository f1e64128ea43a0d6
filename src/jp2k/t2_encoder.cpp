#include "jp2k/t2_encoder.hpp"

#include <bit>
#include <map>
#include <memory>

#include "common/error.hpp"
#include "decomp/host_pool.hpp"
#include "jp2k/tagtree.hpp"

namespace cj2k::jp2k {

namespace {

int floor_log2(std::uint32_t v) {
  CJ2K_DCHECK(v >= 1);
  return 31 - std::countl_zero(v);
}

/// Number-of-passes code (Table B.4).
void put_npasses(BitWriter& bw, int n) {
  CJ2K_DCHECK(n >= 1 && n <= 164);
  if (n == 1) {
    bw.put_bit(0);
  } else if (n == 2) {
    bw.put_bits(0b10, 2);
  } else if (n <= 5) {
    bw.put_bits(0b11, 2);
    bw.put_bits(static_cast<std::uint32_t>(n - 3), 2);
  } else if (n <= 36) {
    bw.put_bits(0b1111, 4);
    bw.put_bits(static_cast<std::uint32_t>(n - 6), 5);
  } else {
    bw.put_bits(0b111111111, 9);
    bw.put_bits(static_cast<std::uint32_t>(n - 37), 7);
  }
}

/// Collects the subbands that belong to resolution r (0 = LL only).
std::vector<const Subband*> bands_of_resolution(const TileComponent& tc,
                                                int levels, int r) {
  std::vector<const Subband*> out;
  for (const auto& sb : tc.subbands) {
    if (r == 0) {
      if (sb.info.orient == SubbandOrient::LL) out.push_back(&sb);
    } else {
      if (sb.info.orient != SubbandOrient::LL &&
          sb.info.level == levels - r + 1) {
        out.push_back(&sb);
      }
    }
  }
  return out;
}

/// Per-code-block state that persists across quality layers.
struct BlockState {
  bool included_before = false;
  int lblock = 3;
  int passes_so_far = 0;
};

/// Per-subband persistent coding state.
struct BandState {
  explicit BandState(const Subband& sb)
      : incl(sb.grid_w, sb.grid_h),
        imsb(sb.grid_w, sb.grid_h),
        blocks(sb.blocks.size()) {}
  TagTree incl;
  TagTree imsb;
  std::vector<BlockState> blocks;
};

/// All persistent state for one tile's packet stream.
struct T2State {
  /// Keyed by subband address.
  std::map<const Subband*, std::unique_ptr<BandState>> bands;

  BandState& of(const Subband& sb, int layers) {
    auto it = bands.find(&sb);
    if (it != bands.end()) return *it->second;
    auto st = std::make_unique<BandState>(sb);
    // Inclusion leaf value = first layer the block contributes to
    // (`layers` when it never does); imsb = zero bit planes.
    for (const auto& cb : sb.blocks) {
      int first = layers;
      for (int l = 0; l < layers; ++l) {
        if (cb.passes_at_layer(l, layers) > 0) {
          first = l;
          break;
        }
      }
      st->incl.set_value(cb.gx, cb.gy, first);
      st->imsb.set_value(cb.gx, cb.gy,
                         first < layers
                             ? sb.band_numbps - cb.enc.num_bitplanes
                             : 0);
    }
    st->incl.finalize();
    st->imsb.finalize();
    auto& ref = *st;
    bands.emplace(&sb, std::move(st));
    return ref;
  }
};

void encode_packet(BitWriter& bw, std::vector<std::uint8_t>& body,
                   const std::vector<const Subband*>& bands, int layer,
                   int layers, T2State& state) {
  bool any = false;
  for (const auto* sb : bands) {
    auto& bst = state.of(*sb, layers);
    for (std::size_t i = 0; i < sb->blocks.size(); ++i) {
      if (sb->blocks[i].passes_at_layer(layer, layers) >
          bst.blocks[i].passes_so_far) {
        any = true;
      }
    }
  }
  if (!any) {
    bw.put_bit(0);
    bw.flush();
    return;
  }
  bw.put_bit(1);

  for (const auto* sb : bands) {
    if (sb->blocks.empty()) continue;
    auto& bst = state.of(*sb, layers);

    for (std::size_t i = 0; i < sb->blocks.size(); ++i) {
      const auto& cb = sb->blocks[i];
      BlockState& st = bst.blocks[i];
      const int cum = cb.passes_at_layer(layer, layers);
      const bool contributes = cum > st.passes_so_far;

      if (!st.included_before) {
        bst.incl.encode(bw, cb.gx, cb.gy, layer + 1);
        if (!contributes) continue;
        const int zero_planes = sb->band_numbps - cb.enc.num_bitplanes;
        CJ2K_CHECK(zero_planes >= 0);
        bst.imsb.encode(bw, cb.gx, cb.gy, zero_planes + 1);
        st.included_before = true;
      } else {
        bw.put_bit(contributes ? 1 : 0);
        if (!contributes) continue;
      }

      const int npasses = cum - st.passes_so_far;
      put_npasses(bw, npasses);

      const std::size_t len =
          cb.len_at_passes(cum) - cb.len_at_passes(st.passes_so_far);
      int needed = 1;
      while ((len >> needed) != 0) ++needed;
      const int base_bits =
          st.lblock + floor_log2(static_cast<std::uint32_t>(npasses));
      const int extra = needed > base_bits ? needed - base_bits : 0;
      for (int k = 0; k < extra; ++k) bw.put_bit(1);
      bw.put_bit(0);
      st.lblock += extra;
      bw.put_bits(static_cast<std::uint32_t>(len),
                  st.lblock +
                      floor_log2(static_cast<std::uint32_t>(npasses)));

      const std::size_t off = cb.len_at_passes(st.passes_so_far);
      body.insert(body.end(),
                  cb.enc.data.begin() + static_cast<std::ptrdiff_t>(off),
                  cb.enc.data.begin() +
                      static_cast<std::ptrdiff_t>(off + len));
      st.passes_so_far = cum;
    }
  }
  bw.flush();
}

/// Codes all layers of one (component, resolution) pair.  The persistent
/// state (tag trees, Lblock, passes-so-far) lives entirely in the local
/// T2State — nothing is shared with other precinct streams.
void encode_precinct_stream(const Tile& tile, T2PrecinctStream& ps) {
  const auto& tc = tile.components[ps.component];
  const auto bands = bands_of_resolution(tc, tile.levels, ps.resolution);
  const int layers = tile.layers;
  T2State state;
  ps.layer_bytes.assign(static_cast<std::size_t>(layers), {});
  ps.total_bytes = 0;
  for (int l = 0; l < layers; ++l) {
    BitWriter bw;
    std::vector<std::uint8_t> body;
    encode_packet(bw, body, bands, l, layers, state);
    auto& chunk = ps.layer_bytes[static_cast<std::size_t>(l)];
    chunk = bw.take();
    chunk.insert(chunk.end(), body.begin(), body.end());
    ps.total_bytes += chunk.size();
  }
}

}  // namespace

std::vector<T2PrecinctStream> t2_encode_precincts(const Tile& tile,
                                                  bool parallel) {
  std::vector<T2PrecinctStream> parts;
  parts.reserve(tile.components.size() *
                static_cast<std::size_t>(tile.levels + 1));
  for (std::size_t c = 0; c < tile.components.size(); ++c) {
    for (int r = 0; r <= tile.levels; ++r) {
      T2PrecinctStream ps;
      ps.component = c;
      ps.resolution = r;
      parts.push_back(std::move(ps));
    }
  }

  if (!parallel) {
    for (auto& ps : parts) encode_precinct_stream(tile, ps);
    return parts;
  }
  decomp::parallel_for(parts.size(), [&](std::size_t idx, std::size_t) {
    encode_precinct_stream(tile, parts[idx]);
  });
  return parts;
}

std::vector<std::uint8_t> t2_stitch(
    const Tile& tile, const std::vector<T2PrecinctStream>& parts) {
  const auto nres = static_cast<std::size_t>(tile.levels + 1);
  const std::size_t ncomp = tile.components.size();
  CJ2K_CHECK_MSG(parts.size() == ncomp * nres,
                 "wrong number of precinct streams");
  std::size_t total = 0;
  for (const auto& ps : parts) {
    CJ2K_CHECK_MSG(ps.layer_bytes.size() ==
                       static_cast<std::size_t>(tile.layers),
                   "precinct stream has the wrong layer count");
    total += ps.total_bytes;
  }
  std::vector<std::uint8_t> out;
  out.reserve(total);
  // parts are component-major, resolution-minor; the packet walk puts the
  // component innermost and nests (layer, resolution) per the progression.
  const auto append = [&](int l, int r) {
    for (std::size_t c = 0; c < ncomp; ++c) {
      const auto& chunk = parts[c * nres + static_cast<std::size_t>(r)]
                              .layer_bytes[static_cast<std::size_t>(l)];
      out.insert(out.end(), chunk.begin(), chunk.end());
    }
  };
  if (tile.progression == 1) {  // RLCP: resolution outer, layer inner.
    for (int r = 0; r <= tile.levels; ++r) {
      for (int l = 0; l < tile.layers; ++l) append(l, r);
    }
  } else {  // LRCP: layer outer, resolution inner.
    for (int l = 0; l < tile.layers; ++l) {
      for (int r = 0; r <= tile.levels; ++r) append(l, r);
    }
  }
  return out;
}

std::vector<std::uint8_t> t2_encode(const Tile& tile) {
  return t2_stitch(tile, t2_encode_precincts(tile));
}

std::size_t t2_encoded_size(const Tile& tile) {
  // The size needs no stitch — precinct totals already include headers.
  std::size_t total = 0;
  for (const auto& ps : t2_encode_precincts(tile)) total += ps.total_bytes;
  return total;
}

}  // namespace cj2k::jp2k
