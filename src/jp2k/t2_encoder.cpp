#include "jp2k/t2_encoder.hpp"

#include "common/error.hpp"
#include "decomp/host_pool.hpp"
#include "jp2k/t2_walk.hpp"

namespace cj2k::jp2k {

namespace {

/// Sets the encoder's tag-tree leaves: each block's inclusion layer (the
/// first layer it contributes to, `layers` when it never does) and its
/// zero bit planes.
void set_tag_trees(Precinct& p, int layers) {
  for (T2Band& b : p.bands) {
    T2BandState& bs = *b.state;
    for (const CodeBlock& cb : b.sb->blocks) {
      int first = 0;
      while (first < layers && cb.passes_at_layer(first, layers) == 0) {
        ++first;
      }
      const int zero_planes = b.sb->band_numbps - cb.enc.num_bitplanes;
      CJ2K_CHECK(first == layers || zero_planes >= 0);
      bs.incl.set_value(cb.gx, cb.gy, first);
      bs.imsb.set_value(cb.gx, cb.gy, first < layers ? zero_planes : 0);
    }
    bs.incl.finalize();
    bs.imsb.finalize();
  }
}

/// Codes all layers of one (component, resolution) pair.  The persistent
/// state (tag trees, Lblock, passes so far) lives in the local Precinct;
/// nothing is shared with other precinct streams.
void encode_precinct_stream(const Tile& tile, T2PrecinctStream& ps) {
  const auto& subbands = tile.components[ps.component].subbands;
  Precinct p(subbands, tile.levels, ps.resolution);
  set_tag_trees(p, tile.layers);
  ps.layer_bytes.assign(static_cast<std::size_t>(tile.layers), {});
  ps.total_bytes = 0;
  std::vector<std::uint8_t> body;
  for (int l = 0; l < tile.layers; ++l) {
    BitWriter bw;
    body.clear();
    code_packet(bw, p, l, tile.layers, [&](const T2Segment& s) {
      const CodeBlock& cb = subbands[s.band].blocks[s.block];
      const std::uint8_t* data =
          cb.enc.data.data() + cb.len_at_passes(s.first_pass);
      body.insert(body.end(), data, data + s.len);
    });
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
  // parts are component-major, resolution-minor; the component is the
  // innermost packet loop.
  for_each_packet(tile, tile.layers, [&](int l, int r) {
    for (std::size_t c = 0; c < ncomp; ++c) {
      const auto& chunk = parts[c * nres + static_cast<std::size_t>(r)]
                              .layer_bytes[static_cast<std::size_t>(l)];
      out.insert(out.end(), chunk.begin(), chunk.end());
    }
  });
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
