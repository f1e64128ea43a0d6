#include "jp2k/t2_decoder.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "jp2k/t2_walk.hpp"

namespace cj2k::jp2k {

std::size_t t2_decode(const std::uint8_t* data, std::size_t size,
                      Tile& tile, int max_layers) {
  // An RLCP stream carries every layer of a resolution before the next
  // resolution, so stopping each resolution early would read the next one
  // from the wrong offset.
  if (max_layers > 0 && max_layers < tile.layers && tile.progression == 1) {
    throw InvalidArgument(
        "progressive layer truncation requires LRCP ordering");
  }
  const int layer_stop = max_layers > 0 ? std::min(max_layers, tile.layers)
                                        : tile.layers;

  for (auto& tc : tile.components) {
    for (auto& sb : tc.subbands) {
      for (auto& cb : sb.blocks) {
        cb.included_passes = 0;
        cb.included_len = 0;
        cb.enc.data.clear();
      }
    }
  }

  // Component-major, resolution-minor.  Each is built at its first packet,
  // among the codeword buffers of the packets before it: built all up
  // front, repeated decodes peaked 15–30% higher in resident memory (see
  // T2Band).
  const auto nres = static_cast<std::size_t>(tile.levels + 1);
  std::vector<std::optional<Precinct>> precincts(tile.components.size() *
                                                 nres);

  struct Pending {
    CodeBlock* cb;
    std::size_t len;
  };
  std::vector<Pending> pending;
  std::size_t pos = 0;
  for_each_packet(tile, layer_stop, [&](int layer, int r) {
    for (std::size_t c = 0; c < tile.components.size(); ++c) {
      auto& subbands = tile.components[c].subbands;
      BitReader br(data + pos, size - pos);
      pending.clear();
      auto& p = precincts[c * nres + static_cast<std::size_t>(r)];
      if (!p) p.emplace(subbands, tile.levels, r);
      code_packet(br, *p, layer, tile.layers, [&](const T2Segment& s) {
        CodeBlock& cb = subbands[s.band].blocks[s.block];
        cb.enc.num_bitplanes = s.planes;
        cb.included_passes = s.passes;
        pending.push_back({&cb, s.len});
      });
      pos += br.position();
      for (const Pending& pb : pending) {
        if (pb.len > size - pos) {
          throw CodestreamError("packet body truncated");
        }
        pb.cb->enc.data.insert(pb.cb->enc.data.end(), data + pos,
                               data + pos + pb.len);
        pb.cb->included_len = pb.cb->enc.data.size();
        pos += pb.len;
      }
    }
  });
  return pos;
}

}  // namespace cj2k::jp2k
