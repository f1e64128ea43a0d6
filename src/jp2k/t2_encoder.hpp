// Tier-2 packet encoder (ISO/IEC 15444-1 Annex B): tag-tree-coded packet
// headers plus concatenated code-block segments, one packet per
// (layer, resolution, component) in LRCP or RLCP order with a single
// precinct per resolution.
//
// The packet stream factors into independent *precinct streams*: all
// persistent Tier-2 state (tag trees, Lblock, passes-so-far) is keyed by
// subband, and a subband contributes to exactly one (component, resolution)
// pair.  So the packets of different (component, resolution) pairs can be
// coded in parallel — each worker walks its own layers in order — and a
// serial stitch pass concatenates the finished packets in progression
// order.  t2_encode()/t2_encoded_size() are thin wrappers over that
// decomposition, which keeps the parallel Cell pipeline byte-identical to
// the serial reference by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "jp2k/tile.hpp"

namespace cj2k::jp2k {

/// The packets of one (component, resolution) pair across all quality
/// layers: `layer_bytes[l]` is packet header + body for layer l.
struct T2PrecinctStream {
  std::size_t component = 0;
  int resolution = 0;
  std::vector<std::vector<std::uint8_t>> layer_bytes;
  std::size_t total_bytes = 0;  ///< Sum over layer_bytes.
};

/// Codes every precinct stream of the tile (components × resolutions).
/// With `parallel`, the independent streams are coded on the host pool
/// (decomp/host_pool.hpp); the output is identical either way.
std::vector<T2PrecinctStream> t2_encode_precincts(const Tile& tile,
                                                  bool parallel = false);

/// Serial stitch pass: concatenates finished precinct-stream packets in
/// the tile's progression order (LRCP or RLCP, component innermost).
/// `parts` is in t2_encode_precincts' order (component-major,
/// resolution-minor) and carries every layer.
std::vector<std::uint8_t> t2_stitch(const Tile& tile,
                                    const std::vector<T2PrecinctStream>& parts);

/// Serializes all packets of the tile.  Blocks contribute their first
/// `included_passes` passes (`included_len` bytes); call include_all() or
/// run rate control first.
std::vector<std::uint8_t> t2_encode(const Tile& tile);

/// Byte size t2_encode would produce (used by rate control to budget
/// header overhead without a second serialization).
std::size_t t2_encoded_size(const Tile& tile);

}  // namespace cj2k::jp2k
