// Tier-2 packet decoder: parses the packet sequence produced by t2_encode
// (LRCP or RLCP, per tile.progression) into a Tile whose geometry
// (subbands, block grids, band_numbps, quantizer steps) the caller has
// already reconstructed from the codestream headers.  Fills each block's codeword bytes, bit-plane count and pass
// count.
#pragma once

#include <cstdint>

#include "jp2k/tile.hpp"

namespace cj2k::jp2k {

/// Parses packets from `data`; returns the number of bytes consumed.
/// `max_layers` > 0 stops after that many quality layers (progressive
/// decoding); 0 decodes everything.  Throws InvalidArgument, before
/// reading anything, when `max_layers` would truncate an RLCP stream, and
/// CodestreamError on malformed input.
std::size_t t2_decode(const std::uint8_t* data, std::size_t size, Tile& tile,
                      int max_layers = 0);

}  // namespace cj2k::jp2k
