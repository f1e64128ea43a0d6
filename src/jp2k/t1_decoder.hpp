// Tier-1 EBCOT block decoder: the encoder's pass walk (jp2k/t1_walk.hpp)
// driving the MQ decoder.  Supports truncated codewords (the MQ decoder
// synthesizes 1-bits past the end of data, per the standard).
#pragma once

#include <cstdint>

#include "common/span2d.hpp"
#include "image/image.hpp"
#include "jp2k/t1_common.hpp"

namespace cj2k::jp2k {

/// Decodes one code block.
///
/// `data`/`size`   — the (possibly truncated) MQ codeword.
/// `num_bitplanes` — magnitude bit planes coded by the encoder.
/// `num_passes`    — coding passes to execute (1 + 3*(planes-1) for a full
///                   decode; fewer for a rate-truncated block).
/// `orient`        — subband orientation (selects the ZC context table).
/// `out`           — receives signed coefficients.  For a partial decode the
///                   magnitudes carry a half-LSB midpoint reconstruction.
void t1_decode_block(const std::uint8_t* data, std::size_t size,
                     int num_bitplanes, int num_passes, SubbandOrient orient,
                     Span2d<Sample> out, const T1Options& options = {});

}  // namespace cj2k::jp2k
