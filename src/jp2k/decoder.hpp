// JPEG2000 decoder: parses the codestream, runs Tier-2, Tier-1, dequantizer
// and inverse DWT/MCT.  Exists primarily as the correctness oracle for the
// encoder (bit-exact lossless roundtrip), and to measure lossy PSNR.
#pragma once

#include <cstdint>
#include <vector>

#include "image/image.hpp"

namespace cj2k::jp2k {

/// Decodes a codestream produced by encode(); `max_layers` > 0 decodes only
/// the first quality layers (progressive decoding), 0 decodes all.  Throws
/// InvalidArgument when `max_layers` would truncate an RLCP stream, and
/// CodestreamError on malformed input.
Image decode(const std::vector<std::uint8_t>& bytes, int max_layers = 0);

}  // namespace cj2k::jp2k
