// Tier-1 EBCOT block encoder: bit-plane context modeling + MQ coding of one
// code block (ISO/IEC 15444-1 Annex D).  Produces the terminated codeword
// plus per-pass truncation lengths and distortion reductions for PCRD rate
// control, and instrumentation counts for the Cell/P4 cost models.
#pragma once

#include "common/span2d.hpp"
#include "image/image.hpp"
#include "jp2k/t1_common.hpp"

namespace cj2k::jp2k {

/// Encodes one code block of signed wavelet coefficients.
///
/// `coeffs` is the quantized (or reversible) coefficient rectangle; values
/// are interpreted sign-magnitude.  Block dimensions must each be in
/// [1, 1024] per the standard (typically 64×64).
T1EncodedBlock t1_encode_block(Span2d<const Sample> coeffs,
                               SubbandOrient orient,
                               const T1Options& options = {});

}  // namespace cj2k::jp2k
