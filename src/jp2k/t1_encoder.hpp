// Tier-1 EBCOT block encoder: bit-plane context modeling + MQ coding of one
// code block (ISO/IEC 15444-1 Annex D).  Produces the terminated codeword
// plus per-pass truncation lengths and distortion reductions for PCRD rate
// control, and instrumentation counts for the Cell/P4 cost models.
#pragma once

#include <cstdint>
#include <vector>

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

/// One MQ decision of a code block: the Tier-1 context it is coded in
/// (kCtx* numbering) and the bit.
struct T1Decision {
  std::uint8_t context;
  std::uint8_t bit;
};

/// The decisions t1_encode_block codes for this block, in coding order,
/// from the context modelling alone.  Encoding them through MqEncoder with
/// a fresh T1ContextBank gives the block's codeword; under RESET the bank
/// restarts at every pass boundary (each PassInfo::symbols decisions).
std::vector<T1Decision> t1_decision_stream(Span2d<const Sample> coeffs,
                                           SubbandOrient orient,
                                           const T1Options& options = {});

}  // namespace cj2k::jp2k
