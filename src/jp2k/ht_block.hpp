// HTJ2K (Part 15) high-throughput block coder: a single cleanup pass that
// codes one code block as the classic MagSgn/MEL/VLC triplet.  Structurally
// faithful to the standard — 2×2 quad scan, MEL-coded significance for
// zero-context quads, a u-VLC-coded magnitude exponent bound U per
// significant quad, and raw sign+magnitude bits in the MagSgn stream — but
// with simplified tables (raw 4-bit significance patterns instead of the
// CxtVLC codewords, a 4-byte Scup trailer instead of the packed 12-bit
// field).  As with the rest of the codestream layer we do not claim
// bit-level interop with third-party decoders (codestream.hpp); what the
// paper's scaling claims need is the *shape* of the coder: one pass, no
// truncation points, and therefore no PCRD rate-control tail.
//
// Segment layout (total L bytes):
//   [MagSgn, forward][MEL, forward][VLC, byte-reversed][Scup, 4-byte BE]
// with Scup = len(MEL) + len(VLC) + 4.  The decoder reads Scup from the
// trailer, the MagSgn stream forward from offset 0, the MEL stream forward
// from offset L - Scup, and the VLC stream backward from offset L - 5.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/span2d.hpp"
#include "image/image.hpp"
#include "jp2k/t1_common.hpp"

namespace cj2k::jp2k {

/// Encodes one code block with the HT cleanup pass.  The result carries a
/// single kCleanup PassInfo (HT has no truncation points), and
/// `total_symbols` counts coded *samples* (w*h) — the HT cost-model basis,
/// as opposed to EBCOT's MQ-decision count.
T1EncodedBlock ht_encode_block(Span2d<const Sample> coeffs);

/// Decodes one HT cleanup-pass segment.  Mirrors t1_decode_block's shape so
/// the Tier-2/decoder plumbing can dispatch on the block coder;
/// `num_bitplanes` (reconstructed by Tier-2 from the imsb tag tree) bounds
/// every quad's magnitude exponent.  Defensive: reads past the segment
/// yield zero bits, and structurally impossible values (a magnitude
/// exponent bound above `num_bitplanes` or 31, a magnitude of 2^U, short or
/// overrunning Scup) throw CodestreamError rather than invoking undefined
/// behavior.
void ht_decode_block(const std::uint8_t* data, std::size_t size,
                     int num_bitplanes, Span2d<Sample> out);

/// Deterministic Qfactor-style heuristic mapping a target rate (fraction of
/// raw size, as CodingParams::rate) to a multiplier on the base quantizer
/// step.  HT cannot truncate codewords, so rate targeting happens entirely
/// in the quantizer; this log-linear fit is approximate by design
/// (DESIGN.md §9) — the modeled-time claims do not depend on hitting the
/// byte target exactly.
double ht_step_scale_for_rate(double rate);

/// The base quantizer step the encoder should actually quantize with:
/// CodingParams::base_quant_step, folded with ht_step_scale_for_rate when
/// the HT coder handles a lossy rate target.  Both the serial reference
/// encoder and the Cell pipeline front must use this same helper or they
/// lose byte identity.
double effective_base_quant_step(const struct CodingParams& params);

}  // namespace cj2k::jp2k
