// The textbook 1-D lifting DWTs (ISO/IEC 15444-1 Annex F), one column or
// row at a time with a stride: the reference the host lifting core
// (jp2k/dwt_merged, jp2k/dwt2d) and the Cell kernels are checked against.
// Even-indexed samples carry the low-pass band; boundaries use
// whole-sample symmetric extension.  analyze* leave the result
// deinterleaved (L then H, at the same stride) and synthesize* undo it;
// `scratch` holds n samples.
#pragma once

#include <cstddef>

#include "image/image.hpp"
#include "jp2k/dwt97.hpp"

namespace cj2k::jp2k::ref {

// --- Reversible 5/3 ----------------------------------------------------------

/// Forward lifting only (no deinterleave), both lifting steps fused into a
/// single sweep (paper Algorithm 2).
void lift53_interleaved(Sample* data, std::size_t n, std::size_t stride);
/// Undoes lift53_interleaved (interleaved domain).
void unlift53(Sample* data, std::size_t n, std::size_t stride);

void analyze53(Sample* data, std::size_t n, std::size_t stride,
               Sample* scratch);
void synthesize53(Sample* data, std::size_t n, std::size_t stride,
                  Sample* scratch);

// --- Irreversible 9/7, float -------------------------------------------------

/// All four lifting steps + scaling fused into one sweep over an
/// interleaved signal (the Kutil-style single loop the paper adopts for the
/// lossy case).
void lift97_interleaved(float* data, std::size_t n, std::size_t stride);
/// Undoes lift97_interleaved (interleaved domain).
void unlift97(float* data, std::size_t n, std::size_t stride);

void analyze97(float* data, std::size_t n, std::size_t stride,
               float* scratch);
void synthesize97(float* data, std::size_t n, std::size_t stride,
                  float* scratch);

// --- Irreversible 9/7, Q13 fixed point ---------------------------------------

void analyze97_fixed(dwt97::Fix* data, std::size_t n, std::size_t stride,
                     dwt97::Fix* scratch);
void synthesize97_fixed(dwt97::Fix* data, std::size_t n, std::size_t stride,
                        dwt97::Fix* scratch);

}  // namespace cj2k::jp2k::ref
