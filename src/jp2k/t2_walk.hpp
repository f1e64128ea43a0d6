// Tier-2 packet walk (ISO/IEC 15444-1 Annex B): the packet-header syntax
// of one precinct, written once for the packet encoder and the packet
// decoder, plus the band-to-resolution rule and the progression order
// both sides share.
//
// The walk does not know its direction.  Every header bit goes through
// `bit = io.code(d)` (and multi-bit fields through `io.code_bits(v, n)`),
// where `d` is the encoder's decision read off the tile.  BitWriter::code
// writes `d` and returns it; BitReader::code ignores `d` and returns the
// bit it read.  The walk then acts only on what `io.code` returned, so
// both sides keep the same per-block state, and the checks a hostile
// header trips run on both sides (on the encoder's they cannot fire).
// Block bodies are not the walk's business: each coded segment goes to
// the caller's `on_segment`, which appends codeword bytes (encoder) or
// records where to copy them from the stream (decoder).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "jp2k/tagtree.hpp"
#include "jp2k/tile.hpp"

namespace cj2k::jp2k {

/// Resolution a subband contributes to: 0 for LL, else levels - level + 1.
inline int resolution_of(const Subband& sb, int levels) {
  return sb.info.orient == SubbandOrient::LL ? 0
                                             : levels - sb.info.level + 1;
}

/// Calls fn(layer, resolution) for the first `layers` layers of every
/// packet position in the tile's progression order (LRCP, or RLCP when
/// tile.progression == 1); the component loop, innermost, is fn's.
template <class Fn>
void for_each_packet(const Tile& tile, int layers, const Fn& fn) {
  if (tile.progression == 1) {  // RLCP: resolution outer, layer inner.
    for (int r = 0; r <= tile.levels; ++r) {
      for (int l = 0; l < layers; ++l) fn(l, r);
    }
  } else {  // LRCP: layer outer, resolution inner.
    for (int l = 0; l < layers; ++l) {
      for (int r = 0; r <= tile.levels; ++r) fn(l, r);
    }
  }
}

/// Per-code-block Tier-2 state that persists across quality layers.
struct T2Block {
  bool included = false;
  int lblock = 3;
  int passes = 0;  ///< Passes sent so far.
};

/// The Tier-2 state of one band: its inclusion and zero-bit-plane tag
/// trees and its blocks' state.
struct T2BandState {
  explicit T2BandState(const Subband& band)
      : incl(band.grid_w, band.grid_h),
        imsb(band.grid_w, band.grid_h),
        blocks(band.blocks.size()) {}
  TagTree incl;
  TagTree imsb;
  std::vector<T2Block> blocks;
};

/// One band of a precinct.  Its state is a heap object of its own: held
/// inline in `bands`, repeated decodes of a 1586×1558 three-layer stream
/// peaked ~30% higher in resident memory, because glibc then serves the
/// decoder's later small allocations from above its plane buffers and the
/// heap cannot shrink between calls.
struct T2Band {
  T2Band(const Subband& band, std::size_t index_in_component)
      : sb(&band),
        index(index_in_component),
        state(std::make_unique<T2BandState>(band)) {}
  const Subband* sb;
  std::size_t index;  ///< Position in the component's subbands.
  std::unique_ptr<T2BandState> state;
};

/// The Tier-2 state of one precinct: the bands of one component at one
/// resolution (one precinct per resolution), in band order.  Bands without
/// code blocks send nothing and are left out.
struct Precinct {
  Precinct(std::span<const Subband> subbands, int levels, int resolution) {
    for (std::size_t i = 0; i < subbands.size(); ++i) {
      if (resolution_of(subbands[i], levels) == resolution &&
          !subbands[i].blocks.empty()) {
        bands.emplace_back(subbands[i], i);
      }
    }
  }
  std::vector<T2Band> bands;
};

/// One code block's contribution to a packet body.
struct T2Segment {
  std::size_t band;   ///< Position in the component's subbands.
  std::size_t block;  ///< Index in the band's blocks.
  int planes;         ///< The block's magnitude bit planes.
  int first_pass;     ///< Passes sent before this segment.
  int passes;         ///< Passes sent including it.
  std::size_t len;    ///< Codeword bytes.
};

/// Number-of-coding-passes code (Table B.4).  A field whose range `n` is
/// past saturates to all ones, which sends the walk to the next field.
template <class Io>
int code_npasses(Io& io, int n) {
  if (!io.code(n > 1)) return 1;
  if (!io.code(n > 2)) return 2;
  const auto two = static_cast<int>(
      io.code_bits(static_cast<std::uint32_t>(std::min(n - 3, 3)), 2));
  if (two < 3) return 3 + two;
  const auto five = static_cast<int>(
      io.code_bits(static_cast<std::uint32_t>(std::min(n - 6, 31)), 5));
  if (five < 31) return 6 + five;
  return 37 + static_cast<int>(
                  io.code_bits(static_cast<std::uint32_t>(n - 37), 7));
}

/// Codes the header of the precinct's packet for `layer` (of `layers`) and
/// passes each block segment it announces to `on_segment`, in header
/// order.  The encoder's precinct has its tag-tree leaves set (inclusion
/// layer, zero bit planes); the decoder's is fresh.  Throws
/// CodestreamError when the header is malformed.
template <class Io, class OnSegment>
void code_packet(Io& io, Precinct& p, int layer, int layers,
                 const OnSegment& on_segment) {
  bool any = false;
  for (const T2Band& b : p.bands) {
    for (std::size_t i = 0; i < b.state->blocks.size(); ++i) {
      any |= b.sb->blocks[i].passes_at_layer(layer, layers) >
             b.state->blocks[i].passes;
    }
  }
  if (io.code(any)) {
    for (T2Band& b : p.bands) {
      T2BandState& bs = *b.state;
      const int numbps = b.sb->band_numbps;
      for (std::size_t i = 0; i < bs.blocks.size(); ++i) {
        const CodeBlock& cb = b.sb->blocks[i];
        T2Block& st = bs.blocks[i];
        const int cum = cb.passes_at_layer(layer, layers);
        if (st.included) {
          if (!io.code(cum > st.passes)) continue;
        } else {
          if (!bs.incl.code(io, cb.gx, cb.gy, layer + 1)) continue;
          if (!bs.imsb.code(io, cb.gx, cb.gy, numbps + 1)) {
            throw CodestreamError("negative bit-plane count in packet header");
          }
          st.included = true;
        }
        const int planes = numbps - bs.imsb.value(cb.gx, cb.gy);
        // Magnitudes are 32-bit sign-magnitude: at most 31 planes, although
        // QCD can announce up to 38.
        if (planes > 31) {
          throw CodestreamError("bit-plane count over 31 in packet header");
        }

        const int first = st.passes;
        const int n = code_npasses(io, cum - first);
        st.passes += n;
        if (st.passes > 1 + 3 * (planes - 1)) {
          throw CodestreamError("pass count exceeds the block's bit planes");
        }

        const int log_n =
            static_cast<int>(std::bit_width(static_cast<unsigned>(n))) - 1;
        const std::size_t len =
            cb.len_at_passes(st.passes) - cb.len_at_passes(first);
        const int needed = std::max(1, static_cast<int>(std::bit_width(len)));
        while (io.code(st.lblock + log_n < needed)) ++st.lblock;
        if (st.lblock + log_n > 32) {
          throw CodestreamError("implausible segment length width");
        }
        on_segment(T2Segment{
            b.index, i, planes, first, st.passes,
            io.code_bits(static_cast<std::uint32_t>(len), st.lblock + log_n)});
      }
    }
  }
  io.align();
}

}  // namespace cj2k::jp2k
