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

/// Streaming consumer side of the precinct decomposition: accepts finished
/// precinct streams in *any* completion order and appends their packets to
/// the output the moment the progression-order cursor reaches them.  The
/// cursor walks packets (layer, resolution, component) in the tile's
/// progression (LRCP or RLCP); a packet is appended once every packet before
/// it has been appended and its own precinct stream has been offered.  This
/// is what lets the PPE stitch early precincts while the pool is still
/// coding later ones — and because the cursor order is fixed, the assembled
/// bytes are identical to the one-shot t2_stitch() regardless of the order
/// parts arrive in.
class T2StitchStream {
 public:
  explicit T2StitchStream(const Tile& tile);

  /// Number of precinct streams expected (components × resolutions).
  std::size_t num_parts() const { return slots_.size(); }

  /// Marks the part at `index` (its position in the canonical
  /// component-major, resolution-minor order) as finished and advances the
  /// cursor as far as it will go.  `part` must stay alive until take().
  /// Returns the number of bytes appended by this call.
  std::size_t offer(std::size_t index, const T2PrecinctStream& part);

  /// True once every packet has been appended.
  bool complete() const { return packets_done_ == packets_total_; }

  /// Yields the assembled packet stream; only valid when complete().
  std::vector<std::uint8_t> take();

 private:
  void append_ready();  ///< Advances the cursor over offered parts.

  int levels_;
  int layers_;
  int progression_;
  std::size_t components_;
  std::vector<const T2PrecinctStream*> slots_;  ///< By canonical index.
  std::vector<std::uint8_t> out_;
  // Progression cursor: indices of the next packet to append.
  int layer_ = 0;
  int res_ = 0;
  std::size_t comp_ = 0;
  std::size_t packets_done_ = 0;
  std::size_t packets_total_;
};

/// Serial stitch pass: concatenates finished precinct-stream packets in
/// the tile's progression order (LRCP or RLCP).  Implemented as a
/// T2StitchStream fed in canonical order.
std::vector<std::uint8_t> t2_stitch(const Tile& tile,
                                    const std::vector<T2PrecinctStream>& parts);

/// Codes the precinct streams on a worker pool while the *calling thread*
/// stitches finished parts through a T2StitchStream as they complete — the
/// overlapped tail's Tier-2 shape, with real threads handing off through a
/// CompletionChannel (so the sanitizer presets exercise the hand-off).
/// Byte-identical to t2_encode().  When `parts_out` is non-null the coded
/// precinct streams are moved there (canonical order).
std::vector<std::uint8_t> t2_encode_streamed(
    const Tile& tile, std::vector<T2PrecinctStream>* parts_out = nullptr);

/// Serializes all packets of the tile.  Blocks contribute their first
/// `included_passes` passes (`included_len` bytes); call include_all() or
/// run rate control first.
std::vector<std::uint8_t> t2_encode(const Tile& tile);

/// Byte size t2_encode would produce (used by rate control to budget
/// header overhead without a second serialization).
std::size_t t2_encoded_size(const Tile& tile);

}  // namespace cj2k::jp2k
