#include "jp2k/t1_decoder.hpp"

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"
#include "jp2k/mq_decoder.hpp"
#include "jp2k/t1_walk.hpp"

namespace cj2k::jp2k {

namespace {

/// Writes every sample of the block: its magnitude, plus `half` when
/// nonzero, negated when its sign flag is set.  Walks the stripe columns,
/// one flag word for up to four samples.
void reconstruct(T1Walk& walk, Span2d<Sample> out, std::uint32_t half) {
  T1Flags& flags = walk.flags();
  const std::size_t w = out.width();
  for (std::size_t s = 0; s < flags.stripes(); ++s) {
    const unsigned lanes = flags.lanes(s);
    const std::uint64_t* col = flags.column(s, 0);
    const std::uint32_t* mag = &walk.magnitudes()[s * kStripeHeight * w];
    Sample* rows[kStripeHeight];
    for (unsigned j = 0; j < lanes; ++j) {
      rows[j] = out.row(s * kStripeHeight + j);
    }
    for (std::size_t x = 0; x < w; ++x) {
      const std::uint64_t word = col[x];
      for (unsigned j = 0; j < lanes; ++j) {
        const std::uint32_t m = mag[x * kStripeHeight + j];
        const std::uint32_t v = m + (m != 0 ? half : 0);
        const std::uint32_t neg =
            0u - static_cast<std::uint32_t>(
                     ((word >> (16 * j)) & kFlagSign) != 0);
        rows[j][x] = static_cast<Sample>((v ^ neg) - neg);
      }
    }
  }
}

}  // namespace

void t1_decode_block(const std::uint8_t* data, std::size_t size,
                     int num_bitplanes, int num_passes, SubbandOrient orient,
                     Span2d<Sample> out, const T1Options& options) {
  CJ2K_CHECK_MSG(num_bitplanes >= 0 && num_bitplanes <= 31,
                 "bad bit plane count");
  const int max_passes = num_bitplanes == 0 ? 0 : 1 + 3 * (num_bitplanes - 1);
  CJ2K_CHECK_MSG(num_passes >= 0 && num_passes <= max_passes,
                 "pass count exceeds the plane budget");
  if (num_passes == 0) {
    for (std::size_t y = 0; y < out.height(); ++y) {
      std::fill(out.row(y), out.row(y) + out.width(), Sample{0});
    }
    return;
  }

  T1Walk walk(out.width(), out.height(), orient, options);
  MqDecoder mq(data, size);
  int final_plane = 0;
  walk.code(mq, num_bitplanes,
            [&](const MqDecoder&, PassType, int plane, double) {
              final_plane = plane;
              return --num_passes > 0;
            });
  // Midpoint reconstruction within the last decoded plane; none once a
  // pass of plane 0 has run.
  reconstruct(walk, out, (1u << final_plane) >> 1);
}

}  // namespace cj2k::jp2k
