// Concurrency stress tests, written to give TSan (and ASan) something to
// bite on: the Tier-1 work on the host pool inside the pipeline,
// precinct-parallel Tier-2, and whole encoders running concurrently.
// Under -DCJ2K_SANITIZE=thread these are the suite's main race detectors;
// in a plain build they still assert the visible invariant (bit-identical
// output).
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "cellenc/pipeline.hpp"
#include "common/rng.hpp"
#include "image/synth.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/t2_encoder.hpp"
#include "jp2k/tile.hpp"

namespace cj2k {
namespace {

cell::MachineConfig config(int spes, int ppes = 1) {
  cell::MachineConfig cfg;
  cfg.num_spes = spes;
  cfg.num_ppe_threads = ppes;
  return cfg;
}

TEST(Tier1PoolStress, RepeatedLossyEncodesAreDeterministic) {
  // The lossy path runs the Tier-1 pool plus the distributed rate/T2 tail
  // — the pipeline's full concurrent surface.  Byte-identical output over
  // repeats means no iteration-order or data race leaked into the stream.
  const Image img = synth::photographic(160, 128, 3, 90);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.rate = 0.15;
  const auto serial = jp2k::encode(img, p);

  cellenc::CellEncoder enc(config(8, 2));
  for (int round = 0; round < 4; ++round) {
    const auto res = enc.encode(img, p);
    ASSERT_EQ(res.codestream, serial) << "round " << round;
  }
}

TEST(Tier1PoolStress, ConcurrentEncodersDoNotInterfere) {
  // Four complete encoders on distinct machines in parallel; each must
  // reproduce the serial stream.  Shared mutable state anywhere in the
  // pipeline (or the audit layer, which two of the four enable) shows up
  // here under TSan.
  const Image img = synth::photographic(128, 96, 3, 91);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.rate = 0.2;
  const auto serial = jp2k::encode(img, p);

  constexpr unsigned kEncoders = 4;
  std::vector<std::vector<std::uint8_t>> streams(kEncoders);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kEncoders; ++t) {
    threads.emplace_back([&streams, &img, &p, t] {
      cellenc::CellEncoder enc(config(static_cast<int>(2 + t)));
      cellenc::PipelineOptions opt;
      opt.audit.enabled = (t % 2 == 0);
      streams[t] = enc.encode(img, p, opt).codestream;
    });
  }
  for (auto& th : threads) th.join();
  for (unsigned t = 0; t < kEncoders; ++t) {
    EXPECT_EQ(streams[t], serial) << "encoder " << t;
  }
}

/// Synthetic encoded tile for Tier-2 stress (same shape as t2_test's).
jp2k::Tile make_tile(std::size_t w, std::size_t h, int levels,
                     std::size_t ncomp, std::size_t cb, std::uint64_t seed) {
  Rng rng(seed);
  jp2k::Tile tile;
  tile.width = w;
  tile.height = h;
  tile.levels = levels;
  for (std::size_t c = 0; c < ncomp; ++c) {
    jp2k::TileComponent tc;
    for (const auto& info : jp2k::subband_layout(w, h, levels)) {
      jp2k::Subband sb;
      sb.info = info;
      sb.quant_step = 1.0;
      jp2k::make_block_grid(sb, cb, cb);
      int numbps_band = 0;
      for (auto& blk : sb.blocks) {
        if (rng.next_double() < 0.8) {
          const int planes = 1 + static_cast<int>(rng.next_below(10));
          blk.enc.num_bitplanes = planes;
          blk.included_passes = 1 + static_cast<int>(rng.next_below(
                                        static_cast<std::uint64_t>(
                                            1 + 3 * (planes - 1))));
          const std::size_t len = 1 + rng.next_below(2000);
          blk.enc.data.resize(len);
          for (auto& byte : blk.enc.data) {
            byte = static_cast<std::uint8_t>(rng.next_below(255));
          }
          blk.included_len = len;
          numbps_band = std::max(numbps_band, planes);
        } else {
          blk.included_passes = 0;
          blk.enc.num_bitplanes = 0;
        }
      }
      sb.band_numbps = numbps_band;
      tc.subbands.push_back(std::move(sb));
    }
    tile.components.push_back(std::move(tc));
  }
  return tile;
}

TEST(T2Stress, ParallelPrecinctsMatchSerialAcrossRepeats) {
  const jp2k::Tile tile = make_tile(256, 256, 4, 3, 32, 92);
  const auto serial_parts = jp2k::t2_encode_precincts(tile, /*parallel=*/false);
  const auto serial_bytes = jp2k::t2_stitch(tile, serial_parts);
  EXPECT_EQ(serial_bytes, jp2k::t2_encode(tile));

  for (int round = 0; round < 8; ++round) {
    const auto parts = jp2k::t2_encode_precincts(tile, /*parallel=*/true);
    ASSERT_EQ(parts.size(), serial_parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
      ASSERT_EQ(parts[i].component, serial_parts[i].component);
      ASSERT_EQ(parts[i].resolution, serial_parts[i].resolution);
      ASSERT_EQ(parts[i].layer_bytes, serial_parts[i].layer_bytes) << i;
    }
    ASSERT_EQ(jp2k::t2_stitch(tile, parts), serial_bytes) << round;
  }
}

TEST(T2Stress, ConcurrentCallersOverDistinctTiles) {
  constexpr unsigned kCallers = 4;
  std::vector<jp2k::Tile> tiles;
  std::vector<std::vector<std::uint8_t>> expected(kCallers);
  for (unsigned t = 0; t < kCallers; ++t) {
    tiles.push_back(make_tile(128, 128, 3, 2, 32, 93 + t));
    expected[t] = jp2k::t2_encode(tiles.back());
  }
  std::vector<std::vector<std::uint8_t>> got(kCallers);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kCallers; ++t) {
    threads.emplace_back([&tiles, &got, t] {
      const auto parts = jp2k::t2_encode_precincts(tiles[t], /*parallel=*/true);
      got[t] = jp2k::t2_stitch(tiles[t], parts);
    });
  }
  for (auto& th : threads) th.join();
  for (unsigned t = 0; t < kCallers; ++t) EXPECT_EQ(got[t], expected[t]) << t;
}

}  // namespace
}  // namespace cj2k
