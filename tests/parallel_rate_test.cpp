// Distributed lossy tail tests: the parallel rate-control + Tier-2 path
// (overlapped hull build, k-way slope merge, precinct-parallel Tier-2) must
// be byte-identical to the serial jp2k::encode across the lossy feature
// matrix, and the jp2k-layer building blocks must compose exactly like the
// monolithic functions they replace.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "cellenc/pipeline.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "image/metrics.hpp"
#include "image/synth.hpp"
#include "jp2k/decoder.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/rate_control.hpp"
#include "jp2k/t2_encoder.hpp"
#include "jp2k/tile.hpp"

namespace cj2k {
namespace {

cell::MachineConfig config(int spes, int ppes = 1, int chips = 1) {
  cell::MachineConfig cfg;
  cfg.num_spes = spes;
  cfg.num_ppe_threads = ppes;
  cfg.chips = chips;
  return cfg;
}

// --- jp2k-layer: the split phases equal the monolithic functions ----------

TEST(ParallelRate, MergedWorkerListsEqualSerialSort) {
  const Image img = synth::photographic(160, 128, 1, 71);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.mct = false;
  jp2k::Tile tile = jp2k::build_tile(img, p);

  jp2k::RateControlStats serial_stats;
  const auto serial = jp2k::build_sorted_segments(
      tile, p.wavelet, serial_stats);

  // Rebuild the same hulls split across an arbitrary worker partition.
  std::vector<std::vector<jp2k::HullSegment>> lists(3);
  jp2k::RateControlStats par_stats;
  std::uint64_t ordinal = 0;
  for (auto& tc : tile.components) {
    for (auto& sb : tc.subbands) {
      const double w = jp2k::hull_weight(sb, p.wavelet, tile.levels);
      for (auto& cb : sb.blocks) {
        jp2k::build_block_hull(cb, w, ordinal, lists[ordinal % 3],
                               &par_stats);
        ++ordinal;
      }
    }
  }
  for (auto& l : lists) {
    std::sort(l.begin(), l.end(), jp2k::hull_segment_before);
  }
  const auto merged = jp2k::merge_segment_lists(std::move(lists));

  ASSERT_EQ(merged.size(), serial.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].order, serial[i].order) << i;
    EXPECT_EQ(merged[i].slope, serial[i].slope) << i;
    EXPECT_EQ(merged[i].block, serial[i].block) << i;
  }
  EXPECT_EQ(par_stats.hull_points, serial_stats.hull_points);
  EXPECT_EQ(par_stats.passes_considered, serial_stats.passes_considered);
}

TEST(ParallelRate, PrecinctT2MatchesMonolithicT2) {
  const Image img = synth::photographic(160, 128, 3, 72);
  for (int layers : {1, 3}) {
    for (auto prog : {jp2k::Progression::kLRCP, jp2k::Progression::kRLCP}) {
      jp2k::CodingParams p;
      p.wavelet = jp2k::WaveletKind::kIrreversible97;
      p.layers = layers;
      p.progression = prog;
      p.rate = 0.2;
      jp2k::Tile tile = jp2k::build_tile(img, p);
      const auto budgets = jp2k::plan_layer_budgets({&tile}, img, p);
      if (layers > 1) {
        jp2k::rate_control_layered(tile, budgets, p.wavelet);
      } else {
        jp2k::rate_control(tile, budgets.back(), p.wavelet);
      }

      const auto mono = jp2k::t2_encode(tile);
      for (bool parallel : {false, true}) {
        auto parts = jp2k::t2_encode_precincts(tile, parallel);
        EXPECT_EQ(jp2k::t2_encoded_size(tile), mono.size());
        const auto stitched = jp2k::t2_stitch(tile, parts);
        EXPECT_EQ(stitched, mono)
            << "layers=" << layers << " prog=" << static_cast<int>(prog)
            << " parallel=" << parallel;
      }
    }
  }
}

TEST(ParallelRate, StitchRejectsMalformedPrecinctStreams) {
  const Image img = synth::photographic(64, 64, 3, 73);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.layers = 2;
  p.rate = 0.2;
  jp2k::Tile tile = jp2k::build_tile(img, p);
  jp2k::rate_control_layered(tile, jp2k::plan_layer_budgets({&tile}, img, p),
                             p.wavelet);
  const auto parts = jp2k::t2_encode_precincts(tile);
  EXPECT_EQ(jp2k::t2_stitch(tile, parts), jp2k::t2_encode(tile));

  auto missing = parts;
  missing.pop_back();
  EXPECT_THROW(jp2k::t2_stitch(tile, missing), Error);
  auto short_stream = parts;
  short_stream[1].layer_bytes.pop_back();
  EXPECT_THROW(jp2k::t2_stitch(tile, short_stream), Error);
}

TEST(ParallelRate, StitchOrdersPacketsByTheProgression) {
  const Image img = synth::photographic(96, 80, 3, 74);
  for (auto prog : {jp2k::Progression::kLRCP, jp2k::Progression::kRLCP}) {
    jp2k::CodingParams p;
    p.wavelet = jp2k::WaveletKind::kIrreversible97;
    p.levels = 3;
    p.layers = 3;
    p.progression = prog;
    p.rate = 0.2;
    jp2k::Tile tile = jp2k::build_tile(img, p);
    jp2k::rate_control_layered(tile, jp2k::plan_layer_budgets({&tile}, img, p),
                               p.wavelet);
    const auto parts = jp2k::t2_encode_precincts(tile, /*parallel=*/true);

    // Every packet, sorted by the progression's (slow .. fast) key.
    struct Packet {
      int layer;
      int resolution;
      std::size_t component;
    };
    std::vector<Packet> packets;
    for (const auto& ps : parts) {
      for (int l = 0; l < p.layers; ++l) {
        packets.push_back({l, ps.resolution, ps.component});
      }
    }
    const auto key = [&](const Packet& k) {
      return prog == jp2k::Progression::kRLCP
                 ? std::make_tuple(k.resolution, k.layer, k.component)
                 : std::make_tuple(k.layer, k.resolution, k.component);
    };
    std::sort(packets.begin(), packets.end(),
              [&](const Packet& a, const Packet& b) { return key(a) < key(b); });
    std::vector<std::uint8_t> want;
    for (const auto& k : packets) {
      const auto part = std::find_if(
          parts.begin(), parts.end(), [&](const jp2k::T2PrecinctStream& ps) {
            return ps.component == k.component &&
                   ps.resolution == k.resolution;
          });
      ASSERT_NE(part, parts.end());
      const auto& chunk = part->layer_bytes[static_cast<std::size_t>(k.layer)];
      want.insert(want.end(), chunk.begin(), chunk.end());
    }
    EXPECT_EQ(jp2k::t2_stitch(tile, parts), want)
        << "prog=" << static_cast<int>(prog);
  }
}

TEST(ParallelRate, ProgressionOrderDoesNotChangeTheDecodedImage) {
  const Image img = synth::photographic(96, 80, 3, 75);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.levels = 3;
  p.layers = 3;
  p.rate = 0.3;
  cellenc::CellEncoder enc(config(8, 2));
  const auto lrcp = enc.encode(img, p).codestream;
  EXPECT_EQ(lrcp, jp2k::encode(img, p));
  p.progression = jp2k::Progression::kRLCP;
  const auto rlcp = enc.encode(img, p).codestream;
  EXPECT_EQ(rlcp, jp2k::encode(img, p));

  // The same packets in another order.
  EXPECT_EQ(lrcp.size(), rlcp.size());
  EXPECT_NE(lrcp, rlcp);
  EXPECT_EQ(metrics::max_abs_diff(jp2k::decode(lrcp), jp2k::decode(rlcp)), 0);
}

// A layer ladder without a rate target codes the final Tier-2 pass afresh
// on every tile.
TEST(ParallelRate, TiledLayerLadderMatchesSerialEncoder) {
  const Image img = synth::photographic(128, 96, 3, 76);
  for (int layers : {2, 3}) {
    for (auto prog : {jp2k::Progression::kLRCP, jp2k::Progression::kRLCP}) {
      jp2k::CodingParams p;
      p.wavelet = jp2k::WaveletKind::kIrreversible97;
      p.levels = 3;
      p.layers = layers;
      p.progression = prog;
      p.tiles_x = 2;
      p.tiles_y = 2;
      const auto serial = jp2k::encode(img, p);
      for (int spes : {1, 8}) {
        cellenc::CellEncoder enc(config(spes, 2));
        EXPECT_EQ(enc.encode(img, p).codestream, serial)
            << "layers=" << layers << " prog=" << static_cast<int>(prog)
            << " spes=" << spes;
      }
    }
  }
}

// --- IncrementalScan: resumable greedy scan == one-shot greedy loop -------

TEST(IncrementalScan, ChunkedAdvanceEqualsOneShotGreedyPrefix) {
  const Image img = synth::photographic(160, 128, 1, 74);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.mct = false;
  jp2k::Tile tile = jp2k::build_tile(img, p);
  jp2k::RateControlStats stats;
  const auto segments = jp2k::build_sorted_segments(tile, p.wavelet, stats);
  ASSERT_GT(segments.size(), 16u);

  // Reference: the one-shot greedy prefix the scan replaces.
  std::size_t total = 0;
  for (const auto& s : segments) total += s.delta_r;
  const std::size_t budget = total / 3;
  std::size_t ref_used = 0;
  std::size_t ref_pos = 0;
  double ref_lambda = 0.0;
  std::vector<std::pair<int, std::size_t>> ref_sel;
  for (const auto& seg : segments) {
    if (ref_used + seg.delta_r > budget) break;
    ref_used += seg.delta_r;
    seg.block->included_passes = seg.pass_count;
    seg.block->included_len = seg.trunc_len;
    ref_lambda = seg.slope;
    ++ref_pos;
  }
  for (const auto& tc : tile.components) {
    for (const auto& sb : tc.subbands) {
      for (const auto& cb : sb.blocks) {
        ref_sel.emplace_back(cb.included_passes, cb.included_len);
      }
    }
  }

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{1000000}}) {
    for (auto& tc : tile.components) {
      for (auto& sb : tc.subbands) {
        for (auto& cb : sb.blocks) {
          cb.included_passes = 0;
          cb.included_len = 0;
        }
      }
    }
    jp2k::IncrementalScan scan(segments, budget);
    while (!scan.done()) scan.advance(chunk);
    EXPECT_EQ(scan.used(), ref_used) << chunk;
    EXPECT_EQ(scan.position(), ref_pos) << chunk;
    EXPECT_DOUBLE_EQ(scan.lambda(), ref_lambda) << chunk;
    EXPECT_EQ(scan.advance(chunk), 0u);  // done stays done
    std::size_t i = 0;
    for (const auto& tc : tile.components) {
      for (const auto& sb : tc.subbands) {
        for (const auto& cb : sb.blocks) {
          EXPECT_EQ(cb.included_passes, ref_sel[i].first) << chunk;
          EXPECT_EQ(cb.included_len, ref_sel[i].second) << chunk;
          ++i;
        }
      }
    }
  }
}

TEST(IncrementalScan, SetBudgetRetriesTheBlockingSegment) {
  std::vector<jp2k::CodeBlock> blocks(3);
  std::vector<jp2k::HullSegment> segs;
  segs.push_back({10.0, 5, &blocks[0], 1, 5, 0});
  segs.push_back({8.0, 4, &blocks[1], 1, 4, std::uint64_t{1} << 16});
  segs.push_back({6.0, 8, &blocks[2], 1, 8, std::uint64_t{2} << 16});

  jp2k::IncrementalScan scan(segs, 7);
  scan.run_to_stop();  // takes seg 0 (5 <= 7), blocks on seg 1
  EXPECT_TRUE(scan.done());
  EXPECT_EQ(scan.position(), 1u);
  EXPECT_EQ(scan.used(), 5u);
  EXPECT_EQ(scan.advance(10), 0u);  // a stopped scan stays stopped

  scan.set_budget(9);  // the layered budget step: retry the blocker
  scan.run_to_stop();  // takes seg 1 (5+4 = 9), blocks on seg 2
  EXPECT_EQ(scan.position(), 2u);
  EXPECT_EQ(scan.used(), 9u);
  EXPECT_EQ(blocks[1].included_passes, 1);

  scan.set_budget(17);
  scan.run_to_stop();  // takes seg 2, exhausts the list
  EXPECT_TRUE(scan.done());
  EXPECT_EQ(scan.position(), 3u);
  EXPECT_EQ(scan.used(), 17u);
  EXPECT_DOUBLE_EQ(scan.lambda(), 6.0);
}

// --- Pipeline: byte identity across the lossy feature matrix --------------

using LossyCase = std::tuple<bool /*fixed*/, int /*layers*/,
                             jp2k::Progression>;

class LossyTailMatrix : public ::testing::TestWithParam<LossyCase> {};

TEST_P(LossyTailMatrix, ParallelTailIsByteIdenticalToSerialEncoder) {
  const auto [fixed, layers, prog] = GetParam();
  const Image img = synth::photographic(96, 80, 3, 12345);

  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.fixed_point_97 = fixed;
  p.levels = 3;
  p.layers = layers;
  p.progression = prog;
  p.rate = 0.25;

  const auto serial = jp2k::encode(img, p);
  for (int spes : {1, 8, 16}) {
    cellenc::CellEncoder enc(config(spes, 2));
    const auto res = enc.encode(img, p);  // parallel tail is the default
    EXPECT_EQ(res.codestream, serial) << spes << " SPEs";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLossyCombinations, LossyTailMatrix,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1, 3),
                       ::testing::Values(jp2k::Progression::kLRCP,
                                         jp2k::Progression::kRLCP)));

// --- Hull overlap: construction rides the T1 span -------------------------

// --- Randomized differential: pipelined vs serial, byte for byte ----------

TEST(ParallelRate, RandomizedDifferentialOverRandomGeometries) {
  Rng rng(0xC0FFEE5EEDull);
  const int spe_choices[] = {1, 3, 8, 16};
  for (int trial = 0; trial < 10; ++trial) {
    jp2k::CodingParams p;
    p.wavelet = jp2k::WaveletKind::kIrreversible97;
    p.fixed_point_97 = rng.next_below(2) == 0;
    p.levels = 3;
    p.layers = 1 + static_cast<int>(rng.next_below(3));
    p.progression = rng.next_below(2) == 0 ? jp2k::Progression::kLRCP
                                           : jp2k::Progression::kRLCP;
    // Rate 0 with layers > 1 exercises the lossless-final-layer ladder (the
    // recode path); otherwise pick a fractional target.
    p.rate = (p.layers > 1 && rng.next_below(3) == 0)
                 ? 0.0
                 : 0.08 + 0.05 * static_cast<double>(rng.next_below(6));
    p.tiles_x = 1 + rng.next_below(2);
    p.tiles_y = 1 + rng.next_below(2);
    // Block-coder axis: roughly a third of the trials run the HT backend.
    // HT streams are single-layer and rate-target via the quantizer, so
    // force a valid combination while keeping the other axes random.
    if (rng.next_below(3) == 0) {
      p.block_coder = jp2k::BlockCoder::kHt;
      p.layers = 1;
      if (p.rate == 0.0) p.rate = 0.1;
    }
    // Dirty geometries: odd, non-line-multiple widths and heights.
    const std::size_t w = 48 + rng.next_below(83);
    const std::size_t h = 40 + rng.next_below(67);
    const Image img = synth::photographic(
        w, h, 3, 1000 + static_cast<std::uint64_t>(trial));

    const auto serial = jp2k::encode(img, p);
    const int spes = spe_choices[rng.next_below(4)];
    const int ppes = static_cast<int>(rng.next_below(3));
    cellenc::CellEncoder enc(config(spes, ppes));
    const auto res = enc.encode(img, p);
    EXPECT_EQ(res.codestream, serial)
        << "trial=" << trial << " " << w << "x" << h << " spes=" << spes
        << " ppes=" << ppes << " layers=" << p.layers << " rate=" << p.rate
        << " tiles=" << p.tiles_x << "x" << p.tiles_y << " coder="
        << (p.block_coder == jp2k::BlockCoder::kHt ? "ht" : "ebcot");
  }
}

// --- Overlap accounting ----------------------------------------------------

TEST(ParallelRate, OverlapReducesSimulatedTailTime) {
  const Image img = synth::photographic(256, 192, 3, 78);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.rate = 0.2;

  cellenc::CellEncoder enc(config(16, 2));
  const auto res = enc.encode(img, p);
  const cell::StageTiming* rate = nullptr;
  const cell::StageTiming* t2 = nullptr;
  for (const auto& s : res.stages) {
    if (s.name == "rate") rate = &s;
    if (s.name == "t2") t2 = &s;
  }
  ASSERT_NE(rate, nullptr);
  ASSERT_NE(t2, nullptr);

  // The phase-ordered rate stage runs its merge and scans (ppe) and then
  // its sizing passes (spe_compute) back to back; the overlapped stage is
  // that time less what it hid.
  const double rate_phase = rate->ppe + rate->spe_compute;
  EXPECT_NEAR(rate->seconds + rate->overlap_saved, rate_phase,
              1e-12 + rate_phase * 1e-9);
  EXPECT_GE(rate->overlap_saved, 0.0);
  // The streaming stitch hides Tier-2 time behind precinct coding.
  EXPECT_GT(t2->overlap_saved, 0.0);
  EXPECT_DOUBLE_EQ(res.overlap_saved_seconds,
                   rate->overlap_saved + t2->overlap_saved);
  EXPECT_GT(res.rate_stats.iterations, 0);
}

// --- Refinement-iteration sizing cost (regression: charged per iteration) --

TEST(ParallelRate, SizingCostIsChargedWithPerIterationSizes) {
  const Image img = synth::photographic(96, 80, 3, 79);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.levels = 3;
  p.rate = 0.1;

  // One SPE, zero PPE helper threads: every sizing pass is a serial walk
  // over that iteration's part bytes, so the charge is hand-computable from
  // the scan ledger.
  cellenc::CellEncoder enc(config(1, 0));
  const auto res = enc.encode(img, p);

  const auto& scan = res.rate_stats.scan_iterations;
  ASSERT_EQ(static_cast<int>(scan.size()), res.rate_stats.iterations);
  ASSERT_GE(scan.size(), 1u);

  const cell::CostParams cp;  // the encoder ran on the default cost model
  const double hz = cp.clock_hz;
  jp2k::Tile skel = jp2k::build_tile(img, p);
  const double nblocks =
      static_cast<double>(jp2k::tile_block_count(skel));
  const double layers = 1.0;  // single-layer: reset charge is 4 + layers

  double expected_spe = 0.0;
  double expected_scan = 0.0;
  for (const auto& rec : scan) {
    expected_spe += static_cast<double>(rec.sized_bytes) *
                    cp.spe_t2_cycles_per_byte / hz;
    expected_scan +=
        (nblocks * (4.0 + layers) +
         static_cast<double>(rec.segments_consumed) *
             cp.ppe_rate_scan_cycles_per_seg) /
        hz;
  }
  const double expected_ppe =
      static_cast<double>(res.rate_stats.hull_points) *
          cp.ppe_merge_cycles_per_seg / hz +
      expected_scan;

  const cell::StageTiming* rate = nullptr;
  for (const auto& s : res.stages) {
    if (s.name == "rate") rate = &s;
  }
  ASSERT_NE(rate, nullptr);
  EXPECT_NEAR(rate->spe_compute, expected_spe, expected_spe * 1e-9);
  EXPECT_NEAR(rate->ppe, expected_ppe, expected_ppe * 1e-9);
  // Overlapping hides part of that charge: seconds + overlap_saved is the
  // phase-ordered ppe + spe_compute.
  const double rate_phase = rate->ppe + rate->spe_compute;
  EXPECT_NEAR(rate->seconds + rate->overlap_saved, rate_phase,
              rate_phase * 1e-9);
}

TEST(ParallelRate, HullConstructionHidesUnderTier1) {
  const Image img = synth::photographic(256, 256, 3, 73);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.rate = 0.1;

  for (int spes : {4, 16}) {
    cellenc::CellEncoder enc(config(spes, 2));
    const auto res = enc.encode(img, p);
    // Fusing the hull builds onto the Tier-1 queue must absorb most of
    // their serial cost into idle worker time.
    EXPECT_GT(res.hull_serial_seconds, 0.0) << spes;
    EXPECT_LT(res.hull_extra_seconds, res.hull_serial_seconds * 0.5) << spes;
  }
}

}  // namespace
}  // namespace cj2k
