// Cell pipeline integration tests: the pipeline must produce bit-identical
// codestreams to the serial encoder, its timing must behave like the
// paper's machine, and the ablation knobs must move in the right direction.
#include <gtest/gtest.h>

#include "cellenc/muta_model.hpp"
#include "cellenc/p4_model.hpp"
#include "cellenc/pipeline.hpp"
#include "image/metrics.hpp"
#include "common/error.hpp"
#include "image/synth.hpp"
#include "jp2k/decoder.hpp"
#include "jp2k/encoder.hpp"

namespace cj2k::cellenc {
namespace {

cell::MachineConfig config(int spes, int ppes = 1, int chips = 1) {
  cell::MachineConfig cfg;
  cfg.num_spes = spes;
  cfg.num_ppe_threads = ppes;
  cfg.chips = chips;
  return cfg;
}

TEST(Pipeline, LosslessMatchesSerialEncoderBitExactly) {
  const Image img = synth::photographic(192, 160, 3, 55);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kReversible53;
  p.levels = 4;

  const auto serial = jp2k::encode(img, p);
  for (int spes : {0, 1, 3, 8}) {
    CellEncoder enc(config(spes));
    const auto res = enc.encode(img, p);
    EXPECT_EQ(res.codestream, serial) << spes << " SPEs";
  }
}

// The pipeline accepts exactly the serial encoder's parameter domain: HT
// with quality layers and a code block narrower than 4 throw at entry, on
// the single-tile and the tiled path alike.
TEST(Pipeline, RejectsParametersTheSerialEncoderRejects) {
  const Image img = synth::photographic(64, 48, 3, 57);
  jp2k::CodingParams ht_layers;
  ht_layers.block_coder = jp2k::BlockCoder::kHt;
  ht_layers.wavelet = jp2k::WaveletKind::kIrreversible97;
  ht_layers.rate = 0.25;
  ht_layers.layers = 2;
  jp2k::CodingParams narrow_blocks;
  narrow_blocks.cb_width = 3;
  for (const auto& p : {ht_layers, narrow_blocks}) {
    EXPECT_THROW(jp2k::encode(img, p), InvalidArgument);
    for (const std::size_t tiles : {1, 2}) {
      jp2k::CodingParams tp = p;
      tp.tiles_x = tp.tiles_y = tiles;
      CellEncoder enc(config(8));
      EXPECT_THROW(enc.encode(img, tp), InvalidArgument) << tiles;
    }
  }
}

TEST(Pipeline, LossyMatchesSerialEncoderBitExactly) {
  const Image img = synth::photographic(160, 128, 3, 56);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.levels = 3;
  p.rate = 0.1;

  const auto serial = jp2k::encode(img, p);
  for (int spes : {1, 8}) {
    CellEncoder enc(config(spes));
    const auto res = enc.encode(img, p);
    EXPECT_EQ(res.codestream, serial) << spes << " SPEs";
  }
}

TEST(Pipeline, MultipassDwtProducesSameBitsSlower) {
  const Image img = synth::photographic(192, 160, 1, 57);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kReversible53;
  p.mct = false;

  CellEncoder enc(config(8));
  DwtOptions merged, multi;
  multi.merged_vertical = false;
  const auto r_merged = enc.encode(img, p, merged);
  const auto r_multi = enc.encode(img, p, multi);
  EXPECT_EQ(r_merged.codestream, r_multi.codestream);
  // The naive schedule moves ~2x the DWT bytes (3 passes vs 1.5).
  EXPECT_GT(r_multi.dma_bytes, r_merged.dma_bytes * 5 / 4);
  EXPECT_GE(r_multi.stage_seconds("dwt"), r_merged.stage_seconds("dwt"));
}

TEST(Pipeline, DecodesCorrectly) {
  const Image img = synth::photographic(128, 96, 3, 58);
  jp2k::CodingParams p;
  CellEncoder enc(config(4));
  const auto res = enc.encode(img, p);
  EXPECT_TRUE(metrics::identical(img, jp2k::decode(res.codestream)));
}

TEST(Pipeline, SimulatedTimeScalesWithSpes) {
  const Image img = synth::photographic(256, 256, 3, 59);
  jp2k::CodingParams p;

  // The paper's Fig-4 scaling curve: N SPEs, PPE not in Tier-1 (the +PPE
  // variants are separate bars).
  double prev = 1e300;
  for (int spes : {1, 2, 4, 8}) {
    CellEncoder enc(config(spes, /*ppes=*/0));
    const auto res = enc.encode(img, p);
    EXPECT_LT(res.simulated_seconds, prev) << spes;
    prev = res.simulated_seconds;
  }
  CellEncoder one(config(1, 0)), eight(config(8, 0));
  const double t1 = one.encode(img, p).simulated_seconds;
  const double t8 = eight.encode(img, p).simulated_seconds;
  // Paper: 6.6x on a 3172x3116 photo; a 256x256 image has bigger serial
  // tails, so demand a still-strong 4x.
  EXPECT_GT(t1 / t8, 4.0);

  // Adding PPE threads to Tier-1 gives extra speedup (the "+1 PPE" bars).
  CellEncoder eight_ppe(config(8, 1));
  EXPECT_LT(eight_ppe.encode(img, p).simulated_seconds, t8);
}

TEST(Pipeline, PpeOnlyBeatsSingleSpeOnT1ButNotOnDwt) {
  const Image img = synth::photographic(256, 256, 1, 60);
  jp2k::CodingParams p;
  p.mct = false;

  CellEncoder ppe_only(config(0, 1));
  CellEncoder one_spe(config(1, 0));
  const auto r_ppe = ppe_only.encode(img, p);
  const auto r_spe = one_spe.encode(img, p);
  // Paper, Fig 4 discussion: PPE runs branchy integer T1 faster than one
  // SPE, but one SPE crushes the PPE on the vectorized DWT.
  EXPECT_LT(r_ppe.stage_seconds("tier1"), r_spe.stage_seconds("tier1"));
  EXPECT_GT(r_ppe.stage_seconds("dwt"), r_spe.stage_seconds("dwt") * 2.0);
}

TEST(Pipeline, LossyRateStageIsSerialBottleneckAtScale) {
  // The paper's baseline: rate control fully serial on the PPE
  // (parallel_lossy_tail off reproduces that configuration).
  const Image img = synth::photographic(256, 256, 3, 61);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.rate = 0.1;
  PipelineOptions opt;
  opt.parallel_lossy_tail = false;

  CellEncoder big(config(16, 2, 2));
  const auto res = big.encode(img, p, opt);
  const double rate_share =
      res.stage_seconds("rate") / res.simulated_seconds;
  // The paper reports ~60% at 16 SPE + 2 PPE; the shape requirement is
  // "rate allocation dominates at scale".
  EXPECT_GT(rate_share, 0.3);

  CellEncoder small(config(1, 1, 1));
  const auto res_small = small.encode(img, p, opt);
  const double small_share =
      res_small.stage_seconds("rate") / res_small.simulated_seconds;
  EXPECT_LT(small_share, rate_share);
}

TEST(Pipeline, DistributedTailBreaksTheRateBottleneck) {
  // With the distributed lossy tail (the default), the rate + Tier-2 share
  // at 16 SPEs must drop far below the serial baseline's, and the
  // codestream must not change.
  const Image img = synth::photographic(256, 256, 3, 61);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.rate = 0.1;

  CellEncoder big(config(16, 2, 2));
  PipelineOptions serial_opt;
  serial_opt.parallel_lossy_tail = false;
  const auto serial = big.encode(img, p, serial_opt);
  const auto dist = big.encode(img, p);

  EXPECT_EQ(serial.codestream, dist.codestream);

  const double serial_share =
      (serial.stage_seconds("rate") + serial.stage_seconds("t2")) /
      serial.simulated_seconds;
  const double dist_share =
      (dist.stage_seconds("rate") + dist.stage_seconds("t2")) /
      dist.simulated_seconds;
  EXPECT_LT(dist_share, serial_share * 0.5);
  EXPECT_LT(dist.simulated_seconds, serial.simulated_seconds);

  // The hull construction rides the Tier-1 work queue: the T1 span may
  // grow a little, but by far less than the serial hull cost it absorbs.
  EXPECT_GT(dist.hull_serial_seconds, 0.0);
  EXPECT_LT(dist.hull_extra_seconds, dist.hull_serial_seconds * 0.5);
}

TEST(Pipeline, WorkQueueBeatsStaticDistributionOnSkewedContent) {
  // Half-flat / half-noise image: per-block cost alternates between nearly
  // free and expensive with a period that divides the worker count, which
  // is the adversarial case for round-robin ("merely distributing an
  // identical number of code blocks", §3.2).
  const Image img = synth::skewed(512, 512, 62);
  jp2k::CodingParams p;
  p.mct = false;
  CellEncoder enc(config(8, /*ppes=*/0));
  const auto r_queue = enc.encode(img, p, {}, T1Distribution::kWorkQueue);
  const auto r_static = enc.encode(img, p, {}, T1Distribution::kStatic);
  EXPECT_EQ(r_queue.codestream, r_static.codestream);
  EXPECT_LT(r_queue.stage_seconds("tier1"),
            r_static.stage_seconds("tier1") * 0.85);
}

TEST(Pipeline, TwoChipsScaleBeyondOne) {
  const Image img = synth::photographic(256, 256, 3, 63);
  jp2k::CodingParams p;
  CellEncoder one(config(8, 1, 1));
  CellEncoder two(config(16, 2, 2));
  EXPECT_LT(two.encode(img, p).simulated_seconds,
            one.encode(img, p).simulated_seconds);
}

TEST(P4Model, CellOutperformsP4WithTheRightShape) {
  const Image img = synth::photographic(256, 256, 3, 64);

  // Lossless.
  jp2k::CodingParams p;
  jp2k::EncodeStats stats;
  jp2k::encode(img, p, &stats);
  const auto p4 = p4_encode_model(img, p, stats);
  CellEncoder cellenc(config(8));
  const auto cell = cellenc.encode(img, p);
  const double overall = p4.total / cell.simulated_seconds;
  const double dwt = p4.dwt / cell.stage_seconds("dwt");
  EXPECT_GT(overall, 1.5);
  EXPECT_LT(overall, 8.0);
  EXPECT_GT(dwt, overall);  // the DWT speedup exceeds the overall one

  // Lossy: P4 runs fixed point; the DWT gap widens (paper: 9.1x -> 15x).
  jp2k::CodingParams q;
  q.wavelet = jp2k::WaveletKind::kIrreversible97;
  q.rate = 0.1;
  jp2k::EncodeStats lstats;
  jp2k::encode(img, q, &lstats);
  const auto p4l = p4_encode_model(img, q, lstats);
  const auto celll = cellenc.encode(img, q);
  const double dwt_lossy = p4l.dwt / celll.stage_seconds("dwt");
  EXPECT_GT(dwt_lossy, dwt);
}

TEST(MutaModel, OurEncoderWinsOnOneChip) {
  // The Fig-6 comparison frame: 1280x720 lossless.
  const Image img = synth::photographic(1280, 720, 3, 65);
  jp2k::CodingParams p;
  jp2k::EncodeStats stats;
  jp2k::encode(img, p, &stats);

  const auto muta0 = muta_encode_model(img, stats, 0);
  const auto muta1 = muta_encode_model(img, stats, 1);
  CellEncoder ours(config(8, 1, 1));
  const auto r = ours.encode(img, p);

  EXPECT_LT(r.simulated_seconds, muta0.total);
  EXPECT_LT(r.simulated_seconds, muta1.total);
  // And the DWT advantage specifically (Fig 8).
  EXPECT_LT(r.stage_seconds("dwt"), muta0.dwt);
}

TEST(Pipeline, StageListIsComplete) {
  const Image img = synth::photographic(96, 96, 3, 66);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.rate = 0.2;
  CellEncoder enc(config(4));
  const auto res = enc.encode(img, p);
  for (const char* name :
       {"read", "levelshift+ict", "dwt", "quant", "tier1", "rate", "t2"}) {
    EXPECT_GT(res.stage_seconds(name), 0.0) << name;
  }
  EXPECT_GT(res.t1_symbols, 0u);
  EXPECT_GT(res.dma_bytes, 0u);
  double sum = 0;
  for (const auto& s : res.stages) sum += s.seconds;
  EXPECT_DOUBLE_EQ(sum, res.simulated_seconds);
}

// Every stage also reports its host wall time, as "wall.stage.<name>" next
// to "wall.seconds", on the single-tile and tiled paths and through both
// tails; the deterministic metrics registry never sees either.
TEST(Pipeline, ReportsPerStageWallSecondsOutsideTheMetrics) {
  const Image img = synth::photographic(160, 128, 3, 67);
  jp2k::CodingParams lossless;
  jp2k::CodingParams lossy;
  lossy.wavelet = jp2k::WaveletKind::kIrreversible97;
  lossy.rate = 0.2;
  jp2k::CodingParams tiled = lossy;
  tiled.tiles_x = tiled.tiles_y = 2;
  jp2k::CodingParams tiled_lossless = lossless;
  tiled_lossless.tiles_x = 2;
  for (bool parallel_tail : {true, false}) {
    for (const jp2k::CodingParams& p :
         {lossless, lossy, tiled, tiled_lossless}) {
      PipelineOptions opt;
      opt.parallel_lossy_tail = parallel_tail;
      CellEncoder enc(config(4));
      const auto res = enc.encode(img, p, opt);
      const auto wall = res.wall_metrics();
      ASSERT_EQ(wall.size(), res.stages.size() + 1);
      EXPECT_EQ(wall.at("wall.seconds"), res.wall_seconds);
      double stage_sum = 0;
      for (const auto& s : res.stages) {
        EXPECT_EQ(wall.at("wall.stage." + s.name), s.wall_seconds);
        EXPECT_GE(s.wall_seconds, 0.0) << s.name;
        stage_sum += s.wall_seconds;
      }
      EXPECT_GT(res.stages.front().wall_seconds, 0.0);
      EXPECT_GT(res.stages.back().wall_seconds, 0.0);
      // The stage calls are disjoint pieces of the timed encode.
      EXPECT_LE(stage_sum, res.wall_seconds * (1 + 1e-9));
      for (const auto& kv : res.metrics.all()) {
        EXPECT_NE(kv.first.rfind("wall.", 0), 0u) << kv.first;
      }
    }
  }
}


TEST(Pipeline, FixedPointLossyMatchesSerialBitExactly) {
  const Image img = synth::photographic(160, 128, 3, 67);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.fixed_point_97 = true;
  p.rate = 0.2;
  const auto serial = jp2k::encode(img, p);
  for (int spes : {1, 8}) {
    CellEncoder enc(config(spes));
    EXPECT_EQ(enc.encode(img, p).codestream, serial) << spes;
  }
}

TEST(Pipeline, FixedPointDwtIsSlowerOnTheSpeThanFloat) {
  // The paper's §4 decision: on the SPE the emulated 4-byte multiplies make
  // the fixed-point 9/7 materially slower than the float 9/7.
  const Image img = synth::photographic(256, 256, 1, 68);
  jp2k::CodingParams pf;
  pf.wavelet = jp2k::WaveletKind::kIrreversible97;
  pf.mct = false;
  jp2k::CodingParams px = pf;
  px.fixed_point_97 = true;

  CellEncoder enc(config(1, 0));
  const auto rf = enc.encode(img, pf);
  const auto rx = enc.encode(img, px);
  // Compare SPE *compute* (the paper's argument is about issue slots; at
  // one SPE the stage can be DMA-bound, which hides compute in the
  // composed time).
  const auto dwt_compute = [](const PipelineResult& r) {
    double s = 0;
    for (const auto& st : r.stages) {
      if (st.name == "dwt") s = st.spe_compute;
    }
    return s;
  };
  // The raw lifting sweep is ~1.55x (Table 1 bench); blended with the
  // shared loads/shuffles/deinterleave the whole-stage gap lands ~1.2x.
  EXPECT_GT(dwt_compute(rx), dwt_compute(rf) * 1.15);
  // The composed stage time still should not be faster in fixed point.
  EXPECT_GE(rx.stage_seconds("dwt") * 1.05, rf.stage_seconds("dwt"));
}


TEST(Pipeline, MultiLayerMatchesSerialBitExactly) {
  const Image img = synth::photographic(160, 128, 3, 69);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.rate = 0.25;
  p.layers = 4;
  const auto serial = jp2k::encode(img, p);
  CellEncoder enc(config(8));
  const auto res = enc.encode(img, p);
  EXPECT_EQ(res.codestream, serial);
  // Progressive decode works on the pipeline's output too.
  EXPECT_GT(metrics::psnr(img, jp2k::decode(res.codestream, 4)),
            metrics::psnr(img, jp2k::decode(res.codestream, 1)));
}

}  // namespace
}  // namespace cj2k::cellenc
