// The front memo (DESIGN.md §13): a CellEncoder keys the simulated timings
// of each tile front's read, level shift + MCT, DWT and quant stages by
// everything they read, and on a hit runs jp2k::build_front on main memory
// and charges the stored timings.  A hit must agree with a counted front on
// every StageTiming field but wall time, on simulated seconds and on the
// codestream; audited and traced runs must count even on a warm encoder.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cellenc/pipeline.hpp"
#include "cellenc/stage_tile.hpp"
#include "common/rng.hpp"
#include "encode_draw.hpp"
#include "image/synth.hpp"
#include "jp2k/tile_grid.hpp"

namespace cj2k {
namespace {

using test::config;
using test::Draw;
using test::make_draw;

constexpr int kShards = 4;
constexpr int kDrawsPerShard = 10;

/// Every field of two stage ledgers but wall_seconds.
void expect_same_stages(const std::vector<cell::StageTiming>& a,
                        const std::vector<cell::StageTiming>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const cell::StageTiming& x = a[i];
    const cell::StageTiming& y = b[i];
    const std::string at = what + " stage " + x.name;
    EXPECT_EQ(x.name, y.name) << at;
    EXPECT_EQ(x.spe_compute, y.spe_compute) << at;
    EXPECT_EQ(x.spe_dma, y.spe_dma) << at;
    EXPECT_EQ(x.dma_aggregate, y.dma_aggregate) << at;
    EXPECT_EQ(x.ppe, y.ppe) << at;
    EXPECT_EQ(x.seconds, y.seconds) << at;
    EXPECT_EQ(x.overlap_saved, y.overlap_saved) << at;
    EXPECT_EQ(x.dma_overlap_saved, y.dma_overlap_saved) << at;
    EXPECT_EQ(x.dma_bytes, y.dma_bytes) << at;
    EXPECT_EQ(x.stall.busy, y.stall.busy) << at;
    EXPECT_EQ(x.stall.dma_wait, y.stall.dma_wait) << at;
    EXPECT_EQ(x.stall.queue_empty, y.stall.queue_empty) << at;
    EXPECT_EQ(x.stall.ppe_serial, y.stall.ppe_serial) << at;
    EXPECT_EQ(x.stall.channel_stall, y.stall.channel_stall) << at;
  }
}

void expect_same_run(const cellenc::PipelineResult& a,
                     const cellenc::PipelineResult& b,
                     const std::string& what) {
  expect_same_stages(a.stages, b.stages, what);
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds) << what;
  EXPECT_EQ(a.dma_bytes, b.dma_bytes) << what;
  EXPECT_EQ(a.t1_symbols, b.t1_symbols) << what;
  EXPECT_EQ(a.codestream, b.codestream) << what;
}

/// The draw encoded with no memo at all: every tile front counts.
cellenc::PipelineResult counted(const Draw& d, const Image& img) {
  const jp2k::TileGrid grid = jp2k::TileGrid::plan(
      img.width(), img.height(), d.params.tiles_x, d.params.tiles_y);
  if (grid.num_tiles() > 1) {
    cell::Machine m(config(d.spes, d.ppes));
    return cellenc::encode_tiled(m, img, d.params, d.opt, grid);
  }
  cellenc::CellEncoder enc(config(d.spes, d.ppes));
  return enc.encode(img, d.params, d.opt);
}

class FrontMemo : public ::testing::TestWithParam<int> {};

TEST_P(FrontMemo, HitAgreesWithCountedFrontOnEveryTimingField) {
  const int shard = GetParam();
  Rng rng(0xF007'3E30ull + static_cast<std::uint64_t>(shard) * 104729);
  for (int draw = 0; draw < kDrawsPerShard; ++draw) {
    const Draw d = make_draw(
        rng, 9000 + static_cast<std::uint64_t>(shard * kDrawsPerShard +
                                               draw));
    const Image img = synth::photographic(d.width, d.height, 3, d.image_seed);
    const std::string what = "shard=" + std::to_string(shard) +
                             " draw=" + std::to_string(draw) + " " +
                             d.describe();
    const cellenc::PipelineResult ref = counted(d, img);
    ASSERT_EQ(ref.front_memo_hits, 0u) << what;

    cellenc::CellEncoder enc(config(d.spes, d.ppes));
    const auto first = enc.encode(img, d.params, d.opt);
    const auto second = enc.encode(img, d.params, d.opt);
    ASSERT_EQ(second.front_memo_hits, second.tiles) << what;
    expect_same_run(first, ref, "first " + what);
    expect_same_run(second, ref, "second " + what);
    EXPECT_EQ(second.wall_metrics().at("wall.front_memo_hits"),
              static_cast<double>(second.tiles))
        << what;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, FrontMemo, ::testing::Range(0, kShards));

/// Chrome JSON of a run's trace (deterministic for a deterministic run).
std::string trace_json(const cellenc::PipelineResult& r) {
  std::ostringstream os;
  r.trace->write_chrome_json(os);
  return os.str();
}

// The audit ledger and the trace's per-SPE spans describe the counted
// stages, so a warm encoder must count when either is on and record
// exactly what a cold encoder records.
TEST(FrontMemoCounts, AuditAndTraceOnAWarmEncoderMatchAColdOne) {
  const Image img = synth::photographic(150, 94, 3, 77);
  for (const bool lossy : {false, true}) {
    for (const int tiles : {1, 2}) {
      jp2k::CodingParams p;
      p.levels = 3;
      p.tiles_x = p.tiles_y = tiles;
      if (lossy) {
        p.wavelet = jp2k::WaveletKind::kIrreversible97;
        p.rate = 0.2;
      }
      const std::string what = std::string(lossy ? "lossy" : "lossless") +
                               " tiles=" + std::to_string(tiles);
      cellenc::PipelineOptions audited;
      audited.audit.enabled = true;
      cellenc::PipelineOptions traced;
      traced.trace.enabled = true;

      cellenc::CellEncoder warm(config(8, 1));
      warm.encode(img, p);
      ASSERT_EQ(warm.encode(img, p).front_memo_hits,
                static_cast<std::size_t>(tiles * tiles))
          << what;
      const auto warm_audit = warm.encode(img, p, audited);
      const auto warm_trace = warm.encode(img, p, traced);
      EXPECT_EQ(warm_audit.front_memo_hits, 0u) << what;
      EXPECT_EQ(warm_trace.front_memo_hits, 0u) << what;

      cellenc::CellEncoder cold_a(config(8, 1));
      const auto cold_audit = cold_a.encode(img, p, audited);
      cellenc::CellEncoder cold_t(config(8, 1));
      const auto cold_trace = cold_t.encode(img, p, traced);

      ASSERT_TRUE(warm_audit.audit.enabled) << what;
      EXPECT_GT(warm_audit.audit.dma_transfers, 0u) << what;
      EXPECT_EQ(warm_audit.audit.summary(), cold_audit.audit.summary())
          << what;
      ASSERT_TRUE(warm_trace.trace && cold_trace.trace) << what;
      EXPECT_EQ(trace_json(warm_trace), trace_json(cold_trace)) << what;
      expect_same_run(warm_audit, cold_audit, "audit " + what);
      expect_same_run(warm_trace, cold_trace, "trace " + what);
    }
  }
}

// Each input the front stages read is in the key: changing one misses,
// and the counted run it falls back to matches a cold encoder's.
TEST(FrontMemoCounts, ChangingAnyKeyedInputMisses) {
  const Image img = synth::photographic(96, 70, 3, 5);
  jp2k::CodingParams base;
  base.levels = 3;
  base.wavelet = jp2k::WaveletKind::kIrreversible97;
  base.rate = 0.3;
  struct Variant {
    const char* name;
    jp2k::CodingParams p;
    cellenc::PipelineOptions opt;
  };
  std::vector<Variant> variants(6, Variant{"", base, {}});
  variants[0].name = "levels";
  variants[0].p.levels = 2;
  variants[1].name = "mct";
  variants[1].p.mct = false;
  variants[2].name = "base step";
  variants[2].p.base_quant_step = 1.0 / 8.0;
  variants[3].name = "fixed point";
  variants[3].p.fixed_point_97 = true;
  variants[4].name = "colgroup";
  variants[4].opt.dwt.colgroup_elems = 24;
  variants[5].name = "multipass";
  variants[5].opt.dwt.merged_vertical = false;

  cellenc::CellEncoder enc(config(3, 1));
  enc.encode(img, base);
  for (const Variant& v : variants) {
    const auto res = enc.encode(img, v.p, v.opt);
    EXPECT_EQ(res.front_memo_hits, 0u) << v.name;
    cellenc::CellEncoder cold(config(3, 1));
    expect_same_run(res, cold.encode(img, v.p, v.opt), v.name);
  }
  // A grey image of the same geometry is keyed apart from the colour one.
  const Image grey = synth::photographic(96, 70, 1, 5);
  EXPECT_EQ(enc.encode(grey, base).front_memo_hits, 0u);
  EXPECT_EQ(enc.encode(img, base).front_memo_hits, 1u);
}

// The memo holds a bounded number of fronts: the oldest goes first.
TEST(FrontMemoCounts, EvictsTheOldestFrontWhenFull) {
  jp2k::CodingParams p;
  p.levels = 2;
  cellenc::CellEncoder enc(config(1, 1));
  for (std::size_t w = 32; w < 32 + 17; ++w) {
    enc.encode(synth::photographic(w, 24, 1, 1), p);
  }
  EXPECT_EQ(enc.encode(synth::photographic(48, 24, 1, 1), p).front_memo_hits,
            1u);
  EXPECT_EQ(enc.encode(synth::photographic(32, 24, 1, 1), p).front_memo_hits,
            0u);
}

}  // namespace
}  // namespace cj2k
