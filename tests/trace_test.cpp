// Event-trace + metrics tests (DESIGN.md §11): tracing must be a pure
// observer (byte- and timing-identical runs), deterministic, schema-sound
// (flow pairing, required keys), and its stall attribution must account
// for every simulated second.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "cell/metrics.hpp"
#include "cell/trace.hpp"
#include "cellenc/pipeline.hpp"
#include "image/synth.hpp"

namespace cj2k {
namespace {

cell::MachineConfig config(int spes, int ppes = 1, int chips = 1) {
  cell::MachineConfig cfg;
  cfg.num_spes = spes;
  cfg.num_ppe_threads = ppes;
  cfg.chips = chips;
  return cfg;
}

jp2k::CodingParams lossy_params() {
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.levels = 3;
  p.rate = 0.1;
  return p;
}

std::string export_json(const cellenc::PipelineResult& res) {
  std::ostringstream os;
  res.trace->write_chrome_json(os, &res.metrics);
  return os.str();
}

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// --- The observer property: tracing changes nothing it observes. ----------

TEST(Trace, EncodeIsByteAndTimingIdenticalWithTracingOn) {
  const Image img = synth::photographic(160, 128, 3, 77);
  for (bool lossy : {false, true}) {
    jp2k::CodingParams p;
    if (lossy) p = lossy_params();
    cellenc::PipelineOptions off;
    cellenc::PipelineOptions on;
    on.trace.enabled = true;

    cellenc::CellEncoder enc_off(config(4));
    cellenc::CellEncoder enc_on(config(4));
    const auto r_off = enc_off.encode(img, p, off);
    const auto r_on = enc_on.encode(img, p, on);

    EXPECT_EQ(r_off.codestream, r_on.codestream) << "lossy=" << lossy;
    EXPECT_EQ(r_off.simulated_seconds, r_on.simulated_seconds)
        << "lossy=" << lossy;  // exact: recording never touches counters
    ASSERT_EQ(r_off.stages.size(), r_on.stages.size());
    for (std::size_t i = 0; i < r_off.stages.size(); ++i) {
      EXPECT_EQ(r_off.stages[i].seconds, r_on.stages[i].seconds)
          << r_off.stages[i].name;
    }
    EXPECT_EQ(r_off.trace, nullptr);
    ASSERT_NE(r_on.trace, nullptr);
    EXPECT_GT(r_on.trace->total_events(), 0u);
  }
}

TEST(Trace, OffByDefaultAndMetricsStillFilled) {
  const Image img = synth::photographic(96, 96, 1, 78);
  jp2k::CodingParams p;
  p.mct = false;
  cellenc::CellEncoder enc(config(2));
  const auto res = enc.encode(img, p);
  EXPECT_EQ(res.trace, nullptr);
  EXPECT_FALSE(res.metrics.empty());
  EXPECT_DOUBLE_EQ(res.metrics.get("sim.seconds"), res.simulated_seconds);
  EXPECT_FALSE(res.metrics.has("trace.events"));
}

// --- Determinism: same config → byte-identical export. --------------------

TEST(Trace, ExportIsDeterministicAcrossRuns) {
  const Image img = synth::photographic(128, 96, 3, 79);
  const jp2k::CodingParams p = lossy_params();
  cellenc::PipelineOptions opt;
  opt.trace.enabled = true;

  std::string first;
  for (int run = 0; run < 2; ++run) {
    cellenc::CellEncoder enc(config(3));
    const auto res = enc.encode(img, p, opt);
    const std::string json = export_json(res);
    if (run == 0) {
      first = json;
    } else {
      EXPECT_EQ(first, json);
    }
  }
  EXPECT_FALSE(first.empty());
}

// --- Schema: required keys, named tracks, flow pairing. -------------------

TEST(Trace, ExportCarriesSchemaRequiredKeys) {
  const Image img = synth::photographic(128, 96, 3, 80);
  cellenc::PipelineOptions opt;
  opt.trace.enabled = true;
  cellenc::CellEncoder enc(config(3));
  const auto res = enc.encode(img, lossy_params(), opt);
  const std::string json = export_json(res);

  EXPECT_NE(json.find("\"traceEvents\":"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"cj2k_metrics\":"), std::string::npos);
  // One thread_name metadata record per track: driver + 3 SPEs + 1 PPE.
  EXPECT_EQ(count_of(json, "\"name\":\"thread_name\""), 5u);
  EXPECT_NE(json.find("\"pipeline\""), std::string::npos);
  EXPECT_NE(json.find("\"SPE 0\""), std::string::npos);
  EXPECT_NE(json.find("\"PPE 0\""), std::string::npos);
  // Every event line carries the required keys (events are one per line).
  EXPECT_EQ(count_of(json, "\"ph\":"),
            count_of(json, "\"tid\":"));
  EXPECT_EQ(count_of(json, "\"ph\":"),
            count_of(json, "\"pid\":"));
  // Every event has a name (thread_name metadata also carries one in args,
  // so name keys outnumber events by exactly the track count).
  EXPECT_EQ(count_of(json, "\"ph\":") + 5u,
            count_of(json, "\"name\":"));
}

TEST(Trace, EveryDmaIssueGroupFlowIsRetiredExactlyOnce) {
  const Image img = synth::photographic(160, 128, 3, 81);
  cellenc::PipelineOptions opt;
  opt.trace.enabled = true;
  for (bool lossy : {false, true}) {
    jp2k::CodingParams p;
    if (lossy) p = lossy_params();
    cellenc::CellEncoder enc(config(4));
    const auto res = enc.encode(img, p, opt);
    const std::string json = export_json(res);
    const std::size_t begins = count_of(json, "\"ph\":\"s\"");
    const std::size_t ends = count_of(json, "\"ph\":\"f\"");
    EXPECT_GT(begins, 0u) << "lossy=" << lossy;
    EXPECT_EQ(begins, ends) << "lossy=" << lossy;
  }
}

// --- Stall attribution accounts for every simulated second. ---------------

TEST(Trace, StallComponentsSumToStageSecondsAndSimulatedTotal) {
  const Image img = synth::photographic(160, 128, 3, 82);
  for (int spes : {1, 4, 8}) {
    cellenc::CellEncoder enc(config(spes));
    const auto res = enc.encode(img, lossy_params());
    double total = 0.0;
    for (const auto& s : res.stages) {
      EXPECT_NEAR(s.stall.sum(), s.seconds, 1e-12 * std::max(1.0, s.seconds))
          << s.name << " spes=" << spes;
      EXPECT_GE(s.stall.busy, 0.0) << s.name;
      EXPECT_GE(s.stall.dma_wait, 0.0) << s.name;
      EXPECT_GE(s.stall.queue_empty, -1e-15) << s.name;
      EXPECT_GE(s.stall.ppe_serial, 0.0) << s.name;
      EXPECT_GE(s.stall.channel_stall, -1e-15) << s.name;
      total += s.stall.sum();
    }
    // Single tile: stage seconds (hence their stalls) sum to the total.
    EXPECT_NEAR(total, res.simulated_seconds, 1e-9 * res.simulated_seconds);
  }
}

TEST(Trace, SerialBaselineTailIsAllPpeSerial) {
  const Image img = synth::photographic(128, 96, 3, 83);
  cellenc::PipelineOptions opt;
  opt.parallel_lossy_tail = false;
  opt.trace.enabled = true;
  // One tile, and a 2x2 grid whose serial tail runs after the tile waves.
  for (const std::size_t grid : {1u, 2u}) {
    jp2k::CodingParams p = lossy_params();
    p.tiles_x = grid;
    p.tiles_y = grid;
    cellenc::CellEncoder enc(config(4));
    const auto res = enc.encode(img, p, opt);
    for (const auto& s : res.stages) {
      if (s.name == "rate" || s.name == "t2") {
        EXPECT_DOUBLE_EQ(s.stall.ppe_serial, s.seconds) << s.name << grid;
        EXPECT_DOUBLE_EQ(s.stall.busy, 0.0) << s.name << grid;
      }
    }
    const std::string json = export_json(res);
    EXPECT_EQ(count_of(json, "\"name\":\"rate (ppe serial)\""), 1u) << grid;
    EXPECT_EQ(count_of(json, "\"name\":\"t2 (ppe serial)\""), 1u) << grid;
  }
}

TEST(Trace, DerivedMetricsMatchStageLedger) {
  const Image img = synth::photographic(128, 96, 3, 84);
  cellenc::PipelineOptions opt;
  opt.trace.enabled = true;
  cellenc::CellEncoder enc(config(4));
  const auto res = enc.encode(img, lossy_params(), opt);
  for (const auto& s : res.stages) {
    const std::string p = "stage." + s.name + ".";
    EXPECT_DOUBLE_EQ(res.metrics.get(p + "seconds"), s.seconds) << s.name;
    EXPECT_DOUBLE_EQ(res.metrics.get(p + "stall.busy"), s.stall.busy)
        << s.name;
    if (s.seconds > 0) {
      EXPECT_DOUBLE_EQ(res.metrics.get(p + "occupancy"),
                       s.stall.busy / s.seconds)
          << s.name;
    }
  }
  EXPECT_DOUBLE_EQ(res.metrics.get("trace.events"),
                   static_cast<double>(res.trace->total_events()));
}

// --- Multi-tile: tracing rides the tiled path too. ------------------------

TEST(Trace, TiledEncodeTracesAndStaysByteIdentical) {
  const Image img = synth::photographic(192, 160, 3, 85);
  jp2k::CodingParams p;
  p.tiles_x = 2;
  p.tiles_y = 2;
  cellenc::PipelineOptions off;
  cellenc::PipelineOptions on;
  on.trace.enabled = true;
  cellenc::CellEncoder enc_off(config(8));
  cellenc::CellEncoder enc_on(config(8));
  const auto r_off = enc_off.encode(img, p, off);
  const auto r_on = enc_on.encode(img, p, on);
  EXPECT_EQ(r_off.codestream, r_on.codestream);
  EXPECT_EQ(r_off.simulated_seconds, r_on.simulated_seconds);
  ASSERT_NE(r_on.trace, nullptr);
  const std::string json = export_json(r_on);
  EXPECT_EQ(count_of(json, "\"name\":\"tile wave finish\""), 4u);
  EXPECT_EQ(count_of(json, "\"ph\":\"s\""), count_of(json, "\"ph\":\"f\""));
}

// --- Unit: MetricsRegistry. -----------------------------------------------

TEST(Metrics, RegistrySetIncGetAndSortedJson) {
  cell::MetricsRegistry mr;
  EXPECT_TRUE(mr.empty());
  mr.set("b.two", 2.0);
  mr.set("a.one", 1.5);
  mr.inc("b.two", 0.5);
  EXPECT_EQ(mr.size(), 2u);
  EXPECT_DOUBLE_EQ(mr.get("a.one"), 1.5);
  EXPECT_DOUBLE_EQ(mr.get("b.two"), 2.5);
  EXPECT_DOUBLE_EQ(mr.get("absent"), 0.0);
  EXPECT_TRUE(mr.has("a.one"));
  EXPECT_FALSE(mr.has("absent"));
  // Keys serialize sorted, so the export is deterministic.
  EXPECT_EQ(mr.to_json(), "{\"a.one\":1.5,\"b.two\":2.5}");
}

TEST(Metrics, NonFiniteValuesClampToZeroInJson) {
  cell::MetricsRegistry mr;
  mr.set("bad.nan", std::nan(""));
  mr.set("bad.inf", HUGE_VAL);
  EXPECT_EQ(mr.to_json(), "{\"bad.inf\":0,\"bad.nan\":0}");
}

// --- Unit: TraceRing overflow + DmaTraceLog pairing. ----------------------

TEST(TraceRing, OverflowDropsOldestAndCounts) {
  cell::TraceRing ring(4);
  for (int i = 0; i < 10; ++i) {
    cell::TraceEvent e;
    e.ts = i;
    ring.push(std::move(e));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  const auto ordered = ring.ordered();
  ASSERT_EQ(ordered.size(), 4u);
  EXPECT_DOUBLE_EQ(ordered.front().ts, 6.0);  // oldest surviving
  EXPECT_DOUBLE_EQ(ordered.back().ts, 9.0);
}

TEST(DmaTraceLog, ResetClosesOpenGroupsSoFlowsAlwaysPair) {
  cell::DmaTraceLog log;
  log.on_issue(0, 1024, /*is_get=*/true, /*fenced=*/false);
  log.on_issue(0, 1024, true, false);   // coalesces into the same group
  log.on_issue(1, 512, false, true);
  log.on_reset();                       // kernel exit with tags in flight
  const auto& ops = log.ops();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].kind, cell::DmaTraceLog::Op::Kind::kIssueGroup);
  EXPECT_EQ(ops[0].transfers, 2u);
  EXPECT_EQ(ops[0].bytes, 2048u);
  EXPECT_EQ(ops[2].kind, cell::DmaTraceLog::Op::Kind::kWait);
  EXPECT_STREQ(ops[2].wait_kind, "exit");
  ASSERT_EQ(ops[2].retired.size(), 2u);  // both groups closed exactly once
}

TEST(Trace, RingCapacityOverflowIsReportedInExport) {
  const Image img = synth::photographic(128, 96, 3, 86);
  cellenc::PipelineOptions opt;
  opt.trace.enabled = true;
  opt.trace.ring_capacity = 64;  // force overflow on the busy tracks
  cellenc::CellEncoder enc(config(2));
  const auto res = enc.encode(img, lossy_params(), opt);
  ASSERT_NE(res.trace, nullptr);
  EXPECT_GT(res.trace->dropped_events(), 0u);
  const std::string json = export_json(res);
  EXPECT_NE(json.find("\"cj2k_dropped_events\":"), std::string::npos);
}

TEST(Trace, JsonEscapeHandlesQuotesAndControlChars) {
  EXPECT_EQ(cell::trace_json_escape("plain"), "plain");
  EXPECT_EQ(cell::trace_json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(cell::trace_json_escape(std::string("x\ny")), "x\\ny");
}

}  // namespace
}  // namespace cj2k
