// Event-level pipeline tracing (DESIGN.md §11).
//
// The machine model composes *aggregate* stage timings from op counters;
// this subsystem reconstructs the event-level timeline behind those
// aggregates: per-SPE kernel execution spans, tagged-DMA issue/wait flows
// with the hidden-vs-exposed latency split, PPE serial sections, work-queue
// block spans and dequeue gaps, completion-channel stalls, and tile-wave
// boundaries.  Events land on per-worker bounded rings (single writer per
// track, no locks — the recording path is the worker's own host thread or
// the post-compose finalizer on the driver thread) and export as Chrome
// trace-event JSON (chrome://tracing / Perfetto): one track per SPE/PPE
// thread plus a driver track, flow arrows linking each DMA tag-group's
// issue to the wait that retired it.
//
// Timestamps are *simulated* seconds on the recorder's virtual clock, so a
// trace is deterministic across runs and host machines.  Within one stage,
// a worker's DMA ops are placed in program order at evenly spaced offsets
// across that worker's busy span — a deterministic reconstruction (the
// counter model has no intra-stage timestamps), documented as such in the
// schema.
//
// Tracing is strictly opt-in: a null recorder pointer is the zero-overhead
// default, and recording never touches the op counters, so simulated time
// and encoded bytes are bit-identical with tracing on or off.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace cj2k::cell {

class MetricsRegistry;

/// Tracing knobs carried by PipelineOptions (off by default).
struct TraceConfig {
  bool enabled = false;
  /// Per-track event capacity; the oldest events are overwritten when a
  /// track overflows (dropped counts are reported in the export).
  std::size_t ring_capacity = 1 << 16;
};

/// One trace event.  `args` is a preformatted JSON object body
/// ("\"k\":1,\"s\":\"x\"", no braces) appended verbatim to the exported
/// event's args object; empty means no args.
struct TraceEvent {
  enum class Phase : std::uint8_t {
    kSpan,       ///< Complete slice ("X"): ts + dur.
    kInstant,    ///< Instant ("i") at ts.
    kFlowBegin,  ///< Flow start ("s") at ts, arrow drawn to the matching end.
    kFlowEnd,    ///< Flow end ("f") at ts.
  };
  Phase phase = Phase::kInstant;
  std::uint16_t track = 0;
  const char* cat = "misc";
  std::string name;
  double ts = 0;        ///< Simulated seconds.
  double dur = 0;       ///< Simulated seconds (spans only).
  std::uint64_t flow_id = 0;
  std::string args;
};

/// Bounded single-writer ring of trace events.  Overflow overwrites the
/// oldest event (classic flight-recorder semantics) and counts the drop.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity) : capacity_(capacity) {}

  void push(TraceEvent e);

  /// Events in record order (oldest surviving first).
  std::vector<TraceEvent> ordered() const;

  std::size_t size() const { return events_.size(); }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<TraceEvent> events_;
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< Next overwrite position once saturated.
  std::uint64_t dropped_ = 0;
};

/// Staging log a DmaEngine writes tagged/synchronous transfer activity
/// into while a kernel runs (one log per SPE, written only by the
/// host-pool task running that SPE).  Issues on one tag coalesce into a
/// single *tag group* record until a wait retires the tag, which keeps the
/// log (and the exported flow arrows) at tag-group granularity rather than
/// per-transfer — the double-buffer idiom emits two groups per wait, not
/// thousands of events.  The machine time-stamps and drains the log after
/// the stage's timing is composed.
class DmaTraceLog {
 public:
  static constexpr unsigned kNumTags = 32;

  struct Op {
    enum class Kind : std::uint8_t {
      kIssueGroup,  ///< First issue on a tag since it was last retired.
      kSync,        ///< Run of synchronous (blocking) transfers.
      kWait,        ///< Wait that retired one or more tag groups.
    };
    Kind kind = Kind::kSync;
    unsigned tag = 0;
    bool is_get = false;  ///< Direction of the run's first transfer.
    bool fenced = false;
    std::uint32_t transfers = 0;
    std::uint64_t bytes = 0;
    const char* wait_kind = nullptr;        ///< kWait only.
    std::vector<std::uint32_t> retired;     ///< kWait: op indices closed.
  };

  void on_issue(unsigned tag, std::size_t bytes, bool is_get, bool fenced);
  void on_sync(std::size_t bytes, bool is_get);
  /// `retired_mask` bits name tags whose in-flight groups this wait
  /// completes; `kind` is the engine call ("wait_tag", "wait_all", ...).
  void on_wait(std::uint32_t retired_mask, const char* kind);
  /// Tag-state reset (kernel epilogue / stage prologue): closes any still
  /// open groups so every issue group pairs with exactly one wait.
  void on_reset();
  void clear();

  const std::vector<Op>& ops() const { return ops_; }

 private:
  std::vector<Op> ops_;
  /// Per-tag index of the open kIssueGroup op (-1 = none in flight).
  std::array<std::int32_t, kNumTags> open_{[] {
    std::array<std::int32_t, kNumTags> a{};
    a.fill(-1);
    return a;
  }()};
  std::int32_t open_sync_ = -1;  ///< Index of the trailing kSync run.
};

/// The per-run trace: one ring per track (driver + SPEs + PPE threads),
/// the virtual clock the pipeline advances stage by stage, and the
/// Chrome-JSON exporter.  Track writers never share a ring: SPE-thread
/// writes go to that SPE's DmaTraceLog during the kernel, and all ring
/// pushes happen on the driver thread after the stage joins.
class TraceRecorder {
 public:
  TraceRecorder(int num_spes, int num_ppe_threads,
                std::size_t ring_capacity = TraceConfig{}.ring_capacity);

  int num_spes() const { return num_spes_; }
  int num_ppe_tracks() const { return num_ppe_tracks_; }

  // --- Track layout: 0 = driver ("pipeline"), 1..S = SPEs, then PPEs.
  // At least one PPE track always exists (the control PPE runs serial
  // sections even when no PPE thread joins Tier-1).
  int driver_track() const { return 0; }
  int spe_track(int spe) const { return 1 + spe; }
  int ppe_track(int t) const { return 1 + num_spes_ + t; }
  int num_tracks() const { return 1 + num_spes_ + num_ppe_tracks_; }

  // --- Virtual clock (simulated seconds since encode start).
  double clock() const { return clock_; }
  void set_clock(double t) { clock_ = t; }
  void advance_clock(double dt) { clock_ += dt; }

  // --- Emission (driver thread only; see class comment).
  void emit_span(int track, std::string name, const char* cat, double ts,
                 double dur, std::string args = {});
  void emit_instant(int track, std::string name, const char* cat, double ts,
                    std::string args = {});
  void emit_flow_begin(int track, const char* name, const char* cat,
                       double ts, std::uint64_t id);
  void emit_flow_end(int track, const char* name, const char* cat, double ts,
                     std::uint64_t id);

  /// The staging log attached to SPE `spe`'s DmaEngine while tracing.
  DmaTraceLog& dma_log(int spe) { return dma_logs_[static_cast<std::size_t>(spe)]; }

  /// Time-stamps and drains SPE `spe`'s DMA log across the busy span
  /// [t0, t0+busy]: ops are placed in program order at evenly spaced
  /// offsets, issue groups open flows, waits close them.
  void flush_dma_log(int spe, double t0, double busy);

  std::uint64_t total_events() const;
  std::uint64_t dropped_events() const;

  /// Chrome trace-event JSON: {"traceEvents":[...]} with one metadata
  /// record per track, ts/dur in microseconds, one event object per line
  /// (deterministic byte-for-byte for a deterministic event stream).
  /// `metrics`, when given, is embedded as a top-level "cj2k_metrics"
  /// object (ignored by trace viewers).
  void write_chrome_json(std::ostream& os,
                         const MetricsRegistry* metrics = nullptr) const;

 private:
  std::uint64_t flow_id(int spe, std::uint32_t op_index) const;

  int num_spes_;
  int num_ppe_tracks_;
  double clock_ = 0;
  std::vector<TraceRing> rings_;
  std::vector<DmaTraceLog> dma_logs_;
};

/// JSON string escaping for event names (quotes, backslashes, control
/// chars).  Exposed for the exporter's tests.
std::string trace_json_escape(const std::string& s);

}  // namespace cj2k::cell
