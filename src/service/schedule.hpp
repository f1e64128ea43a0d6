// Deterministic virtual-time replay of the encode service's lease/steal
// schedule (DESIGN.md §12).
//
// The service runs real encodes one at a time, each over the host pool;
// *when* each job's work occupies the shared SPE pool in simulated time —
// where jobs do overlap — is decided here, the same split cellenc uses
// everywhere (real kernels, virtual clock).  Each job is a list of
// {pool, serial} items — one per tile, at lease-group width, straight from
// PipelineResult::tile_items — plus an optional barrier tail (the lossy
// rate/Tier-2 phase, which only becomes runnable once every tile item has
// completed).  The replay is an event simulation over G identical lease
// groups and P serial PPE slots:
//
//   * Admission is FIFO by arrival: the head job waits until its policy's
//     lease width is free, then owns that many groups.
//   * An owned group repeatedly pulls the owner's next pending item; the
//     serial part of an item queues FIFO across jobs for the earliest-free
//     serial slot.
//   * When a job's wave drains early (a group finds its owner's pending
//     list empty), work stealing — when enabled — returns the group to the
//     pool immediately, where it either admits the next waiting job or
//     *steals* the front pending item of the running job with the most
//     pending work.  With stealing off, the group parks until the whole
//     lease is released (no pool work left), reproducing the strict-lease
//     baseline.
//
// All tie-breaks are by lowest id, so the schedule is a pure function of
// its inputs — the reproducibility contract the service benches pin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "decomp/work_queue.hpp"

namespace cj2k::cell {
class MetricsRegistry;
}

namespace cj2k::service {

/// Scheduling policy knob (DESIGN.md §12).
enum class SchedulePolicy {
  kLatency,     ///< Wide leases (whole pool), few concurrent jobs.
  kThroughput,  ///< Narrow leases (one group), deep concurrency.
  kAdaptive,    ///< Queue-depth-driven width: G / waiting jobs, clamped.
};

const char* policy_name(SchedulePolicy p);

/// Parses "latency" / "throughput" / "adaptive" (throws on anything else).
SchedulePolicy parse_policy(const std::string& name);

/// One job as the scheduler sees it: arrival time, per-tile items at
/// lease-group width, and the optional lossy barrier tail.
struct ServiceJobSpec {
  double arrival = 0;
  std::vector<decomp::PipelinePhase> items;
  decomp::PipelinePhase tail;
};

struct ScheduleOptions {
  SchedulePolicy policy = SchedulePolicy::kThroughput;
  std::size_t num_groups = 1;
  std::size_t serial_slots = 1;
  bool stealing = true;
};

/// Per-job outcome of the replay.
struct ServiceJobTiming {
  double arrival = 0;
  double start = 0;             ///< Admission (lease granted).
  double finish = 0;            ///< Last phase complete.
  std::size_t lease_groups = 0; ///< Width granted at admission.
  std::size_t stolen_items = 0; ///< Items other groups ran for this job.

  double queue_wait() const { return start - arrival; }
  double service_time() const { return finish - start; }
  double latency() const { return finish - arrival; }
};

/// One occupied resource interval (for the trace export and occupancy).
struct ServiceSpan {
  std::size_t job = 0;     ///< Index into the spec list.
  std::size_t item = 0;    ///< Tile item index (0 for the tail).
  std::size_t resource = 0;///< Group id, or serial slot id when `serial`.
  bool serial = false;
  bool tail = false;
  bool stolen = false;
  double begin = 0;
  double end = 0;
};

struct ServiceSchedule {
  std::vector<ServiceJobTiming> jobs;  ///< Parallel to the spec list.
  std::vector<ServiceSpan> spans;      ///< In dispatch order.
  double makespan = 0;
  std::uint64_t steals = 0;
  double busy_group_seconds = 0;
  double busy_serial_seconds = 0;
};

/// Replays the lease/steal schedule.  `jobs` must be sorted by arrival
/// (ties allowed); every job needs at least one item.
ServiceSchedule schedule_service(const std::vector<ServiceJobSpec>& jobs,
                                 const ScheduleOptions& opt);

/// Aggregates a replay into the service-level numbers (latency percentiles
/// by nearest rank, jobs/sec over the makespan, pool occupancy).
struct ServiceSummary {
  std::size_t jobs = 0;
  double makespan = 0;
  double jobs_per_sec = 0;
  double p50_latency = 0;
  double p99_latency = 0;
  double mean_queue_wait = 0;
  double mean_service_time = 0;
  double pool_occupancy = 0;   ///< busy group-seconds / (G * makespan).
  std::uint64_t steals = 0;
};

ServiceSummary summarize_schedule(const ServiceSchedule& sched,
                                  const ScheduleOptions& opt);

/// Folds a summary into `mr` under the "service." prefix (service.jobs,
/// service.jobs_per_sec, service.p50_latency, service.p99_latency,
/// service.pool_occupancy, ... — the keys BENCH_JSON and bench_trend.py
/// read).
void fold_service_metrics(const ServiceSummary& s, const ScheduleOptions& opt,
                          cell::MetricsRegistry& mr);

}  // namespace cj2k::service
