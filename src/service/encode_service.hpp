// The encode service (DESIGN.md §12): many concurrent encode jobs sharing
// one simulated Cell pool.
//
// Execution follows the repo's machine-model split.  The *bytes* come from
// real encodes run one job at a time on the calling thread, each through
// the full cellenc pipeline on a one-group lease-width machine and spread
// over every host core by the shared pool (decomp/host_pool.hpp).  Job
// codestreams are byte-identical to standalone encodes (the codestream is
// machine-width-independent).  The *clock* — where jobs do overlap — comes
// from schedule_service: a deterministic virtual-time replay of the
// admission / lease / steal protocol over each job's {pool, serial} items
// (PipelineResult::tile_items at group width), which yields per-job
// queue-wait / service-time, the service-level latency percentiles and
// throughput, and a Perfetto-loadable trace of jobs interleaving on the
// pool.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "cell/machine.hpp"
#include "cell/metrics.hpp"
#include "cell/trace.hpp"
#include "cellenc/pipeline.hpp"
#include "image/image.hpp"
#include "jp2k/codestream.hpp"
#include "service/schedule.hpp"
#include "service/spe_pool.hpp"

namespace cj2k::service {

/// Work-stealing knob: kAuto enables stealing except under the latency
/// policy (whose whole point is an undisturbed full-width lease).
enum class StealMode { kAuto, kOn, kOff };

struct ServiceOptions {
  /// The shared pool (the whole blade).
  cell::MachineConfig machine;
  SchedulePolicy policy = SchedulePolicy::kThroughput;
  StealMode steal = StealMode::kAuto;
  /// Lease-group width in SPEs (the >=8 unit of decomp::plan_tile_groups).
  int group_spes = 8;
  /// Ignored: jobs encode one at a time, each over the whole host pool.
  std::size_t host_threads = 0;
  /// Record the service-level schedule trace (jobs interleaving on the
  /// pool's SPE/PPE tracks) into ServiceResult::trace.
  bool trace = false;
  std::size_t trace_ring_capacity = cell::TraceConfig{}.ring_capacity;
};

/// One submitted encode job.  The image is shared (Image is move-only and
/// one source image commonly feeds many jobs).  `pipeline.trace` is ignored
/// (the service owns tracing); `pipeline.audit` applies per job, with
/// strict-mode violations attributed to "jobN/..." sites.
struct EncodeJob {
  std::shared_ptr<const Image> image;
  jp2k::CodingParams params;
  cellenc::PipelineOptions pipeline;
  std::string name;
  double arrival_seconds = 0;  ///< Open-loop arrival on the virtual clock.
};

/// Per-job outcome: the full pipeline result plus the service timing.
struct JobResult {
  std::size_t id = 0;          ///< Submission id.
  std::string name;
  double arrival_seconds = 0;
  double queue_wait_seconds = 0;
  double service_seconds = 0;  ///< Admission to completion.
  double latency_seconds = 0;  ///< Arrival to completion.
  std::size_t lease_groups = 0;
  std::size_t stolen_items = 0;
  cellenc::PipelineResult pipeline;
};

struct ServiceResult {
  std::vector<JobResult> jobs;        ///< In submission-id order.
  ServiceSummary summary;
  double makespan_seconds = 0;
  std::size_t groups = 0;
  int group_spes = 0;
  /// service.* summary metrics (the keys BENCH_JSON "derived" carries).
  cell::MetricsRegistry metrics;
  /// The service-level trace; null unless ServiceOptions::trace.
  std::shared_ptr<cell::TraceRecorder> trace;
};

class EncodeService {
 public:
  explicit EncodeService(const ServiceOptions& opt);

  /// Queues a job; returns its id.  Jobs may arrive in any order; the
  /// schedule admits them by arrival_seconds (submission id breaks ties).
  std::size_t submit(EncodeJob job);

  std::size_t num_jobs() const { return jobs_.size(); }
  bool stealing_enabled() const;

  /// Encodes every submitted job (one after another, at one-group lease
  /// width) and replays the service schedule.  A failing encode (e.g. a
  /// strict-audit AuditError) propagates and stops the run.
  ServiceResult run();

 private:
  ServiceOptions opt_;
  std::vector<EncodeJob> jobs_;
};

}  // namespace cj2k::service
