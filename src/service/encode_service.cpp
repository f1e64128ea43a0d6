#include "service/encode_service.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>

#include "common/error.hpp"

namespace cj2k::service {

namespace {

/// Service-level trace (DESIGN.md §12): the replayed schedule on the full
/// pool's tracks — each pool phase on the SPE tracks of the group it ran
/// on, serial phases on the PPE track of their slot, arrivals and the
/// overall schedule span on the driver track.  Only service.* metrics are
/// embedded on export: per-stage stall detail lives in the per-job traces,
/// not here.
std::shared_ptr<cell::TraceRecorder> build_trace(
    const ServiceOptions& opt, const SpePool& pool,
    const std::vector<std::size_t>& order, const ServiceSchedule& sched,
    const std::vector<EncodeJob>& jobs) {
  const int spes = static_cast<int>(pool.num_groups()) * pool.group_spes();
  const int ppes = std::max(1, opt.machine.num_ppe_threads);
  auto rec = std::make_shared<cell::TraceRecorder>(spes, ppes,
                                                   opt.trace_ring_capacity);
  char args[160];
  for (std::size_t k = 0; k < sched.jobs.size(); ++k) {
    const std::size_t id = order[k];
    const ServiceJobTiming& jt = sched.jobs[k];
    std::snprintf(args, sizeof args,
                  "\"job\":%zu,\"queue_wait_s\":%.9g,\"service_s\":%.9g", id,
                  jt.queue_wait(), jt.service_time());
    rec->emit_instant(rec->driver_track(), "arrival: " + jobs[id].name,
                      "service", jt.arrival, args);
    rec->emit_instant(rec->driver_track(), "finish: " + jobs[id].name,
                      "service", jt.finish, args);
  }
  for (const ServiceSpan& sp : sched.spans) {
    const std::size_t id = order[sp.job];
    std::string name = jobs[id].name;
    name += sp.tail ? " tail" : " tile" + std::to_string(sp.item);
    if (sp.stolen) name += " (stolen)";
    std::snprintf(args, sizeof args,
                  "\"job\":%zu,\"item\":%zu,\"stolen\":%s", id, sp.item,
                  sp.stolen ? "true" : "false");
    if (sp.serial) {
      rec->emit_span(rec->ppe_track(static_cast<int>(sp.resource)), name,
                     "service", sp.begin, sp.end - sp.begin, args);
    } else {
      const int base = static_cast<int>(sp.resource) * pool.group_spes();
      for (int i = 0; i < pool.group_spes(); ++i) {
        rec->emit_span(rec->spe_track(base + i), name, "service", sp.begin,
                       sp.end - sp.begin, args);
      }
    }
  }
  std::snprintf(args, sizeof args, "\"jobs\":%zu,\"groups\":%zu,\"steals\":%llu",
                sched.jobs.size(), pool.num_groups(),
                static_cast<unsigned long long>(sched.steals));
  rec->emit_span(rec->driver_track(),
                 std::string("service schedule (") +
                     policy_name(opt.policy) + ")",
                 "service", 0.0, sched.makespan, args);
  rec->set_clock(sched.makespan);
  return rec;
}

}  // namespace

EncodeService::EncodeService(const ServiceOptions& opt) : opt_(opt) {
  CJ2K_CHECK_MSG(opt.machine.num_spes >= 1,
                 "the encode service needs at least one SPE");
  CJ2K_CHECK_MSG(opt.group_spes >= 1, "group_spes must be positive");
}

bool EncodeService::stealing_enabled() const {
  switch (opt_.steal) {
    case StealMode::kOn: return true;
    case StealMode::kOff: return false;
    case StealMode::kAuto:
      return opt_.policy != SchedulePolicy::kLatency;
  }
  return true;
}

std::size_t EncodeService::submit(EncodeJob job) {
  CJ2K_CHECK_MSG(job.image != nullptr, "job needs an image");
  CJ2K_CHECK_MSG(job.arrival_seconds >= 0, "negative arrival time");
  if (job.name.empty()) job.name = "job" + std::to_string(jobs_.size());
  jobs_.push_back(std::move(job));
  return jobs_.size() - 1;
}

ServiceResult EncodeService::run() {
  CJ2K_CHECK_MSG(!jobs_.empty(), "no jobs submitted");
  SpePool pool(opt_.machine, opt_.group_spes);
  const std::size_t n = jobs_.size();

  // --- Real encodes, one job at a time on the calling thread through one
  // lease-width encoder; each encode spreads over the host pool.  Jobs are
  // tagged with their provenance so a strict-audit violation names the
  // job.  Per-job tracing is disabled (the service owns the trace);
  // everything else in the job's PipelineOptions applies as submitted.
  std::vector<cellenc::PipelineResult> plans(n);
  cellenc::CellEncoder enc(pool.lease_config(1));
  for (std::size_t id = 0; id < n; ++id) {
    const EncodeJob& job = jobs_[id];
    cellenc::PipelineOptions popt = job.pipeline;
    popt.trace.enabled = false;
    cell::AuditJobScope jscope(static_cast<int>(id));
    plans[id] = enc.encode(*job.image, job.params, popt);
  }

  // --- The virtual service schedule over the per-job item lists.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return jobs_[a].arrival_seconds <
                            jobs_[b].arrival_seconds;
                   });
  std::vector<ServiceJobSpec> specs(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t id = order[k];
    specs[k].arrival = jobs_[id].arrival_seconds;
    specs[k].items = plans[id].tile_items;
    specs[k].tail = plans[id].tail_phase;
  }
  ScheduleOptions so;
  so.policy = opt_.policy;
  so.num_groups = pool.num_groups();
  so.serial_slots =
      static_cast<std::size_t>(std::max(1, opt_.machine.num_ppe_threads));
  so.stealing = stealing_enabled();
  const ServiceSchedule sched = schedule_service(specs, so);

  ServiceResult res;
  res.groups = pool.num_groups();
  res.group_spes = pool.group_spes();
  res.makespan_seconds = sched.makespan;
  res.summary = summarize_schedule(sched, so);
  fold_service_metrics(res.summary, so, res.metrics);
  res.metrics.set("service.group_spes", static_cast<double>(res.group_spes));
  res.metrics.set("service.unused_spes",
                  static_cast<double>(pool.unused_spes()));

  res.jobs.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t id = order[k];
    JobResult& jr = res.jobs[id];
    jr.id = id;
    jr.name = jobs_[id].name;
    jr.arrival_seconds = sched.jobs[k].arrival;
    jr.queue_wait_seconds = sched.jobs[k].queue_wait();
    jr.service_seconds = sched.jobs[k].service_time();
    jr.latency_seconds = sched.jobs[k].latency();
    jr.lease_groups = sched.jobs[k].lease_groups;
    jr.stolen_items = sched.jobs[k].stolen_items;
    jr.pipeline = std::move(plans[id]);
  }

  if (opt_.trace) res.trace = build_trace(opt_, pool, order, sched, jobs_);
  return res;
}

}  // namespace cj2k::service
