// Encode-service tests (DESIGN.md §12): the SPE pool carving, the
// lease/steal schedule semantics per policy, the PipelineResult::tile_items
// plumbing the scheduler consumes, and the end-to-end contract — every
// job's codestream byte-identical to its standalone encode, with
// strict-audit provenance naming the job.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/sha256.hpp"
#include "image/synth.hpp"
#include "service/encode_service.hpp"
#include "service/schedule.hpp"
#include "service/spe_pool.hpp"

namespace cj2k::service {
namespace {

cell::MachineConfig config(int spes, int ppes = 2, int chips = 2) {
  cell::MachineConfig cfg;
  cfg.num_spes = spes;
  cfg.num_ppe_threads = ppes;
  cfg.chips = chips;
  return cfg;
}

// ----------------------------------------------------------------- SpePool

TEST(SpePool, CarvesPoolIntoEqualGroups) {
  SpePool pool(config(16), 8);
  EXPECT_EQ(pool.num_groups(), 2u);
  EXPECT_EQ(pool.group_spes(), 8);
  EXPECT_EQ(pool.unused_spes(), 0);

  SpePool ragged(config(20), 8);
  EXPECT_EQ(ragged.num_groups(), 2u);
  EXPECT_EQ(ragged.unused_spes(), 4);

  // A pool smaller than one group still yields one (narrower) group.
  SpePool small(config(4), 8);
  EXPECT_EQ(small.num_groups(), 1u);
  EXPECT_EQ(small.group_spes(), 4);
}

TEST(SpePool, LeaseConfigIsAProportionalShare) {
  const cell::MachineConfig pc = config(16, 2, 2);
  SpePool pool(pc, 8);
  const cell::MachineConfig one = pool.lease_config(1);
  EXPECT_EQ(one.num_spes, 8);
  EXPECT_EQ(one.num_ppe_threads, 1);
  EXPECT_EQ(one.chips, 1);
  EXPECT_DOUBLE_EQ(one.cost.chip_mem_bw,
                   pc.cost.chip_mem_bw * 2.0 * 1.0 / 2.0);
  const cell::MachineConfig both = pool.lease_config(2);
  EXPECT_EQ(both.num_spes, 16);
  EXPECT_EQ(both.num_ppe_threads, 2);
  // The full-width lease carries the whole blade's bandwidth.
  EXPECT_DOUBLE_EQ(both.cost.chip_mem_bw, pc.cost.chip_mem_bw * 2.0);
}

TEST(SpePool, RejectsEmptyPoolsAndLeasesWiderThanThePool) {
  EXPECT_THROW((void)SpePool(config(0), 8), Error);
  EXPECT_THROW((void)SpePool(config(16), 0), Error);
  SpePool pool(config(20), 8);
  ASSERT_EQ(pool.num_groups(), 2u);
  EXPECT_THROW(pool.lease_config(0), Error);
  EXPECT_THROW(pool.lease_config(3), Error);
  // The unused SPEs past the last full group never join a lease.
  EXPECT_EQ(pool.lease_config(2).num_spes, 16);
}

// ------------------------------------------------------------------ Policy

TEST(Policy, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_policy("latency"), SchedulePolicy::kLatency);
  EXPECT_EQ(parse_policy("throughput"), SchedulePolicy::kThroughput);
  EXPECT_EQ(parse_policy("adaptive"), SchedulePolicy::kAdaptive);
  EXPECT_STREQ(policy_name(SchedulePolicy::kLatency), "latency");
  EXPECT_STREQ(policy_name(SchedulePolicy::kThroughput), "throughput");
  EXPECT_STREQ(policy_name(SchedulePolicy::kAdaptive), "adaptive");
  EXPECT_THROW(parse_policy("fastest"), Error);
}

// ---------------------------------------------------------------- Schedule

ServiceJobSpec spec(double arrival,
                    std::vector<decomp::PipelinePhase> items,
                    decomp::PipelinePhase tail = {}) {
  ServiceJobSpec s;
  s.arrival = arrival;
  s.items = std::move(items);
  s.tail = tail;
  return s;
}

ScheduleOptions options(SchedulePolicy policy, std::size_t groups,
                        std::size_t slots = 1, bool stealing = true) {
  ScheduleOptions o;
  o.policy = policy;
  o.num_groups = groups;
  o.serial_slots = slots;
  o.stealing = stealing;
  return o;
}

TEST(ServiceSchedule, LatencyPolicySerializesJobsOnAWideLease) {
  const std::vector<ServiceJobSpec> jobs = {
      spec(0, {{1.0, 0.0}}), spec(0, {{1.0, 0.0}})};
  const auto sched = schedule_service(
      jobs, options(SchedulePolicy::kLatency, 2, 1, /*stealing=*/false));
  // Job 0 owns the whole pool until it drains; job 1 waits a full second
  // even though a group sat idle the whole time.
  EXPECT_EQ(sched.jobs[0].lease_groups, 2u);
  EXPECT_DOUBLE_EQ(sched.jobs[0].start, 0.0);
  EXPECT_DOUBLE_EQ(sched.jobs[0].finish, 1.0);
  EXPECT_DOUBLE_EQ(sched.jobs[1].start, 1.0);
  EXPECT_DOUBLE_EQ(sched.jobs[1].finish, 2.0);
  EXPECT_DOUBLE_EQ(sched.makespan, 2.0);
  EXPECT_EQ(sched.steals, 0u);
}

TEST(ServiceSchedule, ThroughputPolicyOverlapsJobsOnNarrowLeases) {
  const std::vector<ServiceJobSpec> jobs = {
      spec(0, {{1.0, 0.0}}), spec(0, {{1.0, 0.0}})};
  const auto sched =
      schedule_service(jobs, options(SchedulePolicy::kThroughput, 2));
  EXPECT_EQ(sched.jobs[0].lease_groups, 1u);
  EXPECT_EQ(sched.jobs[1].lease_groups, 1u);
  EXPECT_DOUBLE_EQ(sched.jobs[1].queue_wait(), 0.0);
  EXPECT_DOUBLE_EQ(sched.makespan, 1.0);
}

TEST(ServiceSchedule, AdaptiveWidthTracksQueueDepth) {
  // Job 0 arrives alone (queue depth 1 -> full-width lease); jobs 1..3
  // arrive together behind it (depth 2 -> half-width leases); job 3 admits
  // at full width once the queue has emptied again.
  const std::vector<ServiceJobSpec> jobs = {
      spec(0, {{10.0, 0.0}}),
      spec(1, {{10.0, 0.0}, {10.0, 0.0}}),
      spec(1, {{10.0, 0.0}, {10.0, 0.0}}),
      spec(1, {{10.0, 0.0}, {10.0, 0.0}})};
  const auto sched =
      schedule_service(jobs, options(SchedulePolicy::kAdaptive, 4));
  EXPECT_EQ(sched.jobs[0].lease_groups, 4u);
  EXPECT_EQ(sched.jobs[1].lease_groups, 2u);
  EXPECT_EQ(sched.jobs[2].lease_groups, 2u);
  EXPECT_EQ(sched.jobs[3].lease_groups, 4u);
  EXPECT_DOUBLE_EQ(sched.jobs[1].start, 1.0);
  EXPECT_DOUBLE_EQ(sched.jobs[2].start, 10.0);
  EXPECT_DOUBLE_EQ(sched.jobs[3].start, 20.0);
}

TEST(ServiceSchedule, StealingPutsIdleGroupsOnTheDeepestBacklog) {
  // One 4-item job on 4 groups under a one-group lease: stealing spreads
  // the backlog across the idle groups, quartering the makespan.
  const std::vector<ServiceJobSpec> jobs = {
      spec(0, {{1.0, 0.0}, {1.0, 0.0}, {1.0, 0.0}, {1.0, 0.0}})};
  const auto stolen = schedule_service(
      jobs, options(SchedulePolicy::kThroughput, 4, 1, /*stealing=*/true));
  EXPECT_DOUBLE_EQ(stolen.makespan, 1.0);
  EXPECT_EQ(stolen.steals, 3u);
  EXPECT_EQ(stolen.jobs[0].stolen_items, 3u);

  const auto strict = schedule_service(
      jobs, options(SchedulePolicy::kThroughput, 4, 1, /*stealing=*/false));
  EXPECT_DOUBLE_EQ(strict.makespan, 4.0);
  EXPECT_EQ(strict.steals, 0u);
}

TEST(ServiceSchedule, SerialPhasesQueueFifoAcrossJobs) {
  // Two jobs' serial halves contend for one PPE slot: FIFO by pool-phase
  // completion, so job 1 waits for job 0's serial work.
  const std::vector<ServiceJobSpec> jobs = {
      spec(0, {{1.0, 2.0}}), spec(0, {{1.0, 2.0}})};
  const auto sched =
      schedule_service(jobs, options(SchedulePolicy::kThroughput, 2, 1));
  EXPECT_DOUBLE_EQ(sched.jobs[0].finish, 3.0);
  EXPECT_DOUBLE_EQ(sched.jobs[1].finish, 5.0);
  EXPECT_DOUBLE_EQ(sched.busy_serial_seconds, 4.0);
  // With two slots the serial halves overlap instead.
  const auto wide =
      schedule_service(jobs, options(SchedulePolicy::kThroughput, 2, 2));
  EXPECT_DOUBLE_EQ(wide.jobs[1].finish, 3.0);
}

TEST(ServiceSchedule, TailIsABarrierAfterAllItems) {
  const std::vector<ServiceJobSpec> jobs = {
      spec(0, {{1.0, 0.0}, {1.0, 0.0}}, /*tail=*/{0.5, 0.25})};
  const auto sched =
      schedule_service(jobs, options(SchedulePolicy::kThroughput, 2));
  // Items overlap (one stolen), the tail starts only after both complete.
  EXPECT_DOUBLE_EQ(sched.jobs[0].finish, 1.75);
  bool saw_tail = false;
  for (const auto& sp : sched.spans) {
    if (!sp.tail) continue;
    saw_tail = true;
    EXPECT_GE(sp.begin, 1.0);
  }
  EXPECT_TRUE(saw_tail);
}

TEST(ServiceSchedule, TailReleaseWakesParkedGroupsWithoutStealing) {
  // No-steal: the second group parks once the single item is running, then
  // wakes for the barrier tail; the lease is held throughout.
  const std::vector<ServiceJobSpec> jobs = {
      spec(0, {{1.0, 0.0}}, /*tail=*/{0.5, 0.0})};
  const auto sched = schedule_service(
      jobs, options(SchedulePolicy::kLatency, 2, 1, /*stealing=*/false));
  EXPECT_DOUBLE_EQ(sched.jobs[0].finish, 1.5);
  EXPECT_EQ(sched.steals, 0u);
}

TEST(ServiceSchedule, ReplayIsDeterministic) {
  std::vector<ServiceJobSpec> jobs;
  for (std::size_t i = 0; i < 12; ++i) {
    std::vector<decomp::PipelinePhase> items(1 + i % 3);
    for (std::size_t k = 0; k < items.size(); ++k) {
      items[k].pool = 0.5 + 0.1 * static_cast<double>((i + k) % 5);
      items[k].serial = 0.05 * static_cast<double>(k % 2);
    }
    decomp::PipelinePhase tail;
    if (i % 4 == 1) tail.pool = 0.2;
    jobs.push_back(spec(0.3 * static_cast<double>(i), items, tail));
  }
  const auto opt = options(SchedulePolicy::kAdaptive, 3, 2);
  const auto a = schedule_service(jobs, opt);
  const auto b = schedule_service(jobs, opt);
  ASSERT_EQ(a.spans.size(), b.spans.size());
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    EXPECT_EQ(a.spans[i].job, b.spans[i].job);
    EXPECT_EQ(a.spans[i].resource, b.spans[i].resource);
    EXPECT_DOUBLE_EQ(a.spans[i].begin, b.spans[i].begin);
    EXPECT_DOUBLE_EQ(a.spans[i].end, b.spans[i].end);
  }
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.steals, b.steals);
}

TEST(ServiceSchedule, SummaryAndMetricsFold) {
  const std::vector<ServiceJobSpec> jobs = {
      spec(0, {{1.0, 0.0}}), spec(0, {{1.0, 0.0}}), spec(0, {{1.0, 0.0}})};
  const auto opt = options(SchedulePolicy::kThroughput, 2);
  const auto sched = schedule_service(jobs, opt);
  const auto sum = summarize_schedule(sched, opt);
  EXPECT_EQ(sum.jobs, 3u);
  EXPECT_DOUBLE_EQ(sum.makespan, sched.makespan);
  EXPECT_DOUBLE_EQ(sum.jobs_per_sec, 3.0 / sched.makespan);
  EXPECT_GT(sum.p50_latency, 0.0);
  EXPECT_GE(sum.p99_latency, sum.p50_latency);
  EXPECT_GT(sum.pool_occupancy, 0.0);
  EXPECT_LE(sum.pool_occupancy, 1.0 + 1e-12);

  cell::MetricsRegistry mr;
  fold_service_metrics(sum, opt, mr);
  for (const char* key :
       {"service.jobs", "service.groups", "service.serial_slots",
        "service.work_stealing", "service.makespan_seconds",
        "service.jobs_per_sec", "service.p50_latency", "service.p99_latency",
        "service.mean_queue_wait", "service.mean_service_time",
        "service.pool_occupancy", "service.steals"}) {
    EXPECT_TRUE(mr.has(key)) << key;
  }
  EXPECT_DOUBLE_EQ(mr.get("service.jobs"), 3.0);
}

// ------------------------------------------- PipelineResult service view

TEST(PipelineServiceView, SingleTileItemCoversTheWholeRun) {
  const Image img = synth::photographic(128, 96, 3, 41);
  cellenc::CellEncoder enc(config(8, 1, 1));
  const auto res = enc.encode(img, {});
  ASSERT_EQ(res.tile_items.size(), 1u);
  EXPECT_GT(res.tile_items[0].pool, 0.0);
  // Lossless: no cross-tile barrier; the (serial) Tier-2 folds into the
  // item, so item pool+serial reproduces the stage sum exactly.
  EXPECT_DOUBLE_EQ(res.tail_phase.pool, 0.0);
  EXPECT_DOUBLE_EQ(res.tail_phase.serial, 0.0);
  double stage_sum = 0;
  for (const auto& s : res.stages) stage_sum += s.seconds;
  EXPECT_NEAR(res.tile_items[0].pool + res.tile_items[0].serial, stage_sum,
              1e-9 * stage_sum);
}

TEST(PipelineServiceView, TiledEncodeYieldsOneItemPerTile) {
  const Image img = synth::photographic(256, 256, 3, 42);
  jp2k::CodingParams p;
  p.tiles_x = 2;
  p.tiles_y = 2;
  cellenc::CellEncoder enc(config(16, 2, 2));
  const auto res = enc.encode(img, p);
  ASSERT_EQ(res.tile_items.size(), 4u);
  for (const auto& it : res.tile_items) EXPECT_GT(it.pool, 0.0);
}

TEST(PipelineServiceView, LossyEbcotTailIsABarrierPhase) {
  const Image img = synth::photographic(128, 96, 3, 43);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.rate = 0.25;
  cellenc::CellEncoder enc(config(8, 1, 1));
  const auto res = enc.encode(img, p);
  EXPECT_GT(res.tail_phase.pool + res.tail_phase.serial, 0.0);

  // HT rate-controls at the quantizer, so Tier-2 folds into the item and
  // there is no cross-tile barrier.
  p.block_coder = jp2k::BlockCoder::kHt;
  const auto ht = enc.encode(img, p);
  EXPECT_DOUBLE_EQ(ht.tail_phase.pool, 0.0);
  EXPECT_DOUBLE_EQ(ht.tail_phase.serial, 0.0);
}

// ----------------------------------------------------------- EncodeService

std::vector<jp2k::CodingParams> mixed_params() {
  std::vector<jp2k::CodingParams> out(4);
  out[1].wavelet = jp2k::WaveletKind::kIrreversible97;
  out[1].rate = 0.25;
  out[2].wavelet = jp2k::WaveletKind::kIrreversible97;
  out[2].rate = 0.25;
  out[2].block_coder = jp2k::BlockCoder::kHt;
  out[3].tiles_x = 2;
  out[3].tiles_y = 2;
  return out;
}

TEST(EncodeServiceTest, JobsAreByteIdenticalToStandaloneEncodes) {
  const cell::MachineConfig pool_cfg = config(16, 2, 2);
  const auto img =
      std::make_shared<const Image>(synth::photographic(128, 96, 3, 44));
  const auto params = mixed_params();

  ServiceOptions sopt;
  sopt.machine = pool_cfg;
  sopt.policy = SchedulePolicy::kThroughput;
  EncodeService svc(sopt);
  const std::size_t n = 6;
  for (std::size_t i = 0; i < n; ++i) {
    EncodeJob job;
    job.image = img;
    job.params = params[i % params.size()];
    job.arrival_seconds = 0.001 * static_cast<double>(i);
    svc.submit(std::move(job));
  }
  const ServiceResult res = svc.run();

  ASSERT_EQ(res.jobs.size(), n);
  for (const auto& jr : res.jobs) {
    cellenc::CellEncoder solo(pool_cfg);
    const auto alone = solo.encode(*img, params[jr.id % params.size()]);
    EXPECT_EQ(common::sha256_hex(jr.pipeline.codestream),
              common::sha256_hex(alone.codestream))
        << jr.name;
    EXPECT_GE(jr.queue_wait_seconds, 0.0);
    EXPECT_GT(jr.service_seconds, 0.0);
    EXPECT_NEAR(jr.latency_seconds,
                jr.queue_wait_seconds + jr.service_seconds, 1e-12);
  }
  EXPECT_EQ(res.summary.jobs, n);
  EXPECT_GT(res.summary.jobs_per_sec, 0.0);
  EXPECT_TRUE(res.metrics.has("service.jobs_per_sec"));
  EXPECT_TRUE(res.metrics.has("service.p99_latency"));
  EXPECT_TRUE(res.metrics.has("service.pool_occupancy"));
  EXPECT_EQ(res.groups, 2u);
  EXPECT_EQ(res.group_spes, 8);
}

TEST(EncodeServiceTest, TraceRecordsTheServiceSchedule) {
  ServiceOptions sopt;
  sopt.machine = config(16, 2, 2);
  sopt.trace = true;
  EncodeService svc(sopt);
  const auto img =
      std::make_shared<const Image>(synth::photographic(96, 96, 3, 45));
  for (std::size_t i = 0; i < 3; ++i) {
    EncodeJob job;
    job.image = img;
    job.arrival_seconds = 0.0005 * static_cast<double>(i);
    svc.submit(std::move(job));
  }
  const ServiceResult res = svc.run();
  ASSERT_NE(res.trace, nullptr);
  EXPECT_GT(res.trace->total_events(), 0u);
  EXPECT_DOUBLE_EQ(res.trace->clock(), res.makespan_seconds);
  // Per-job traces are owned by the service: jobs never carry one.
  for (const auto& jr : res.jobs) EXPECT_EQ(jr.pipeline.trace, nullptr);
}

TEST(EncodeServiceTest, StrictAuditAttributesViolationsToJobs) {
  ServiceOptions sopt;
  sopt.machine = config(16, 2, 2);
  EncodeService svc(sopt);
  const auto img =
      std::make_shared<const Image>(synth::photographic(96, 96, 3, 46));
  for (std::size_t i = 0; i < 2; ++i) {
    EncodeJob job;
    job.image = img;
    job.pipeline.audit.enabled = true;
    job.pipeline.audit.strict = true;  // The pipeline must run clean.
    svc.submit(std::move(job));
  }
  const ServiceResult res = svc.run();
  for (const auto& jr : res.jobs) {
    ASSERT_TRUE(jr.pipeline.audit.enabled);
    EXPECT_TRUE(jr.pipeline.audit.clean());
    const std::string prefix = "job" + std::to_string(jr.id) + "/";
    ASSERT_FALSE(jr.pipeline.audit.sites.empty());
    for (const auto& site : jr.pipeline.audit.sites) {
      EXPECT_EQ(site.site.rfind(prefix, 0), 0u)
          << site.site << " lacks " << prefix;
    }
  }
}

TEST(EncodeServiceTest, HostThreadsOptionDoesNotChangeTheResult) {
  const auto img =
      std::make_shared<const Image>(synth::photographic(64, 64, 3, 47));
  const auto params = mixed_params();
  const auto run_with = [&](std::size_t host_threads) {
    ServiceOptions sopt;
    sopt.machine = config(16, 2, 2);
    sopt.host_threads = host_threads;
    EncodeService svc(sopt);
    for (std::size_t i = 0; i < params.size(); ++i) {
      EncodeJob job;
      job.image = img;
      job.params = params[i];
      job.arrival_seconds = 0.0005 * static_cast<double>(i);
      svc.submit(std::move(job));
    }
    return svc.run();
  };
  const ServiceResult want = run_with(0);
  for (const std::size_t host_threads : {1u, 2u, 8u}) {
    const ServiceResult got = run_with(host_threads);
    EXPECT_EQ(got.makespan_seconds, want.makespan_seconds) << host_threads;
    ASSERT_EQ(got.jobs.size(), want.jobs.size());
    for (std::size_t i = 0; i < got.jobs.size(); ++i) {
      EXPECT_EQ(got.jobs[i].pipeline.codestream,
                want.jobs[i].pipeline.codestream)
          << host_threads << " host threads, job " << i;
      EXPECT_EQ(got.jobs[i].latency_seconds, want.jobs[i].latency_seconds)
          << host_threads << " host threads, job " << i;
    }
  }
}

TEST(EncodeServiceTest, ResultsStayInSubmissionOrderWhenArrivalsAreReversed) {
  const cell::MachineConfig pool_cfg = config(16, 2, 2);
  const auto img =
      std::make_shared<const Image>(synth::photographic(64, 64, 3, 48));
  const auto params = mixed_params();
  ServiceOptions sopt;
  sopt.machine = pool_cfg;
  EncodeService svc(sopt);
  const std::size_t n = params.size();
  for (std::size_t i = 0; i < n; ++i) {
    EncodeJob job;
    job.image = img;
    job.params = params[i];
    job.name = "late" + std::to_string(i);
    job.arrival_seconds = 0.001 * static_cast<double>(n - 1 - i);
    EXPECT_EQ(svc.submit(std::move(job)), i);
  }
  const ServiceResult res = svc.run();

  ASSERT_EQ(res.jobs.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const JobResult& jr = res.jobs[i];
    EXPECT_EQ(jr.id, i);
    EXPECT_EQ(jr.name, "late" + std::to_string(i));
    EXPECT_EQ(jr.arrival_seconds, 0.001 * static_cast<double>(n - 1 - i));
    cellenc::CellEncoder solo(pool_cfg);
    EXPECT_EQ(jr.pipeline.codestream, solo.encode(*img, params[i]).codestream)
        << jr.name;
  }
  // The last submission arrives first and meets an idle pool.
  EXPECT_EQ(res.jobs[n - 1].queue_wait_seconds, 0.0);
}

TEST(EncodeServiceTest, FailingJobPropagatesItsError) {
  const auto img =
      std::make_shared<const Image>(synth::photographic(64, 64, 3, 49));
  jp2k::CodingParams bad;
  bad.levels = 40;  // outside the parameter domain
  for (const std::size_t bad_at : {0u, 2u}) {
    ServiceOptions sopt;
    sopt.machine = config(16, 2, 2);
    EncodeService svc(sopt);
    for (std::size_t i = 0; i < 3; ++i) {
      EncodeJob job;
      job.image = img;
      if (i == bad_at) job.params = bad;
      svc.submit(std::move(job));
    }
    EXPECT_THROW(svc.run(), InvalidArgument) << "bad job " << bad_at;
  }
}

TEST(EncodeServiceTest, StealModeAutoFollowsThePolicy) {
  ServiceOptions sopt;
  sopt.machine = config(16, 2, 2);
  sopt.policy = SchedulePolicy::kLatency;
  EXPECT_FALSE(EncodeService(sopt).stealing_enabled());
  sopt.policy = SchedulePolicy::kThroughput;
  EXPECT_TRUE(EncodeService(sopt).stealing_enabled());
  sopt.steal = StealMode::kOff;
  EXPECT_FALSE(EncodeService(sopt).stealing_enabled());
  sopt.policy = SchedulePolicy::kLatency;
  sopt.steal = StealMode::kOn;
  EXPECT_TRUE(EncodeService(sopt).stealing_enabled());
}

}  // namespace
}  // namespace cj2k::service
