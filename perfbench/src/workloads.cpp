#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "cellenc/pipeline.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "common/timer.hpp"
#include "image/synth.hpp"
#include "jp2k/decoder.hpp"
#include "service/spe_pool.hpp"

namespace perfbench {
namespace {

using namespace cj2k;

constexpr std::size_t kPhotoW = 1586;
constexpr std::size_t kPhotoH = 1558;
/// Every image is a kMosaic x kMosaic mosaic of photographic patches.
constexpr std::size_t kMosaic = 4;
constexpr std::size_t kBatchJobs = 16;
/// Offered load of the service workload, as a share of the replayed
/// saturation throughput of its own batch.
constexpr double kServiceLoad = 0.9;

cell::MachineConfig machine(int spes, int ppes, int chips) {
  cell::MachineConfig mc;
  mc.num_spes = spes;
  mc.num_ppe_threads = ppes;
  mc.chips = chips;
  return mc;
}

/// The 16-SPE / 2-PPE / 2-chip blade the service leases 8-SPE groups of.
service::ServiceOptions service_options() {
  service::ServiceOptions so;
  so.machine = machine(16, 2, 2);
  so.policy = service::SchedulePolicy::kThroughput;
  so.group_spes = 8;
  so.host_threads = 2;
  return so;
}

jp2k::CodingParams lossy_ebcot(int layers) {
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.rate = 0.25;
  p.layers = layers;
  return p;
}

jp2k::CodingParams lossless_ht() {
  jp2k::CodingParams p;
  p.block_coder = jp2k::BlockCoder::kHt;
  return p;
}

jp2k::CodingParams tiled_2x2(jp2k::CodingParams p) {
  p.tiles_x = 2;
  p.tiles_y = 2;
  return p;
}

/// A w x h RGB photo built as a mosaic of synth::photographic patches, each
/// from its own seed drawn from `seed`.  Coding cost varies
/// from one photographic seed to the next by several percent (object count,
/// contrast); summing it over independent patches keeps that variation
/// across benchmark seeds small while keeping photographic statistics.
std::shared_ptr<const Image> photo(std::size_t w, std::size_t h,
                                   std::uint64_t seed) {
  Rng rng(seed);
  Image img(w, h, 3, 8);
  for (std::size_t gy = 0; gy < kMosaic; ++gy) {
    const std::size_t y0 = h * gy / kMosaic;
    const std::size_t y1 = h * (gy + 1) / kMosaic;
    for (std::size_t gx = 0; gx < kMosaic; ++gx) {
      const std::size_t x0 = w * gx / kMosaic;
      const std::size_t x1 = w * (gx + 1) / kMosaic;
      const Image patch =
          synth::photographic(x1 - x0, y1 - y0, 3, rng.next_u64());
      for (std::size_t c = 0; c < 3; ++c) {
        for (std::size_t y = y0; y < y1; ++y) {
          std::copy_n(patch.plane(c).row(y - y0), x1 - x0,
                      img.plane(c).row(y) + x0);
        }
      }
    }
  }
  return std::make_shared<const Image>(std::move(img));
}

void flip_byte(Bytes& b) {
  if (!b.empty()) b[b.size() * 3 / 4] ^= 0x5A;
}

std::string check_bytes(const Bytes& b, const std::string& sha) {
  return common::sha256_hex(b) == sha
             ? std::string()
             : "codestream differs from the serial oracle";
}

/// Two jobs of `c` arriving together: the service layer's probe in the
/// traced run of a single-image workload.
Batch pair_batch(const Case& c) {
  Batch b;
  b.options = service_options();
  for (int i = 0; i < 2; ++i) {
    service::EncodeJob job;
    job.image = c.image;
    job.params = c.params;
    job.name = "probe" + std::to_string(i);
    b.jobs.push_back(std::move(job));
    b.oracle_sha.push_back(c.oracle_sha);
  }
  return b;
}

/// Encodes the primary case on the Cell model, checked against its oracle.
cellenc::PipelineResult checked_encode(cellenc::CellEncoder& enc,
                                       const Case& c) {
  cellenc::PipelineResult r = enc.encode(*c.image, c.params);
  const std::string err = check_bytes(r.codestream, c.oracle_sha);
  if (!err.empty()) throw std::runtime_error("setup: " + err);
  return r;
}

/// What the traced run adds to a workload whose primary case is `c` and
/// whose Cell encode of it is `r`.
void traced_setup(const Case& c, const cellenc::PipelineResult& r,
                  Case& tiled, SweepInputs& sw) {
  tiled = c;
  tiled.params = tiled_2x2(c.params);
  run_oracle(tiled);
  sw.primary = &c;
  sw.tiled = &tiled;
  sw.decode_sha = image_sha(jp2k::decode(r.codestream));
}

SimFigures single_job(double seconds) {
  return {seconds, 1.0 / seconds, seconds};
}

/// One Cell encode of a 1586x1558 photo per operation, on one reused
/// 8-SPE + 1-PPE CellEncoder.
class EncodeWorkload : public Workload {
 public:
  explicit EncodeWorkload(jp2k::CodingParams p) { case_.params = p; }

  void setup(std::uint64_t seed, bool traced) override {
    case_.image = photo(kPhotoW, kPhotoH, seed);
    run_oracle(case_);
    sweep_.machine = machine(8, 1, 1);
    enc_ = std::make_unique<cellenc::CellEncoder>(sweep_.machine);
    const cellenc::PipelineResult warm = checked_encode(*enc_, case_);
    sim_ = single_job(warm.simulated_seconds);
    if (traced) {
      traced_setup(case_, warm, tiled_, sweep_);
      sweep_.stages = warm.stages;
      batch_ = pair_batch(case_);
      sweep_.batch = &batch_;
    }
  }

  OpOutcome run_op(bool corrupt) override {
    OpOutcome o;
    Timer call;
    cellenc::PipelineResult r = enc_->encode(*case_.image, case_.params);
    o.wall_ms = call.millis();
    if (corrupt) flip_byte(r.codestream);
    o.error = check_bytes(r.codestream, case_.oracle_sha);
    o.ok = o.error.empty();
    o.sim.push_back(r.simulated_seconds);
    o.sim.push_back(static_cast<double>(r.t1_symbols));
    for (const auto& t : r.stages) {
      o.sim.push_back(t.seconds);
      o.sim.push_back(static_cast<double>(t.dma_bytes));
      o.sim.push_back(t.stall.dma_wait);
      o.sim.push_back(t.stall.queue_empty);
    }
    sim_ = single_job(r.simulated_seconds);
    return o;
  }

  double megapixels_per_op() const override {
    return static_cast<double>(kPhotoW * kPhotoH) / 1e6;
  }
  double jobs_per_op() const override { return 1; }
  SimFigures sim() const override { return sim_; }
  const SweepInputs& sweep() const override { return sweep_; }
  MainPart main_part() const override { return MainPart::kEncode; }

 private:
  Case case_;
  Case tiled_;
  Batch batch_;
  SweepInputs sweep_;
  std::unique_ptr<cellenc::CellEncoder> enc_;
  SimFigures sim_;
};

/// One full jp2k::decode of the lossy_ebcot_photo codestream per
/// operation.  The decoder is not simulated: the sim_* figures are those
/// of the Cell encode that produced the stream in setup.
class DecodeWorkload : public Workload {
 public:
  void setup(std::uint64_t seed, bool traced) override {
    case_.image = photo(kPhotoW, kPhotoH, seed);
    case_.params = lossy_ebcot(3);
    run_oracle(case_);
    sweep_.machine = machine(8, 1, 1);
    cellenc::CellEncoder enc(sweep_.machine);
    const cellenc::PipelineResult r = checked_encode(enc, case_);
    stream_ = r.codestream;
    sim_ = single_job(r.simulated_seconds);
    reference_ = image_sha(jp2k::decode(stream_));
    if (traced) {
      traced_setup(case_, r, tiled_, sweep_);
      sweep_.stages = r.stages;
      batch_ = pair_batch(case_);
      sweep_.batch = &batch_;
    }
  }

  OpOutcome run_op(bool corrupt) override {
    Bytes damaged;
    if (corrupt) {
      damaged = stream_;
      flip_byte(damaged);
    }
    OpOutcome o;
    Timer call;
    const Image img = jp2k::decode(corrupt ? damaged : stream_);
    o.wall_ms = call.millis();
    if (image_sha(img) != reference_) {
      o.ok = false;
      o.error = "decoded image differs from the reference decode";
    }
    return o;
  }

  double megapixels_per_op() const override {
    return static_cast<double>(kPhotoW * kPhotoH) / 1e6;
  }
  double jobs_per_op() const override { return 1; }
  SimFigures sim() const override { return sim_; }
  const SweepInputs& sweep() const override { return sweep_; }
  MainPart main_part() const override { return MainPart::kDecode; }

 private:
  Case case_;
  Case tiled_;
  Batch batch_;
  SweepInputs sweep_;
  Bytes stream_;
  std::string reference_;
  SimFigures sim_;
};

/// One EncodeService batch of 16 seeded small-photo jobs per operation,
/// arriving open-loop on the virtual clock just below saturation.
class ServiceWorkload : public Workload {
 public:
  void setup(std::uint64_t seed, bool traced) override {
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5E41CE);
    // Every batch holds the same sixteen job shapes, each coding kind at
    // each of four sizes, in a fixed order where every four consecutive
    // jobs cover all kinds and all sizes.  The seed draws the image content
    // and the arrival times, so every batch carries about the same work.
    const std::size_t sides[] = {512, 592, 672, 752};
    cases_.assign(kBatchJobs, Case{});
    pixels_ = 0;
    for (std::size_t i = 0; i < kBatchJobs; ++i) {
      const std::size_t kind = i % 4;
      const std::size_t size = (i / 4 + kind) % 4;
      const std::size_t w = sides[size];
      const std::size_t h = sides[(size + kind) % 4];
      cases_[i].image = photo(w, h, rng.next_u64());
      cases_[i].params = job_params(kind);
      pixels_ += w * h;
    }
    // The oracles are independent; run them on up to four threads.
    {
      std::vector<std::thread> pool;
      const std::size_t n = std::min<std::size_t>(
          4, std::max(1u, std::thread::hardware_concurrency()));
      for (std::size_t t = 0; t < n; ++t) {
        pool.emplace_back([this, t, n] {
          for (std::size_t i = t; i < kBatchJobs; i += n) run_oracle(cases_[i]);
        });
      }
      for (auto& th : pool) th.join();
    }

    batch_ = Batch{};
    batch_.options = service_options();
    for (std::size_t i = 0; i < kBatchJobs; ++i) {
      service::EncodeJob job;
      job.image = cases_[i].image;
      job.params = cases_[i].params;
      job.name = "job" + std::to_string(i);
      batch_.jobs.push_back(std::move(job));
      batch_.oracle_sha.push_back(cases_[i].oracle_sha);
    }
    // Warm-up with every job arriving at once: its replayed throughput is
    // the saturation rate the open-loop arrivals are set just below.
    const service::ServiceResult warm = run_batch(batch_);
    const std::string err = check_batch(batch_, warm);
    if (!err.empty()) throw std::runtime_error("setup: " + err);
    const double rate = kServiceLoad * warm.summary.jobs_per_sec;
    // Job i arrives at a seeded point of the middle half of its slot
    // [i, i+1) / rate.
    for (std::size_t i = 0; i < kBatchJobs; ++i) {
      batch_.jobs[i].arrival_seconds =
          (static_cast<double>(i) + 0.25 + 0.5 * rng.next_double()) / rate;
    }

    if (traced) {
      sweep_.machine = service::SpePool(batch_.options.machine,
                                        batch_.options.group_spes)
                           .lease_config(1);
      const std::size_t primary = kLossyJob;
      traced_setup(cases_[primary], warm.jobs[primary].pipeline, tiled_,
                   sweep_);
      for (const auto& jr : warm.jobs) {
        sweep_.stages.insert(sweep_.stages.end(), jr.pipeline.stages.begin(),
                             jr.pipeline.stages.end());
      }
      sweep_.batch = &batch_;
    }
  }

  OpOutcome run_op(bool corrupt) override {
    OpOutcome o;
    Timer call;
    service::ServiceResult r = run_batch(batch_);
    o.wall_ms = call.millis();
    if (corrupt) flip_byte(r.jobs[0].pipeline.codestream);
    o.error = check_batch(batch_, r);
    o.ok = o.error.empty();
    o.sim = {r.makespan_seconds, r.summary.jobs_per_sec, r.summary.p50_latency,
             r.summary.p99_latency, r.summary.pool_occupancy,
             static_cast<double>(r.summary.steals)};
    sim_ = {r.makespan_seconds, r.summary.jobs_per_sec, r.summary.p99_latency};
    return o;
  }

  double megapixels_per_op() const override {
    return static_cast<double>(pixels_) / 1e6;
  }
  double jobs_per_op() const override { return kBatchJobs; }
  SimFigures sim() const override { return sim_; }
  const SweepInputs& sweep() const override { return sweep_; }
  MainPart main_part() const override { return MainPart::kService; }

 private:
  /// Job i is of kind i % 4: lossless EBCOT, lossless HT, lossy EBCOT,
  /// 2x2-tiled lossy EBCOT.  The first lossy EBCOT job is the traced run's
  /// primary case.
  static constexpr std::size_t kLossyJob = 2;
  static jp2k::CodingParams job_params(std::size_t kind) {
    switch (kind) {
      case 0: return jp2k::CodingParams{};
      case 1: return lossless_ht();
      case 2: return lossy_ebcot(1);
      default: return tiled_2x2(lossy_ebcot(1));
    }
  }

  std::vector<Case> cases_;
  Case tiled_;
  Batch batch_;
  SweepInputs sweep_;
  std::size_t pixels_ = 0;
  SimFigures sim_;
};

}  // namespace

void run_oracle(Case& c) {
  Timer t;
  const Bytes b = jp2k::encode(*c.image, c.params, &c.oracle_stats);
  c.oracle_ms = t.millis();
  c.oracle_sha = common::sha256_hex(b);
}

service::ServiceResult run_batch(const Batch& b) {
  service::EncodeService svc(b.options);
  for (const auto& job : b.jobs) svc.submit(job);
  return svc.run();
}

std::string check_batch(const Batch& b, const service::ServiceResult& r) {
  if (r.jobs.size() != b.jobs.size()) return "service lost jobs";
  for (std::size_t i = 0; i < r.jobs.size(); ++i) {
    if (common::sha256_hex(r.jobs[i].pipeline.codestream) != b.oracle_sha[i]) {
      return "service job " + std::to_string(i) +
             " differs from the serial oracle";
    }
  }
  return {};
}

std::string image_sha(const Image& img) {
  Bytes bytes;
  bytes.reserve(img.total_samples() * sizeof(Sample));
  for (std::size_t c = 0; c < img.components(); ++c) {
    for (std::size_t y = 0; y < img.height(); ++y) {
      const auto* row =
          reinterpret_cast<const std::uint8_t*>(img.plane(c).row(y));
      bytes.insert(bytes.end(), row, row + img.width() * sizeof(Sample));
    }
  }
  return common::sha256_hex(bytes);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "lossy_ebcot_photo", "lossless_ht_photo", "service_mixed",
      "decode_layers"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "lossy_ebcot_photo") {
    return std::make_unique<EncodeWorkload>(lossy_ebcot(3));
  }
  if (name == "lossless_ht_photo") {
    return std::make_unique<EncodeWorkload>(lossless_ht());
  }
  if (name == "service_mixed") return std::make_unique<ServiceWorkload>();
  if (name == "decode_layers") return std::make_unique<DecodeWorkload>();
  return nullptr;
}

}  // namespace perfbench
