// Benchmark workloads: seeded inputs, the serial-oracle digests every
// operation is checked against, and one timed operation each.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cell/machine.hpp"
#include "image/image.hpp"
#include "jp2k/codestream.hpp"
#include "jp2k/encoder.hpp"
#include "service/encode_service.hpp"
#include "spans.hpp"

namespace perfbench {

using Bytes = std::vector<std::uint8_t>;

/// One (image, params) pair and what the serial jp2k::encode oracle made
/// of it.
struct Case {
  std::shared_ptr<const cj2k::Image> image;
  cj2k::jp2k::CodingParams params;
  std::string oracle_sha;
  cj2k::jp2k::EncodeStats oracle_stats;
  double oracle_ms = 0;
};

/// Encodes `c` with the serial oracle and records its digest and stats.
void run_oracle(Case& c);

/// A service batch with the oracle digest of every job.
struct Batch {
  cj2k::service::ServiceOptions options;
  std::vector<cj2k::service::EncodeJob> jobs;
  std::vector<std::string> oracle_sha;  ///< Parallel to `jobs`.
};

cj2k::service::ServiceResult run_batch(const Batch& b);
/// Empty when every job's bytes match its oracle, else the first mismatch.
std::string check_batch(const Batch& b, const cj2k::service::ServiceResult& r);

/// SHA-256 over the samples of every plane (padding excluded).
std::string image_sha(const cj2k::Image& img);

/// Outcome of one operation.  A failure is an exception or an output that
/// differs from the oracle.
struct OpOutcome {
  /// Wall milliseconds of the library call alone, without the check.
  double wall_ms = 0;
  bool ok = true;
  std::string error;
  /// Simulated-clock values of the operation; they must repeat exactly
  /// across the operations of a run.
  std::vector<double> sim;
};

/// Simulated-clock end-to-end figures of the workload's operation.
struct SimFigures {
  double seconds = 0;
  double jobs_per_s = 0;
  double p99_latency_s = 0;
};

/// What the traced run's layer sweep needs from a workload (layers.cpp).
struct SweepInputs {
  cj2k::cell::MachineConfig machine;
  const Case* primary = nullptr;  ///< Single tile; the encode composed.
  const Case* tiled = nullptr;    ///< Same image and params, 2x2 tiles.
  std::string decode_sha;         ///< Reference decode of primary's bytes.
  const Batch* batch = nullptr;
  /// Stage timings of the workload's own untraced operation(s); the source
  /// of the per-stage simulated metrics.
  std::vector<cj2k::cell::StageTiming> stages;
};

/// Which part of the sweep is the workload's own operation, for
/// trace.overhead_ratio.
enum class MainPart { kEncode, kDecode, kService };

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input from `seed` and the oracle digests.  `traced`
  /// adds what the layer sweep needs beyond the workload's own operation.
  virtual void setup(std::uint64_t seed, bool traced) = 0;
  /// One untraced operation.  `corrupt` damages one byte of the output
  /// (or, for decode, of the input codestream) before the check, which the
  /// check must then reject.
  virtual OpOutcome run_op(bool corrupt) = 0;
  virtual double megapixels_per_op() const = 0;
  virtual double jobs_per_op() const = 0;
  /// Figures of the last run_op.
  virtual SimFigures sim() const = 0;
  virtual const SweepInputs& sweep() const = 0;
  virtual MainPart main_part() const = 0;
};

/// Null when `name` is not a workload.
std::unique_ptr<Workload> make_workload(const std::string& name);
const std::vector<std::string>& workload_names();

/// One traced operation: every layer's public entry points called under
/// spans, per-layer values added to `out`.  Returns the wall milliseconds
/// of the part that equals the workload's own operation.
double layer_sweep(const SweepInputs& in, MainPart main, SpanRecorder& rec,
                   Samples& out, OpOutcome& outcome);

/// Per-layer metric names and units, in report order.
struct MetricName {
  std::string name;
  std::string unit;
};
std::vector<MetricName> per_layer_metrics();

}  // namespace perfbench
