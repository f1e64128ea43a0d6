// perfbench: the cellj2k repository benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--corrupt 1] [--stamp <commit>]
//
// A closed loop with one caller runs the workload's operation for
// --seconds and checks every result against the serial jp2k::encode
// oracle.  --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics of a separate traced run and writes its spans as
// Chrome trace-event JSON to .bench_build/perfbench/.  --corrupt 1 damages every operation's
// codestream before the check (the self-check uses it: every operation
// must then count as failed).  The last stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "common/timer.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Setups per run; setup_s is their median.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt = false;
  std::string stamp = "unknown";
};

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--corrupt 1] [--stamp <commit>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--corrupt") {
      a.corrupt = val == "1";
    } else if (key == "--stamp") {
      a.stamp = val;
    } else {
      usage("unknown argument " + key);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

/// Runs operations, counting failures and checking that the simulated
/// values repeat exactly from one operation to the next.
class Tally {
 public:
  /// Operations of one `phase` share a reference for the simulated values.
  void record(OpOutcome o, const std::string& phase) {
    ++attempted_;
    if (o.ok && !o.sim.empty()) {
      const auto [it, first] = reference_.emplace(phase, o.sim);
      if (!first && o.sim != it->second) {
        o.ok = false;
        o.error = "simulated values differ from the first operation";
      }
    }
    if (!o.ok) {
      ++failed_;
      if (failed_ <= 3) {
        std::cout << "failure (" << phase << " op " << attempted_
                  << "): " << o.error << "\n";
      }
    }
  }
  void record_exception(const std::exception& e, const std::string& phase) {
    OpOutcome o;
    o.ok = false;
    o.error = std::string("exception: ") + e.what();
    record(std::move(o), phase);
  }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }

 private:
  long attempted_ = 0;
  long failed_ = 0;
  std::map<std::string, std::vector<double>> reference_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The highest percentile with at least ten samples above it, and its
/// value; the median when there are ten samples or fewer.
std::pair<double, double> tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) return {50.0, median(v)};
  return {100.0 * static_cast<double>(n - 10) / static_cast<double>(n),
          v[n - 11]};
}

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("failed_ratio %.6g (%ld of %ld operations)\n",
              t.attempted() > 0 ? static_cast<double>(t.failed()) /
                                      static_cast<double>(t.attempted())
                                : 0.0,
              t.failed(), t.attempted());
  std::string json = "{\"correct\": ";
  json += t.failed() == 0 && t.attempted() > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(t.attempted());
  json += ", \"failed\": " + std::to_string(t.failed());
  json += ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// One untraced operation: its wall time goes to `walls` (the whole call
/// when it throws), its outcome to `tally`.
void run_untraced_op(Workload& w, bool corrupt, const char* phase,
                     Tally& tally, std::vector<double>& walls) {
  cj2k::Timer op;
  try {
    OpOutcome o = w.run_op(corrupt);
    walls.push_back(o.wall_ms);
    tally.record(std::move(o), phase);
  } catch (const std::exception& e) {
    walls.push_back(op.millis());
    tally.record_exception(e, phase);
  }
}

std::unique_ptr<Workload> set_up(const Args& a, std::vector<double>& times) {
  std::unique_ptr<Workload> w;
  const int setups = a.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    w.reset();  // Free the previous set-up before timing the next.
    cj2k::Timer t;
    w = make_workload(a.workload);
    w->setup(a.seed, a.trace);
    times.push_back(t.seconds());
  }
  return w;
}

int run_end_to_end(const Args& a) {
  std::vector<double> setup_times;
  std::unique_ptr<Workload> w = set_up(a, setup_times);

  Tally tally;
  std::vector<double> walls;
  const double cpu0 = cpu_seconds();
  cj2k::Timer loop;
  while (loop.seconds() < a.seconds) {
    run_untraced_op(*w, a.corrupt, "timed", tally, walls);
  }
  // Throughput counts the time spent in the library, not in the checks.
  double call_s = 0;
  for (double ms : walls) call_s += ms / 1e3;
  const double cpu_s = cpu_seconds() - cpu0;
  const double ops = static_cast<double>(walls.size());
  const auto [tail_pct, tail_ms] = tail(walls);
  const SimFigures sim = w->sim();

  std::printf("setup_s samples:");
  for (double s : setup_times) std::printf(" %.4f", s);
  std::printf("\noperation wall ms:");
  for (double ms : walls) std::printf(" %.1f", ms);
  std::printf("\nwall_ms_tail is p%.1f of %zu samples\n", tail_pct,
              walls.size());
  print_result(
      tally,
      {{"setup_s", median(setup_times), "s"},
       {"mpix_per_s", w->megapixels_per_op() * ops / call_s, "Mpix/s"},
       {"wall_ms_p50", median(walls), "ms"},
       {"wall_ms_tail", tail_ms, "ms"},
       {"cpu_ms_per_op", cpu_s * 1e3 / ops, "ms"},
       {"jobs_per_s", w->jobs_per_op() * ops / call_s, "1/s"},
       {"sim_s", sim.seconds, "sim_s"},
       {"sim_jobs_per_s", sim.jobs_per_s, "1/sim_s"},
       {"sim_p99_latency_s", sim.p99_latency_s, "sim_s"},
       {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return 0;
}

int run_traced(const Args& a) {
  std::vector<double> setup_times;
  std::unique_ptr<Workload> w = set_up(a, setup_times);

  // Untraced operations first: the base of trace.overhead_ratio.
  Tally tally;
  std::vector<double> untraced;
  cj2k::Timer loop;
  while (untraced.size() < 2 || loop.seconds() < a.seconds / 3) {
    run_untraced_op(*w, a.corrupt, "untraced", tally, untraced);
  }

  SpanRecorder rec;
  Samples samples;
  std::vector<double> traced_main;
  for (int op = 0; op == 0 || loop.seconds() < a.seconds; ++op) {
    rec.set_op(op);
    auto op_span = rec.scope("perfbench.op");
    OpOutcome o;
    try {
      traced_main.push_back(
          layer_sweep(w->sweep(), w->main_part(), rec, samples, o));
      tally.record(std::move(o), "traced");
    } catch (const std::exception& e) {
      tally.record_exception(e, "traced");
    }
  }

  const std::string dir = ".bench_build/perfbench";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/trace-" + a.workload + "-" +
                           std::to_string(a.seed) + ".json";
  std::ofstream os(path, std::ios::binary);
  rec.write_chrome_json(os);
  std::printf("trace: %zu spans written to %s\n", rec.size(), path.c_str());

  samples.add("trace.overhead_ratio",
              median(traced_main) / median(untraced));
  std::vector<Metric> metrics;
  for (const auto& m : per_layer_metrics()) {
    metrics.push_back({m.name, samples.median(m.name), m.unit});
  }
  print_result(tally, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (!make_workload(a.workload)) usage("unknown workload " + a.workload);
  std::printf("host {\"isa\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"commit\": \"%s\"}\n",
              cj2k::backend::native_isa(), std::thread::hardware_concurrency(),
              __VERSION__, PERFBENCH_BUILD_TYPE, a.stamp.c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  try {
    return a.trace ? run_traced(a) : run_end_to_end(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: setup failed: " << e.what() << "\n";
    return 1;
  }
}
