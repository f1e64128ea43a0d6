// In-memory span recorder for the traced run, plus the per-layer sample
// table the spans feed.
//
// Spans are opened and closed by the benchmark's own code around each call
// into a library layer, so every layer is measured from outside.  They are
// kept in memory and written once, at the end, as Chrome trace-event JSON
// (loads in ui.perfetto.dev).
#pragma once

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;  ///< Index of the enclosing span, -1 at top level.
  int op = 0;       ///< Operation id the span belongs to.
};

class SpanRecorder {
 public:
  /// Closes the span on scope exit unless stop() already did.
  class Scope {
   public:
    Scope(SpanRecorder& rec, std::string name);
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Closes the span; returns its duration in milliseconds.
    double stop();

   private:
    SpanRecorder& rec_;
    int id_;
    bool open_ = true;
  };

  Scope scope(std::string name) { return Scope(*this, std::move(name)); }
  void set_op(int op) { op_ = op; }
  std::size_t size() const { return spans_.size(); }
  void write_chrome_json(std::ostream& os) const;

 private:
  double now_us() const;

  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< Stack of open span indices.
  int op_ = 0;
};

/// Per-metric samples, one per traced operation; reported as medians.
class Samples {
 public:
  void add(const std::string& name, double v) { data_[name].push_back(v); }
  /// Median of the samples; 0 when the metric was never recorded.
  double median(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> data_;
};

double median(std::vector<double> v);

}  // namespace perfbench
