#include "spans.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder& rec, std::string name)
    : rec_(rec), id_(static_cast<int>(rec.spans_.size())) {
  Span s;
  s.name = std::move(name);
  s.parent = rec.open_.empty() ? -1 : rec.open_.back();
  s.op = rec.op_;
  s.start_us = rec.now_us();
  rec.spans_.push_back(std::move(s));
  rec.open_.push_back(id_);
}

double SpanRecorder::Scope::stop() {
  Span& s = rec_.spans_[static_cast<std::size_t>(id_)];
  if (open_) {
    s.end_us = rec_.now_us();
    open_ = false;
    // Scopes nest lexically, so this span is the innermost open one.
    rec_.open_.pop_back();
  }
  return (s.end_us - s.start_us) / 1e3;
}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

void SpanRecorder::write_chrome_json(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"ts\":0,\"args\":{\"name\":\"perfbench caller\"}}";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d,"
                  "\"op\":%d},\"name\":\"",
                  s.start_us, s.end_us - s.start_us, i, s.parent, s.op);
    os << buf << s.name << "\"}";
  }
  os << "\n]}\n";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Samples::median(const std::string& name) const {
  const auto it = data_.find(name);
  return it == data_.end() ? 0.0 : perfbench::median(it->second);
}

}  // namespace perfbench
