#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

// Python's statistics.quantiles(data, n=4) cut point i (1..3), exclusive
// method, on a sorted sample of at least two values.
double quartile(const std::vector<double>& sorted, long i) {
  const long ld = static_cast<long>(sorted.size());
  const long m = ld + 1;
  const long j = std::clamp(i * m / 4, 1L, ld - 1);
  const auto delta = static_cast<double>(i * m - j * 4);
  return (sorted[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
          sorted[static_cast<std::size_t>(j)] * delta) / 4.0;
}

}  // namespace

Summary summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  s.median = (values.size() % 2 == 1) ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
  s.q1 = s.q3 = s.median;
  if (values.size() >= 2) {
    s.q1 = quartile(values, 1);
    s.q3 = quartile(values, 3);
  }
  return s;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::uint64_t Tracer::begin(const std::string& name, std::uint64_t parent,
                            std::uint64_t request, Clock::time_point start) {
  if (!enabled_) return 0;
  std::lock_guard lock(mu_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start = start;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id, Clock::time_point at) {
  if (id == 0) return;
  std::lock_guard lock(mu_);
  spans_.at(id - 1).end = at;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end >= s.start && s.end != Clock::time_point{}) {
      out.push_back(seconds_between(s.start, s.end));
    }
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

void Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  };
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << ns(s.start)
        << ",\"end_ns\":" << ns(s.end) << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

}  // namespace perfbench
