#include <cmath>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <sys/resource.h>
#include <unistd.h>

#include "workloads.hpp"

namespace perfbench {

namespace {
constexpr std::size_t kMaxMessages = 8;
}

void Report::timed(const std::string& name, const std::vector<double>& samples,
                   const std::string& unit, double scale, const std::string& note) {
  std::vector<double> scaled(samples);
  for (double& s : scaled) s *= scale;
  Metric m;
  m.name = name;
  m.spread = summarize(std::move(scaled));
  m.value = m.spread.median;
  m.unit = unit;
  m.note = note;
  metrics_.push_back(std::move(m));
}

void Report::aside(const std::string& name, const std::vector<double>& samples,
                   const std::string& unit, double scale, const std::string& note) {
  timed(name, samples, unit, scale, note);
  metrics_.back().in_result = false;
}

void Report::aside_value(const std::string& name, double value, const std::string& unit,
                         const std::string& note) {
  this->value(name, value, unit, note);
  metrics_.back().in_result = false;
}

void Report::combined(const std::string& name, const Summary& summary, const std::string& unit,
                      const std::string& note, bool in_result) {
  Metric m;
  m.name = name;
  m.spread = summary;
  m.value = summary.median;
  m.unit = unit;
  m.note = note;
  m.in_result = in_result;
  metrics_.push_back(std::move(m));
}

Summary geometric_mean(const std::vector<Summary>& parts) {
  Summary g;
  if (parts.empty()) return g;
  double q1 = 0.0, median = 0.0, q3 = 0.0;
  for (const Summary& p : parts) {
    q1 += std::log(p.q1);
    median += std::log(p.median);
    q3 += std::log(p.q3);
    g.count += p.count;
  }
  const double k = static_cast<double>(parts.size());
  g.q1 = std::exp(q1 / k);
  g.median = std::exp(median / k);
  g.q3 = std::exp(q3 / k);
  return g;
}

void Report::value(const std::string& name, double value, const std::string& unit,
                   const std::string& note) {
  Metric m;
  m.name = name;
  m.value = value;
  m.unit = unit;
  m.note = note;
  metrics_.push_back(std::move(m));
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  if (reported_++ < kMaxMessages) std::cerr << "perfbench: check failed: " << what << "\n";
}

void Report::op_failed(const std::string& what) {
  ++failed_;
  if (reported_++ < kMaxMessages) std::cerr << "perfbench: operation failed: " << what << "\n";
}

double seconds_since_process_start(Clock::time_point fallback) {
  const double since_main = seconds_between(fallback, Clock::now());
  std::ifstream in("/proc/self/stat");
  std::string stat;
  std::getline(in, stat);
  // Field 22 (starttime, clock ticks after boot) follows the ")" that ends
  // the command name; it is the 20th field after it.
  const std::size_t close = stat.rfind(')');
  timespec boot{};
  if (close == std::string::npos || clock_gettime(CLOCK_BOOTTIME, &boot) != 0) return since_main;
  std::istringstream fields(stat.substr(close + 1));
  std::string field;
  for (int f = 0; f < 20 && fields >> field; ++f) {
  }
  if (!fields) return since_main;
  const double started = std::stod(field) / static_cast<double>(sysconf(_SC_CLK_TCK));
  const double now = static_cast<double>(boot.tv_sec) + 1e-9 * static_cast<double>(boot.tv_nsec);
  const double elapsed = now - started;
  // The kernel's record has clock-tick resolution; distrust anything that
  // disagrees with the in-process clock by more than a tick or two.
  return (elapsed >= since_main && elapsed < since_main + 0.05) ? elapsed : since_main;
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
