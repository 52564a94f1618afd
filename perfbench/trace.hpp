// In-memory spans and summaries for the benchmark.
//
// A traced run wraps every call the benchmark makes into a Parma module in a
// span (name, start, end, parent span, request id). Spans live in memory
// until the run ends, when write_jsonl() dumps them one JSON object per line;
// the per-layer metrics are medians over the durations of same-named spans.
// With tracing off, begin() and end() return at once and record nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median and quartiles of a sample, as Python's
/// statistics.quantiles(values, n=4) (exclusive method) gives them; a
/// sample of one reports that value for all three.
struct Summary {
  std::size_t count = 0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Summary summarize(std::vector<double> values);

/// Nearest-rank percentile (p in (0, 100]) of a sample; 0 for an empty one.
double percentile(std::vector<double> values, double p);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = a root span
  std::uint64_t request = 0;  ///< 0 = not tied to one request
  std::string name;
  Clock::time_point start{};
  Clock::time_point end{};
};

/// Thread-safe span recorder; spans may end on another thread than began
/// them (a serving completion callback ends the span its submitter began).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when tracing is off).
  std::uint64_t begin(const std::string& name, std::uint64_t parent = 0,
                      std::uint64_t request = 0, Clock::time_point start = Clock::now());
  /// Closes span `id` (no-op for 0).
  void end(std::uint64_t id, Clock::time_point at = Clock::now());

  /// Durations in seconds of every closed span named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  [[nodiscard]] std::size_t size() const;

  /// One JSON object per span: name, start/end in ns from the tracer's
  /// creation, id, parent, request.
  void write_jsonl(const std::string& path) const;

  /// RAII span over a scope.
  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name, std::uint64_t parent = 0,
          std::uint64_t request = 0)
        : tracer_(tracer), id_(tracer.begin(name, parent, request)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::uint64_t id_;
  };

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< spans_[id - 1]
};

/// Paces a run in whole rounds: another round starts only while the mean
/// round so far still fits in the budget, so a run ends near `seconds`
/// without cutting a round short. The first round always runs.
class Rounds {
 public:
  explicit Rounds(double seconds) : budget_(seconds), start_(Clock::now()) {}
  bool next() {
    const double elapsed = seconds_between(start_, Clock::now());
    if (done_ > 0 && elapsed + elapsed / static_cast<double>(done_) > budget_) return false;
    ++done_;
    return true;
  }

 private:
  double budget_;
  Clock::time_point start_;
  int done_ = 0;
};

/// Runs `body` inside a span named `name` and returns what it returns.
template <class Body>
auto traced(Tracer& tracer, const std::string& name, Body&& body) {
  Tracer::Scope span(tracer, name);
  return body();
}

}  // namespace perfbench
