// The benchmark's workloads and the report each run fills.
//
// A run measures whole rounds of one workload's operations until
// `seconds` have passed. Timed figures are medians over the run's
// repetitions after warm-up; their within-run quartiles are printed beside
// them. With trace on, the run records spans instead and reports the
// per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Clock::time_point process_start{};  ///< for setup_s
  std::string scratch_dir;            ///< shards and traces go below this
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Summary spread;  ///< within-run repetitions the value summarises
  std::string note;
  bool in_result = true;  ///< false: printed beside the result, not in it
};

class Report {
 public:
  /// A timed figure: the median of `samples`, scaled by `scale`.
  void timed(const std::string& name, const std::vector<double>& samples,
             const std::string& unit, double scale = 1.0, const std::string& note = "");
  /// A figure that is not a median over repetitions (a count, a ratio).
  void value(const std::string& name, double value, const std::string& unit,
             const std::string& note = "");
  /// A timed figure printed for the reader but left out of the result line
  /// (e.g. a traced run's end-to-end figures, to show tracing overhead).
  void aside(const std::string& name, const std::vector<double>& samples,
             const std::string& unit, double scale = 1.0, const std::string& note = "");
  void aside_value(const std::string& name, double value, const std::string& unit,
                   const std::string& note = "");
  /// A figure combined from other summaries (see geometric_mean); printed
  /// with the quartiles it was combined from.
  void combined(const std::string& name, const Summary& summary, const std::string& unit,
                const std::string& note = "", bool in_result = true);

  /// A correctness check on an operation's output.
  void check(bool ok, const std::string& what);
  /// An operation whose failure is a known program fault (see CHANGES.md).
  void op_failed(const std::string& what);
  void attempted(std::uint64_t n = 1) { attempted_ += n; }

  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::uint64_t attempts() const { return attempted_; }
  [[nodiscard]] std::uint64_t failures() const { return failed_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t reported_ = 0;  ///< messages printed so far (capped)
  std::vector<Metric> metrics_;
};

/// Geometric mean of summaries, quartile by quartile: one figure that
/// weighs each size or operation alike, whatever its scale.
Summary geometric_mean(const std::vector<Summary>& parts);

/// Seconds since the process started, read from the kernel's record of the
/// start time (falls back to `fallback` when /proc is unavailable).
double seconds_since_process_start(Clock::time_point fallback);
/// CPU seconds (user + system) this process has used so far.
double process_cpu_seconds();
/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Each workload sets up, warms up, reports setup_s (from process start to
/// the first timed operation) and then measures.
void run_solve_sweep(const RunOptions& options, Tracer& tracer, Report& report);
void run_serve_tcp(const RunOptions& options, Tracer& tracer, Report& report);
void run_form_write(const RunOptions& options, Tracer& tracer, Report& report);

}  // namespace perfbench
