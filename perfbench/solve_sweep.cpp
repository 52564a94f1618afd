// solve_sweep: one caller recovers generated devices one at a time through
// core::Session::recover -- the default Levenberg-Marquardt solver with 4
// workers -- at n = 16, 24 and 32. An operation is one device, timed from the
// Session build to a converged field: the wait a lab user sees. solver,
// linalg and equations do nearly all the work here; serve, net, formation
// and disk I/O do none.
//
//   latency_ms        geometric mean over the three sizes of the median
//                     wall time per device
//   throughput_per_s  resistance cells recovered per second: sum of n^2 over
//                     the run's devices / their summed wall time
//   cpu_ms_per_op     geometric mean over the sizes of the median process
//                     CPU time per device
//
// The traced run adds, once per round, the common layer probes (layers.hpp)
// and the solver's layers at n = 24 and 32, printed beside the result.
#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "checks.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr Index kSizes[] = {16, 24, 32};
// One round (about 10 s on a 4-core host): one device at n = 32, one at
// n = 24 and four at n = 16, interleaved so that a slow spell on the host
// lands on every size alike. A short round lets a run hold three, so each
// size's median is taken over at least three devices.
constexpr Index kRound[] = {32, 16, 16, 24, 16, 16};
constexpr Index kWorkers = 4;
// Sizes whose solver layers the traced run probes beside the common probes.
constexpr Index kProbedSizes[] = {24, 32};

std::string tag(Index n) { return ".n" + std::to_string(n); }

}  // namespace

void run_solve_sweep(const RunOptions& options, Tracer& tracer, Report& report) {
  InputRng rng(options.seed);

  // Warm-up: the first solves of a process run slower (allocator growth,
  // first thread-pool start); one full solve at the two small sizes and a
  // one-iteration solve at the largest take that cost before timing.
  for (const Index n : kSizes) {
    parma::solver::InverseOptions warm;
    if (n == 32) warm.max_iterations = 1;
    const Device device = make_device(n, rng);
    const Recovery r = recover(device, kWorkers, warm);
    if (n != 32) check_recovery(report, device, r.result, "warm-up" + tag(n));
  }
  if (!options.trace) {
    report.value("setup_s", seconds_since_process_start(options.process_start), "s");
  }
  std::unique_ptr<LayerProbes> probes;
  if (options.trace) probes = std::make_unique<LayerProbes>(options.seed, options.scratch_dir, tracer, report);

  std::map<Index, std::vector<double>> wall, cpu, iterations;
  double cells = 0.0, busy = 0.0;
  Rounds rounds(options.seconds);
  while (rounds.next()) {
    std::map<Index, bool> probed;
    for (const Index n : kRound) {
      const Device device = make_device(n, rng);
      report.attempted();
      Recovery r;
      try {
        Tracer::Scope span(tracer, "core.session_recover" + tag(n));
        r = recover(device, kWorkers);
      } catch (const std::exception& e) {
        report.op_failed("recovery" + tag(n) + " threw: " + e.what());
        continue;
      }
      check_recovery(report, device, r.result, "recovery" + tag(n));
      wall[n].push_back(r.seconds);
      cpu[n].push_back(r.cpu_seconds);
      iterations[n].push_back(static_cast<double>(r.result.iterations));
      cells += static_cast<double>(n * n);
      busy += r.seconds;
      if (options.trace && n != 16 && !probed[n]) {
        probed[n] = true;
        (void)probe_solver_layers(device, tag(n), tracer, report);
      }
    }
    if (probes) probes->round();
  }

  const bool e2e = !options.trace;  // a traced run prints them beside its result
  const char* note = e2e ? "" : "traced";
  std::vector<Summary> wall_parts, cpu_parts;
  for (const Index n : kSizes) {
    wall_parts.push_back(summarize(wall[n]));
    cpu_parts.push_back(summarize(cpu[n]));
    report.aside("solve_s" + tag(n), wall[n], "s", 1.0, note);
  }
  const auto ms = [](Summary s) {
    s.q1 *= 1e3;
    s.median *= 1e3;
    s.q3 *= 1e3;
    return s;
  };
  report.combined("latency_ms", ms(geometric_mean(wall_parts)), "ms",
                  "geometric mean of the per-size median solve times", e2e);
  const double rate = busy > 0.0 ? cells / busy : 0.0;
  if (e2e) {
    report.value("throughput_per_s", rate, "1/s", "resistance cells recovered per second");
  } else {
    report.aside_value("throughput_per_s", rate, "1/s", "traced");
  }
  report.combined("cpu_ms_per_op", ms(geometric_mean(cpu_parts)), "ms",
                  "geometric mean of the per-size median CPU per device", e2e);
  if (e2e) return;

  for (const Index n : kProbedSizes) {
    report.aside_value("solver.lm_iterations" + tag(n), summarize(iterations[n]).median, "count");
    report_solver_layers(tag(n), n, "s", false, tracer, report);
  }
  probes->report_metrics();
}

}  // namespace perfbench
