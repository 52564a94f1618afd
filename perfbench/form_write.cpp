// form_write: the paper's own workload, in two operations per round.
//
//   1. Form the 2n^3 joint-constraint system with the fine-grained
//      (PyMP-4) strategy at n = 100, streamed (keep_system = false): compute
//      only. (form_eq_per_s beside the result)
//   2. The Fig. 9 pipeline at n = 48 through core::Session::write: form in
//      memory, then write 4 shards. (write_mb_per_s beside the result:
//      bytes written over the wall time of the whole call)
//
//   latency_ms        geometric mean of the two operations' median wall times
//   throughput_per_s  equations per second: the 2n^3 of both operations over
//                     their wall time, median over rounds
//   cpu_ms_per_op     geometric mean of the two operations' median process
//                     CPU times
//
// equations, exec and core do the work; the solver does none. The n = 48
// devices come from a fixed stream, not from the seed: every write fails the
// same check (the banner fault, see check_write) whatever the seed. The
// traced run adds, once per round, the common layer probes (layers.hpp) and
// serialising the n = 48 system into memory.
#include <filesystem>
#include <memory>
#include <sstream>
#include <unistd.h>

#include "checks.hpp"
#include "core/session.hpp"
#include "equations/serializer.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = parma::core;

constexpr Index kStreamN = 100;
constexpr Index kWriteN = 48;
constexpr Index kWorkers = 4;  // also the shard count of Session::write
// Seed of the n = 48 devices' stream.
constexpr std::uint64_t kWriteSeed = 48;
// Pairs of each n = 48 system whose equations are checked at the truth.
constexpr int kSamplePairs = 16;

std::uint64_t cube2(Index n) { return 2 * static_cast<std::uint64_t>(n) * n * n; }

core::Session fine_grained(const Device& device, Index workers, bool keep) {
  return core::Session::on(device.measurement)
      .strategy(core::Strategy::kFineGrained)
      .workers(workers)
      .keep_system(keep)
      .build();
}

/// Checks a streamed formation: it keeps no equations, and its footprint is
/// n^2 times that of one pair, so every pair was formed exactly once; one
/// pair's 2n equations times n^2 pairs gives the 2n^3 census.
void check_streamed(Report& report, const Device& device, const core::FormationResult& f) {
  const Index n = device.truth.rows();
  const parma::equations::UnknownLayout layout(device.measurement.spec);
  const auto pair = parma::equations::generate_pair_equations(layout, device.measurement, 0, 0);
  std::uint64_t pair_bytes = 0;
  for (const auto& eq : pair) pair_bytes += eq.footprint_bytes();
  const std::string t = " at n=" + std::to_string(n);
  report.check(f.system.equations.empty(), "streamed formation kept its equations" + t);
  report.check(pair.size() * static_cast<std::uint64_t>(n * n) == cube2(n),
               "pair equation count times n^2 is not 2n^3" + t);
  report.check(f.equation_bytes == pair_bytes * static_cast<std::uint64_t>(n * n),
               "streamed footprint " + std::to_string(f.equation_bytes) +
                   " is not n^2 pairs of " + std::to_string(pair_bytes) + " bytes" + t);
}

/// Checks one Session::write: the census, a seeded sample of pairs at the
/// truth, and the shards on disk against the reported sizes.
void check_write(Report& report, const Device& device, const core::IoResult& io, InputRng& rng) {
  const Index n = device.truth.rows();
  const auto& eqs = io.formation.system.equations;
  report.check(eqs.size() == cube2(n), "n=48 system holds " + std::to_string(eqs.size()) +
                                           " equations, not 2n^3");
  const GroundedInverse inverse(device.truth);
  for (int s = 0; s < kSamplePairs; ++s) {
    const auto p = static_cast<Index>(rng.next() % static_cast<std::uint64_t>(n * n));
    const std::string why = check_pair_equations(io.formation.system, device.truth, inverse,
                                                 device.measurement.spec.drive_voltage, p / n, p % n);
    report.check(why.empty(), why);
  }
  const ShardAudit audit = audit_shards(io.shard_paths);
  report.check(io.shard_paths.size() == static_cast<std::size_t>(kWorkers), "shard count");
  switch (judge_shards(audit, io.bytes_written, cube2(n))) {
    case ShardVerdict::kOk:
      break;
    case ShardVerdict::kBannerUncounted:
      // A fault of the program, the same on every write: bytes_written
      // leaves out the '#' banner line that opens each shard.
      report.op_failed("bytes_written " + std::to_string(io.bytes_written) + " != " +
                       std::to_string(audit.disk_bytes) + " bytes on disk (banners uncounted)");
      break;
    case ShardVerdict::kMismatch:
      report.check(false, "shards hold " + std::to_string(audit.equation_lines) +
                              " equation lines in " + std::to_string(audit.disk_bytes) +
                              " bytes; reported " + std::to_string(io.bytes_written) +
                              " bytes of 2n^3 equations");
      break;
  }
}

}  // namespace

void run_form_write(const RunOptions& options, Tracer& tracer, Report& report) {
  InputRng rng(options.seed);
  InputRng write_rng(kWriteSeed);
  const std::filesystem::path shard_root =
      std::filesystem::path(options.scratch_dir) / ("shards-" + std::to_string(::getpid()));
  // Every shard this run writes goes below shard_root, removed on any exit.
  struct RemoveOnExit {
    std::filesystem::path dir;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } cleanup{shard_root};
  std::uint64_t writes = 0;
  const auto write_once = [&](const Device& device, double& seconds, double& cpu) {
    const std::string dir = (shard_root / std::to_string(writes++)).string();
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = process_cpu_seconds();
    core::IoResult io = fine_grained(device, kWorkers, true).write(dir);
    seconds = seconds_between(t0, Clock::now());
    cpu = process_cpu_seconds() - cpu0;
    return io;
  };

  // Warm-up: the first formations of a process run 2-3x slower (thread and
  // allocator start-up); one of each operation takes that cost.
  {
    double unused = 0.0;
    (void)fine_grained(make_device(kStreamN, rng), kWorkers, false).form();
    (void)write_once(make_device(kWriteN, rng), unused, unused);
    std::filesystem::remove_all(shard_root);
  }
  if (!options.trace) {
    report.value("setup_s", seconds_since_process_start(options.process_start), "s");
  }
  std::unique_ptr<LayerProbes> probes;
  if (options.trace) probes = std::make_unique<LayerProbes>(options.seed, options.scratch_dir, tracer, report);

  std::vector<double> form_s, form_cpu, write_s, write_cpu, round_rate;
  std::vector<double> form_rate, write_rate, write_phase, bytes_per_eq;
  Rounds rounds(options.seconds);
  while (rounds.next()) {
    {
      const Device device = make_device(kStreamN, rng);
      const core::Session session = fine_grained(device, kWorkers, false);
      report.attempted();
      const Clock::time_point t0 = Clock::now();
      const double cpu0 = process_cpu_seconds();
      const core::FormationResult f =
          traced(tracer, "core.form_streamed.n100", [&] { return session.form(); });
      form_s.push_back(seconds_between(t0, Clock::now()));
      form_cpu.push_back(process_cpu_seconds() - cpu0);
      form_rate.push_back(static_cast<double>(cube2(kStreamN)) / form_s.back());
      check_streamed(report, device, f);
    }
    {
      const Device device = make_device(kWriteN, write_rng);
      report.attempted();
      double seconds = 0.0, cpu = 0.0;
      const core::IoResult io =
          traced(tracer, "core.session_write.n48", [&] { return write_once(device, seconds, cpu); });
      write_s.push_back(seconds);
      write_cpu.push_back(cpu);
      write_rate.push_back(static_cast<double>(io.bytes_written) / 1e6 / seconds);
      write_phase.push_back(io.write_seconds);
      check_write(report, device, io, write_rng);
      if (options.trace) {
        std::ostringstream sink;
        {
          Tracer::Scope span(tracer, "equations.serialize.n48");
          (void)parma::equations::write_system_range(sink, io.formation.system, 0,
                                                     io.formation.system.equations.size());
        }
        bytes_per_eq.push_back(static_cast<double>(io.formation.equation_bytes) /
                               static_cast<double>(io.formation.system.equations.size()));
      }
      std::filesystem::remove_all(shard_root);
    }
    round_rate.push_back(static_cast<double>(cube2(kStreamN) + cube2(kWriteN)) /
                         (form_s.back() + write_s.back()));
    if (probes) probes->round();
  }

  const bool e2e = !options.trace;  // a traced run prints them beside its result
  const char* note = e2e ? "" : "traced";
  const auto ms = [](Summary s) {
    s.q1 *= 1e3;
    s.median *= 1e3;
    s.q3 *= 1e3;
    return s;
  };
  report.combined("latency_ms", ms(geometric_mean({summarize(form_s), summarize(write_s)})), "ms",
                  "geometric mean of the two operations' median wall times", e2e);
  report.combined("cpu_ms_per_op", ms(geometric_mean({summarize(form_cpu), summarize(write_cpu)})),
                  "ms", "geometric mean of the two operations' median CPU times", e2e);
  if (e2e) {
    report.timed("throughput_per_s", round_rate, "1/s", 1.0, "equations formed per second");
  } else {
    report.aside("throughput_per_s", round_rate, "1/s", 1.0, "traced");
  }
  report.aside("form_eq_per_s", form_rate, "eq/s", 1.0, note);
  report.aside("write_mb_per_s", write_rate, "MB/s", 1.0, note);
  if (e2e) return;

  report.aside("equations.serialize_s.n48", tracer.durations("equations.serialize.n48"), "s");
  report.aside("core.write_s.n48", write_phase, "s", 1.0, "IoResult::write_seconds");
  report.aside_value("equations.bytes_per_eq.n48", summarize(bytes_per_eq).median, "B",
                     "formed footprint / equation");
  probes->report_metrics();
}

}  // namespace perfbench
