// perfbench -- runs one benchmark workload against the Parma libraries.
//
//   perfbench --workload solve_sweep|serve_tcp|form_write --seed N
//             --seconds S --trace 0|1 [--scratch DIR]
//
// Prints a table of figures (value, within-run quartiles, sample count) and,
// as its last line, one JSON object: correct, attempted, failed, metrics.
// Every workload reports the same metric names: with --trace 0 the
// end-to-end ones, with --trace 1 the per-layer ones (layers.hpp), and the
// spans go to DIR/traces/<workload>-seed<N>.jsonl.
// Exits non-zero, printing no result, when a run cannot complete.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

// Taken during static initialisation, before main().
const perfbench::Clock::time_point g_process_start = perfbench::Clock::now();

int usage() {
  std::cerr << "usage: perfbench --workload solve_sweep|serve_tcp|form_write --seed N "
               "--seconds S --trace 0|1 [--scratch DIR]\n";
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_table(const perfbench::Report& report) {
  std::printf("%-28s %14s %-6s %14s %14s %6s\n", "metric", "value", "unit", "q1", "q3", "n");
  for (const perfbench::Metric& m : report.metrics()) {
    if (m.spread.count > 0) {
      std::printf("%-28s %14.6g %-6s %14.6g %14.6g %6zu", m.name.c_str(), m.value,
                  m.unit.c_str(), m.spread.q1, m.spread.q3, m.spread.count);
    } else {
      std::printf("%-28s %14.6g %-6s %14s %14s %6s", m.name.c_str(), m.value, m.unit.c_str(),
                  "-", "-", "-");
    }
    if (!m.in_result) std::printf("  (not in result)");
    if (!m.note.empty()) std::printf("  %s", m.note.c_str());
    std::printf("\n");
  }
}

void print_result(const perfbench::Report& report) {
  std::string json = std::string("{\"correct\": ") + (report.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempts()) +
                     ", \"failed\": " + std::to_string(report.failures()) + ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : report.metrics()) {
    if (!m.in_result) continue;
    json += (first ? "" : ", ") + ("\"" + m.name + "\": {\"value\": ") + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.process_start = g_process_start;
  options.scratch_dir = ".perfbench";
  bool have_workload = false;
  try {
    for (int a = 1; a + 1 < argc; a += 2) {
      const std::string flag = argv[a];
      const std::string value = argv[a + 1];
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--scratch") {
        options.scratch_dir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!have_workload || argc % 2 == 0 || options.seconds <= 0.0) return usage();

  perfbench::Tracer tracer(options.trace);
  perfbench::Report report;
  try {
    std::filesystem::create_directories(options.scratch_dir);
    if (options.workload == "solve_sweep") {
      perfbench::run_solve_sweep(options, tracer, report);
    } else if (options.workload == "serve_tcp") {
      perfbench::run_serve_tcp(options, tracer, report);
    } else if (options.workload == "form_write") {
      perfbench::run_form_write(options, tracer, report);
    } else {
      return usage();
    }
    if (options.trace) {
      report.aside_value("peak_rss_mb", perfbench::peak_rss_mb(), "MB", "traced");
    } else {
      report.value("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
    }
    if (options.trace) {
      const std::filesystem::path dir = std::filesystem::path(options.scratch_dir) / "traces";
      std::filesystem::create_directories(dir);
      const std::string path =
          (dir / (options.workload + "-seed" + std::to_string(options.seed) + ".jsonl")).string();
      tracer.write_jsonl(path);
      std::cout << "trace: " << tracer.size() << " spans written to " << path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  if (report.attempts() == 0) {
    std::cerr << "perfbench: no operation was attempted\n";
    return 1;
  }
  print_table(report);
  print_result(report);
  return 0;
}
