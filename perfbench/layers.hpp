// The layer probes every traced run repeats, and the serving helpers they
// share with serve_tcp.
//
// A traced run of any workload reports the same per-layer metrics: one
// round of probes follows each round (or cycle) of the workload, and each
// probe times one module's public functions on inputs of a fixed size --
//
//   solver     Session::recover at n = 16 on 4 workers and on 1 worker
//   equations  one serial forward sweep (solve_pair + impedance_gradient)
//              over all n^2 pairs at n = 16, and write_system_range of an
//              n = 32 system into memory
//   linalg     one J^T J product and one damped dense solve at n = 16
//   core       Session::form of a served request; the write phase of
//              Session::write at n = 32 (4 shards)
//   net        encode + decode of one request and one response frame
//   serve      one request's round trip through an in-process Server
//   exec       streamed n = 64 formation on each backend; an empty
//              submit_bulk on a 4-worker pooled executor
//
// so a change to one layer shows in the same figure whichever workload is
// traced. Probe operations are checked but not counted in `attempted`: the
// failed share of a run stays that of its workload.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "serve/request.hpp"
#include "workloads.hpp"

namespace perfbench {

// Serving configuration, as `parma_cli serve-net` sets it up.
inline constexpr Index kServerWorkers = 2;
inline constexpr Index kServeFormWorkers = 2;
inline constexpr Index kServeFormChunk = 4;
inline constexpr Index kServeMaxIterations = 20;

/// Seeded stream of fresh devices in the serving shape mix: each block of
/// five requests holds n = 6, 8, 10, 12 and a second n = 10, in a seeded
/// order. (With four equal shares the median latency sits on the gap
/// between the n = 8 and n = 10 service times and flips from run to run;
/// the double share puts it inside the n = 10 class.)
class RequestMix {
 public:
  static constexpr int kBlockSize = 5;

  explicit RequestMix(std::uint64_t seed) : rng_(seed) {}
  Device next();

 private:
  InputRng rng_;
  Index order_[kBlockSize] = {};
  int pos_ = kBlockSize;
};

/// A request for `device`, configured as serving configures it.
parma::serve::ParametrizeRequest make_request(const Device& device);

/// Judges one served field against the truth of its request.
void check_field(Report& report, bool ok_status, bool converged, const std::vector<double>& field,
                 const std::vector<double>& truth, const std::string& path);

/// Timed seconds of one Session::recover, from the Session build to the
/// recovered field.
struct Recovery {
  double seconds = 0.0;
  double cpu_seconds = 0.0;  ///< process CPU over the same span
  parma::solver::InverseResult result;
};
Recovery recover(const Device& device, Index workers, parma::solver::InverseOptions options = {});
/// Checks a recovery converged within kFieldTolerance of the truth.
void check_recovery(Report& report, const Device& device, const parma::solver::InverseResult& r,
                    const std::string& label);

/// The solver's layers on one device, each in a span named with `suffix`:
/// the solve on 1 worker ("solver.lm_serial"), one serial forward sweep
/// ("equations.sweep"), one J^T J product ("linalg.normal") and one damped
/// dense solve of the normal system ("linalg.factor"). Returns the serial
/// solve's LM iteration count.
Index probe_solver_layers(const Device& device, const std::string& suffix, Tracer& tracer,
                          Report& report);
/// Reports the figures of probe_solver_layers for spans named with
/// `suffix`, as result metrics (`in_result`) or as asides; times in `unit`
/// ("s" or "ms").
void report_solver_layers(const std::string& suffix, Index n, const std::string& unit,
                          bool in_result, const Tracer& tracer, Report& report);

class LayerProbes {
 public:
  LayerProbes(std::uint64_t seed, const std::string& scratch_dir, Tracer& tracer, Report& report);
  ~LayerProbes();
  LayerProbes(const LayerProbes&) = delete;
  LayerProbes& operator=(const LayerProbes&) = delete;

  /// One probe of every layer.
  void round();
  /// The per-layer result metrics, and beside them the figures that are
  /// the same on every run (frame and equation sizes).
  void report_metrics();

 private:
  struct State;
  std::unique_ptr<State> s_;
};

}  // namespace perfbench
