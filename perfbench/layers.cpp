#include "layers.hpp"

#include <cmath>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "core/session.hpp"
#include "equations/pair_system.hpp"
#include "equations/serializer.hpp"
#include "exec/executor.hpp"
#include "linalg/dense_solve.hpp"
#include "net/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace core = parma::core;
namespace exec = parma::exec;
namespace net = parma::net;
namespace serve = parma::serve;
namespace solver = parma::solver;
using parma::linalg::DenseMatrix;

Device RequestMix::next() {
  static constexpr Index kBlock[kBlockSize] = {6, 8, 10, 10, 12};
  if (pos_ == kBlockSize) {
    std::copy(std::begin(kBlock), std::end(kBlock), order_);
    for (int k = kBlockSize - 1; k > 0; --k) {
      std::swap(order_[k], order_[rng_.next() % static_cast<std::uint64_t>(k + 1)]);
    }
    pos_ = 0;
  }
  return make_device(order_[pos_++], rng_);
}

serve::ParametrizeRequest make_request(const Device& device) {
  serve::ParametrizeRequest r;
  r.measurement = device.measurement;
  r.options.strategy = core::Strategy::kFineGrained;
  r.options.workers = kServeFormWorkers;
  r.options.chunk = kServeFormChunk;
  r.options.keep_system = false;
  r.inverse.max_iterations = kServeMaxIterations;
  return r;
}

void check_field(Report& report, bool ok_status, bool converged, const std::vector<double>& field,
                 const std::vector<double>& truth, const std::string& path) {
  report.check(ok_status, path + ": reply status is not kOk");
  report.check(converged, path + ": reply reports no convergence");
  const double err = max_relative_error(field, truth);
  report.check(err <= kFieldTolerance, path + ": reply field max relative error " + std::to_string(err));
}

Recovery recover(const Device& device, Index workers, solver::InverseOptions options) {
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = process_cpu_seconds();
  const core::Session session = core::Session::on(device.measurement).workers(workers).build();
  solver::InverseResult result = session.recover(options);
  return {seconds_between(t0, Clock::now()), process_cpu_seconds() - cpu0, std::move(result)};
}

void check_recovery(Report& report, const Device& device, const solver::InverseResult& r,
                    const std::string& label) {
  report.check(r.converged, label + ": recovery did not converge");
  const double err = max_relative_error(r.recovered.flat(), device.truth.flat());
  report.check(err <= kFieldTolerance, label + ": max relative error " + std::to_string(err));
}

Index probe_solver_layers(const Device& device, const std::string& suffix, Tracer& tracer,
                          Report& report) {
  const Index n = device.truth.rows();
  Recovery serial;
  {
    Tracer::Scope span(tracer, "solver.lm_serial" + suffix);
    serial = recover(device, 1);
  }
  check_recovery(report, device, serial.result, "serial solve" + suffix);
  const parma::circuit::ResistanceGrid& grid = device.truth;
  const Index pairs = n * n;
  const double volts = device.measurement.spec.drive_voltage;
  DenseMatrix jacobian(pairs, pairs);
  {
    Tracer::Scope span(tracer, "equations.sweep" + suffix);
    for (Index p = 0; p < pairs; ++p) {
      const auto pair = parma::equations::solve_pair(grid, p / n, p % n, volts);
      const std::vector<double> grad = parma::equations::impedance_gradient(grid, pair);
      for (Index e = 0; e < pairs; ++e) {
        jacobian(p, e) = grad[static_cast<std::size_t>(e)] * grid.flat()[static_cast<std::size_t>(e)];
      }
    }
  }
  const DenseMatrix jt = jacobian.transpose();
  DenseMatrix normal;
  {
    Tracer::Scope span(tracer, "linalg.normal" + suffix);
    normal = jt.multiply(jacobian);
  }
  std::vector<double> rhs(static_cast<std::size_t>(pairs));
  for (Index d = 0; d < pairs; ++d) {
    rhs[static_cast<std::size_t>(d)] = 1e-3 * normal(d, d);
    normal(d, d) *= 1.0 + 1e-3;
  }
  std::vector<double> step;
  {
    Tracer::Scope span(tracer, "linalg.factor" + suffix);
    step = parma::linalg::solve_dense(normal, rhs);
  }
  report.check(step.size() == static_cast<std::size_t>(pairs), "damped solve" + suffix + " size");
  return serial.result.iterations;
}

void report_solver_layers(const std::string& suffix, Index n, const std::string& unit,
                          bool in_result, const Tracer& tracer, Report& report) {
  const double scale = unit == "ms" ? 1e3 : 1.0;
  const auto put = [&](const std::string& name, const std::vector<double>& samples) {
    if (in_result) {
      report.timed(name, samples, unit, scale);
    } else {
      report.aside(name, samples, unit, scale);
    }
  };
  put("solver.lm_serial_" + unit + suffix, tracer.durations("solver.lm_serial" + suffix));
  put("equations.sweep_" + unit + suffix, tracer.durations("equations.sweep" + suffix));
  const std::vector<double> normal = tracer.durations("linalg.normal" + suffix);
  put("linalg.normal_" + unit + suffix, normal);
  // 2 n^6 flops: an (n^2 x n^2) by (n^2 x n^2) dense product.
  const double flops = 2.0 * std::pow(static_cast<double>(n), 6);
  const double gflops = normal.empty() ? 0.0 : flops / summarize(normal).median / 1e9;
  const std::string note = "computed as 2n^6 / linalg.normal_" + unit + suffix;
  if (in_result) {
    report.value("linalg.normal_gflops" + suffix, gflops, "GFLOP/s", note);
  } else {
    report.aside_value("linalg.normal_gflops" + suffix, gflops, "GFLOP/s", note);
  }
  put("linalg.factor_" + unit + suffix, tracer.durations("linalg.factor" + suffix));
}

namespace {

// Probe sizes.
constexpr Index kSolveN = 16;
constexpr Index kExecN = 64;
constexpr Index kWriteN = 32;
constexpr Index kWorkers = 4;  // LM workers; exec pool; shards of the probe write
// Chunks of the empty bulk run that times the executor's dispatch.
constexpr Index kEmptyChunks = 20000;
// Offsets the probe inputs' streams from the workload's own.
constexpr std::uint64_t kProbeSeedSalt = 0x9E3779B97F4A7C15ULL;

std::uint64_t cube2(Index n) { return 2 * static_cast<std::uint64_t>(n) * n * n; }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

}  // namespace

struct LayerProbes::State {
  State(std::uint64_t seed, const std::string& scratch, Tracer& t, Report& r)
      : rng(seed ^ kProbeSeedSalt),
        mix(seed ^ (kProbeSeedSalt >> 1)),
        tracer(t),
        report(r),
        shard_root(std::filesystem::path(scratch) / ("probe-shards-" + std::to_string(::getpid()))),
        form_executor(kServeFormWorkers),
        empty_pool(kWorkers),
        server([] {
          serve::ServerOptions o;
          o.workers = kServerWorkers;
          return o;
        }()) {}

  ~State() {
    server.shutdown();
    std::error_code ignored;
    std::filesystem::remove_all(shard_root, ignored);
  }

  void solver_layers();
  void serving_layers();
  void exec_layers();
  void write_layers();

  InputRng rng;
  RequestMix mix;
  Tracer& tracer;
  Report& report;
  std::filesystem::path shard_root;
  exec::PooledExecutor form_executor;  ///< warm, as a serving batch finds it
  exec::PooledExecutor empty_pool;
  serve::Server server;
  std::vector<double> iterations, frame_bytes, bytes_per_eq, write_seconds;
  std::uint64_t requests = 0;
  std::uint64_t writes = 0;
};

void LayerProbes::State::solver_layers() {
  const Device device = make_device(kSolveN, rng);
  Recovery pooled;
  {
    Tracer::Scope span(tracer, "solver.lm");
    pooled = recover(device, kWorkers);
  }
  check_recovery(report, device, pooled.result, "probe solve");
  iterations.push_back(static_cast<double>(pooled.result.iterations));
  (void)probe_solver_layers(device, "", tracer, report);
}

// One block of the serving mix, each request replayed through the layers one
// call at a time -- formation on a warm executor (as a serving batch does),
// the solve as serving configures it, the wire codec of its request and
// response -- and then sent whole through the in-process Server.
void LayerProbes::State::serving_layers() {
  for (int k = 0; k < RequestMix::kBlockSize; ++k) {
    const Device device = mix.next();
    const std::uint64_t id = ++requests;
    const serve::ParametrizeRequest request = make_request(device);
    const core::Session session =
        core::Session::on(device.measurement).options(request.options).build();
    {
      Tracer::Scope span(tracer, "core.form", 0, id);
      (void)session.form(form_executor);
    }
    serve::ParametrizeResult result;
    {
      Tracer::Scope span(tracer, "solver.serve_recover", 0, id);
      result.inverse = session.engine().recover(request.inverse);
    }
    result.status = serve::RequestStatus::kOk;
    check_field(report, true, result.inverse.converged, result.inverse.recovered.flat(),
                device.truth.flat(), "replay");

    std::vector<std::uint8_t> request_frame, response_frame;
    net::WireRequest wire_request;
    net::WireResponse wire_response;
    bool decoded = false;
    {
      Tracer::Scope span(tracer, "net.codec", 0, id);
      request_frame = net::encode_request(net::WireRequest::from_request(request, id));
      response_frame = net::encode_response(net::WireResponse::from_result(id, result));
      net::FrameHeader h1, h2;
      decoded =
          net::decode_header(request_frame.data(), request_frame.size(), net::kDefaultMaxBodyBytes, h1).ok() &&
          net::decode_request_body(request_frame.data() + net::kHeaderBytes, h1.body_len, wire_request).ok() &&
          net::decode_header(response_frame.data(), response_frame.size(), net::kDefaultMaxBodyBytes, h2).ok() &&
          net::decode_response_body(response_frame.data() + net::kHeaderBytes, h2.body_len, wire_response).ok();
    }
    report.check(decoded && wire_request.z == device.measurement.z.data() &&
                     wire_response.field == result.inverse.recovered.flat(),
                 "codec round trip changed a frame");
    frame_bytes.push_back(static_cast<double>(request_frame.size() + response_frame.size()));

    serve::ParametrizeResult served;
    {
      Tracer::Scope span(tracer, "serve.roundtrip", 0, id);
      serve::Ticket ticket = server.try_submit(request);
      if (!ticket.accepted()) throw std::runtime_error("probe request was not admitted");
      served = ticket.future().get();
    }
    check_field(report, served.status == serve::RequestStatus::kOk, served.inverse.converged,
                served.inverse.recovered.flat(), device.truth.flat(), "in-process probe");
  }
}

void LayerProbes::State::exec_layers() {
  const Device device = make_device(kExecN, rng);
  const core::Engine engine(device.measurement);
  const struct {
    const char* name;
    exec::Backend backend;
    Index workers;
  } backends[] = {{"exec.form.serial", exec::Backend::kSerial, 1},
                  {"exec.form.pooled1", exec::Backend::kPooled, 1},
                  {"exec.form.pooled4", exec::Backend::kPooled, kWorkers}};
  for (const auto& b : backends) {
    core::StrategyOptions so;
    so.strategy = core::Strategy::kFineGrained;
    so.workers = b.workers;
    so.backend = b.backend;
    so.keep_system = false;
    const core::FormationResult f = traced(tracer, b.name, [&] { return engine.form_equations(so); });
    report.check(f.system.equations.empty() && f.equation_bytes > 0,
                 std::string(b.name) + ": streamed formation kept equations or formed none");
  }
  Tracer::Scope span(tracer, "exec.bulk_empty");
  (void)empty_pool.submit_bulk(0, kEmptyChunks, 1, [](Index, Index) {});
}

void LayerProbes::State::write_layers() {
  const Device device = make_device(kWriteN, rng);
  const std::string dir = (shard_root / std::to_string(writes++)).string();
  const core::IoResult io = core::Session::on(device.measurement)
                                .strategy(core::Strategy::kFineGrained)
                                .workers(kWorkers)
                                .build()
                                .write(dir);
  write_seconds.push_back(io.write_seconds);
  const auto& system = io.formation.system;
  report.check(system.equations.size() == cube2(kWriteN), "probe write: system is not 2n^3");
  // The banner fault of bytes_written (CHANGES.md) is the workload's to
  // count; a probe only insists the shards hold every equation.
  report.check(judge_shards(audit_shards(io.shard_paths), io.bytes_written, cube2(kWriteN)) !=
                   ShardVerdict::kMismatch,
               "probe write: shards disagree with the formed system");
  std::filesystem::remove_all(shard_root);
  std::ostringstream sink;
  {
    Tracer::Scope span(tracer, "equations.serialize");
    (void)parma::equations::write_system_range(sink, system, 0, system.equations.size());
  }
  bytes_per_eq.push_back(static_cast<double>(io.formation.equation_bytes) /
                         static_cast<double>(system.equations.size()));
}

LayerProbes::LayerProbes(std::uint64_t seed, const std::string& scratch_dir, Tracer& tracer,
                         Report& report)
    : s_(std::make_unique<State>(seed, scratch_dir, tracer, report)) {}

LayerProbes::~LayerProbes() = default;

void LayerProbes::round() {
  s_->solver_layers();
  s_->serving_layers();
  s_->exec_layers();
  s_->write_layers();
}

void LayerProbes::report_metrics() {
  const Tracer& tracer = s_->tracer;
  Report& report = s_->report;
  report.value("solver.lm_iterations", mean(s_->iterations), "count",
               "mean over the probe solves at n=16");
  report.timed("solver.lm_ms", tracer.durations("solver.lm"), "ms", 1e3);
  report_solver_layers("", kSolveN, "ms", true, tracer, report);
  const std::vector<double> form = tracer.durations("core.form");
  const std::vector<double> solve = tracer.durations("solver.serve_recover");
  const std::vector<double> roundtrip = tracer.durations("serve.roundtrip");
  report.timed("core.form_ms", form, "ms", 1e3);
  report.timed("solver.serve_solve_ms", solve, "ms", 1e3);
  report.timed("net.codec_us", tracer.durations("net.codec"), "us", 1e6);
  report.timed("serve.roundtrip_ms", roundtrip, "ms", 1e3);
  report.aside_value("serve.pipeline_ms", (mean(roundtrip) - mean(form) - mean(solve)) * 1e3, "ms",
                     "mean round trip - mean form - mean solve");
  report.aside_value("net.bytes_per_req", mean(s_->frame_bytes), "B", "request + response frame");
  report.timed("exec.form_ms.serial", tracer.durations("exec.form.serial"), "ms", 1e3);
  report.timed("exec.form_ms.pooled1", tracer.durations("exec.form.pooled1"), "ms", 1e3);
  report.timed("exec.form_ms.pooled4", tracer.durations("exec.form.pooled4"), "ms", 1e3);
  report.timed("exec.chunk_us", tracer.durations("exec.bulk_empty"), "us",
               1e6 / static_cast<double>(kEmptyChunks));
  report.timed("equations.serialize_ms", tracer.durations("equations.serialize"), "ms", 1e3);
  report.timed("core.write_ms", s_->write_seconds, "ms", 1e3, "IoResult::write_seconds");
  report.aside_value("equations.bytes_per_eq", mean(s_->bytes_per_eq), "B",
                     "formed footprint / equation at n=32");
}

}  // namespace perfbench
