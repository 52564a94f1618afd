#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <sys/stat.h>

#include "mea/device.hpp"

namespace perfbench {

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double InputRng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

double InputRng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double InputRng::normal() {
  const double u1 = 1.0 - uniform();  // (0, 1]
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

parma::circuit::ResistanceGrid make_field(Index n, InputRng& rng) {
  constexpr double kHealthy = 2000.0;
  constexpr double kMax = 11000.0;
  struct Blob {
    double row, col, radius_row, radius_col, peak;
  };
  Blob blobs[2];
  for (Blob& b : blobs) {
    b.row = rng.uniform(0.0, static_cast<double>(n));
    b.col = rng.uniform(0.0, static_cast<double>(n));
    b.radius_row = rng.uniform(n / 8.0, n / 4.0);
    b.radius_col = rng.uniform(n / 8.0, n / 4.0);
    b.peak = rng.uniform(6000.0, kMax);
  }
  parma::circuit::ResistanceGrid r(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index k = 0; k < n; ++k) {
      double value = kHealthy;
      for (const Blob& b : blobs) {
        const double dr = (static_cast<double>(i) - b.row) / b.radius_row;
        const double dc = (static_cast<double>(k) - b.col) / b.radius_col;
        value = std::max(value, kHealthy + (b.peak - kHealthy) * std::exp(-(dr * dr + dc * dc)));
      }
      value *= 1.0 + 0.02 * std::clamp(rng.normal(), -3.0, 3.0);
      r.at(i, k) = std::clamp(value, 0.9 * kHealthy, kMax);
    }
  }
  return r;
}

GroundedInverse::GroundedInverse(const parma::circuit::ResistanceGrid& r)
    : n_(r.rows()), size_(2 * r.rows() - 1) {
  if (r.rows() != r.cols() || r.rows() < 2) {
    throw std::invalid_argument("GroundedInverse: square grids of n >= 2 only");
  }
  const auto sz = static_cast<std::size_t>(size_);
  // Grounded Laplacian (SPD) beside an identity, reduced by Gauss-Jordan.
  std::vector<double> a(sz * sz, 0.0);
  g_.assign(sz * sz, 0.0);
  for (std::size_t d = 0; d < sz; ++d) g_[d * sz + d] = 1.0;
  const auto add = [&](Index x, Index y, double v) {
    if (x < size_ && y < size_) a[static_cast<std::size_t>(x) * sz + static_cast<std::size_t>(y)] += v;
  };
  for (Index i = 0; i < n_; ++i) {
    for (Index k = 0; k < n_; ++k) {
      const double c = 1.0 / r.at(i, k);
      const Index h = i;
      const Index v = n_ + k;
      add(h, h, c);
      add(v, v, c);
      add(h, v, -c);
      add(v, h, -c);
    }
  }
  // SPD: no pivoting needed.
  for (std::size_t p = 0; p < sz; ++p) {
    const double inv = 1.0 / a[p * sz + p];
    for (std::size_t c = 0; c < sz; ++c) {
      a[p * sz + c] *= inv;
      g_[p * sz + c] *= inv;
    }
    for (std::size_t row = 0; row < sz; ++row) {
      if (row == p) continue;
      const double f = a[row * sz + p];
      if (f == 0.0) continue;
      for (std::size_t c = 0; c < sz; ++c) {
        a[row * sz + c] -= f * a[p * sz + c];
        g_[row * sz + c] -= f * g_[p * sz + c];
      }
    }
  }
}

double GroundedInverse::at(Index a, Index b) const {
  if (a >= size_ || b >= size_) return 0.0;
  return g_[static_cast<std::size_t>(a) * static_cast<std::size_t>(size_) +
            static_cast<std::size_t>(b)];
}

double GroundedInverse::z(Index i, Index j) const {
  const Index h = i;
  const Index v = n_ + j;
  return at(h, h) + at(v, v) - 2.0 * at(h, v);
}

std::vector<double> GroundedInverse::potentials(Index i, Index j, double volts) const {
  // Unit current from h_i to v_j gives phi = G (e_h - e_v); shift so v_j
  // sits at 0 and scale so h_i sits at `volts`.
  const Index h = i;
  const Index v = n_ + j;
  const double scale = volts / z(i, j);
  const double ground = at(v, h) - at(v, v);
  std::vector<double> out(static_cast<std::size_t>(2 * n_));
  for (Index x = 0; x < 2 * n_; ++x) {
    out[static_cast<std::size_t>(x)] = scale * (at(x, h) - at(x, v) - ground);
  }
  return out;
}

parma::linalg::DenseMatrix effective_resistance(const parma::circuit::ResistanceGrid& r) {
  const GroundedInverse g(r);
  parma::linalg::DenseMatrix z(r.rows(), r.cols());
  for (Index i = 0; i < r.rows(); ++i) {
    for (Index j = 0; j < r.cols(); ++j) z(i, j) = g.z(i, j);
  }
  return z;
}

Device make_device(Index n, InputRng& rng) {
  Device d;
  d.truth = make_field(n, rng);
  d.measurement.spec = parma::mea::square_device(n);
  d.measurement.z = effective_resistance(d.truth);
  d.measurement.u = parma::linalg::DenseMatrix(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) d.measurement.u(i, j) = d.measurement.spec.drive_voltage;
  }
  return d;
}

double max_relative_error(const std::vector<double>& got, const std::vector<double>& truth) {
  if (got.size() != truth.size() || got.empty()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t c = 0; c < got.size(); ++c) {
    const double e = std::abs(got[c] - truth[c]) / truth[c];
    if (!std::isfinite(e)) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, e);
  }
  return worst;
}

bool ReplyLedger::settle(std::uint64_t id, std::size_t& slot) {
  const auto it = open_.find(id);
  if (it == open_.end()) return false;
  slot = it->second;
  open_.erase(it);
  return true;
}

std::string check_pair_equations(const parma::equations::EquationSystem& system,
                                 const parma::circuit::ResistanceGrid& truth,
                                 const GroundedInverse& inverse, double volts, Index i,
                                 Index j) {
  const Index n = truth.rows();
  const Index per_pair = 2 * n;
  const Index p = i * n + j;
  const std::vector<double> phi = inverse.potentials(i, j, volts);
  // The unknown vector: n^2 resistances, then 2n - 2 voltages per pair --
  // vertical wires k != j (k' = k, or k - 1 past j), then horizontal wires
  // m != i (m' likewise).
  const Index block = n * n + p * (2 * n - 2);
  const auto value = [&](Index u) -> double {
    if (u >= 0 && u < n * n) return truth.flat()[static_cast<std::size_t>(u)];
    const Index off = u - block;
    if (off < 0 || off >= 2 * n - 2) return std::numeric_limits<double>::quiet_NaN();
    if (off < n - 1) return phi[static_cast<std::size_t>(n + (off < j ? off : off + 1))];
    const Index m = off - (n - 1);
    return phi[static_cast<std::size_t>(m < i ? m : m + 1)];
  };
  const auto first = static_cast<std::size_t>(p * per_pair);
  if (system.equations.size() < first + static_cast<std::size_t>(per_pair)) {
    return "pair (" + std::to_string(i) + "," + std::to_string(j) + ") has no equations";
  }
  for (std::size_t e = first; e < first + static_cast<std::size_t>(per_pair); ++e) {
    const parma::equations::JointEquation& eq = system.equations[e];
    std::ostringstream where;
    where << "equation " << e << " of pair (" << i << "," << j << ")";
    if (eq.pair_i != i || eq.pair_j != j) return where.str() + " is labelled as another pair";
    double lhs = 0.0;
    double scale = std::abs(eq.rhs);
    for (const auto& t : eq.terms) {
      const double plus = t.plus_unknown >= 0 ? value(t.plus_unknown) : 0.0;
      const double minus = t.minus_unknown >= 0 ? value(t.minus_unknown) : 0.0;
      const double term = t.sign * (t.constant + plus - minus) / value(t.resistor_unknown);
      lhs += term;
      scale += std::abs(term);
    }
    if (!(std::abs(lhs - eq.rhs) <= 1e-9 * scale)) {
      where << " misses balance: lhs " << lhs << " rhs " << eq.rhs;
      return where.str();
    }
  }
  return "";
}

ShardAudit audit_shards(const std::vector<std::string>& paths) {
  ShardAudit audit;
  for (const std::string& path : paths) {
    struct stat st {};
    std::ifstream in(path, std::ios::binary);
    if (::stat(path.c_str(), &st) != 0 || !in) {
      audit.readable = false;
      continue;
    }
    audit.disk_bytes += static_cast<std::uint64_t>(st.st_size);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line.front() == '#') {
        audit.banner_bytes += line.size() + 1;
      } else {
        ++audit.equation_lines;
      }
    }
  }
  return audit;
}

ShardVerdict judge_shards(const ShardAudit& audit, std::uint64_t bytes_written,
                          std::uint64_t expected_lines) {
  if (!audit.readable || audit.equation_lines != expected_lines) return ShardVerdict::kMismatch;
  if (audit.disk_bytes == bytes_written) return ShardVerdict::kOk;
  if (audit.banner_bytes > 0 && audit.disk_bytes == bytes_written + audit.banner_bytes) {
    return ShardVerdict::kBannerUncounted;
  }
  return ShardVerdict::kMismatch;
}

}  // namespace perfbench
