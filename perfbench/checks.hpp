// The benchmark's own inputs and its independent correctness checks.
//
// Inputs: a seeded generator of ground-truth resistance fields, and the
// measurement the program receives, computed here -- not by the program --
// as the effective resistance Z_ij = e_ij^T L^+ e_ij of the weighted K_{n,n}
// wire Laplacian. The checks judge the program's outputs against those
// independent computations: recovered fields against the truth, formed
// equations against nodal potentials solved here, replies against a ledger
// of what was sent, and shard files against what the program reported.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "circuit/crossbar.hpp"
#include "equations/generator.hpp"
#include "mea/measurement.hpp"

namespace perfbench {

using parma::Index;

/// Largest relative error a recovered cell may have against the truth. The
/// solver stops at a relative Z misfit of 1e-8, which leaves fields within
/// about 2e-6 of the truth at n = 6..32; a wrong recovery is off by far more.
inline constexpr double kFieldTolerance = 1e-4;

/// SplitMix64 stream: the benchmark's inputs depend on the seed alone, not
/// on the program's own random-number code.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();                        ///< [0, 1)
  double uniform(double lo, double hi);    ///< [lo, hi)
  double normal();                         ///< standard normal (Box-Muller)

 private:
  std::uint64_t state_;
};

/// Ground truth of one device: healthy tissue at 2,000 kOhm with 2%
/// multiplicative jitter, plus two elliptical anomaly blobs (radii n/8..n/4
/// cells) whose Gaussian falloff peaks at 6,000-11,000 kOhm. Every cell lies
/// in [1,800, 11,000] kOhm.
parma::circuit::ResistanceGrid make_field(Index n, InputRng& rng);

/// Inverse of the K_{n,n} wire Laplacian grounded at the last vertical
/// wire. Node numbering: horizontal wire i -> i, vertical wire k -> n + k.
class GroundedInverse {
 public:
  explicit GroundedInverse(const parma::circuit::ResistanceGrid& r);

  /// Entry (a, b) of the grounded inverse (0 on the ground node).
  [[nodiscard]] double at(Index a, Index b) const;
  /// Two-point resistance between horizontal wire i and vertical wire j.
  [[nodiscard]] double z(Index i, Index j) const;
  /// Potential of every node when horizontal wire i is held at `volts` and
  /// vertical wire j at 0 (node numbering as above).
  [[nodiscard]] std::vector<double> potentials(Index i, Index j, double volts) const;

 private:
  Index n_;
  Index size_;             ///< 2n - 1 (the ground node is dropped)
  std::vector<double> g_;  ///< row-major size_ x size_
};

/// Z of every pair, by one Laplacian inversion.
parma::linalg::DenseMatrix effective_resistance(const parma::circuit::ResistanceGrid& r);

/// A generated device and the measurement the program receives.
struct Device {
  parma::circuit::ResistanceGrid truth{1, 1};
  parma::mea::Measurement measurement;
};
Device make_device(Index n, InputRng& rng);

/// Largest |got - truth| / truth over all cells (infinity on a shape
/// mismatch or a non-finite value).
double max_relative_error(const std::vector<double>& got, const std::vector<double>& truth);

/// Each sent request id must come back exactly once.
class ReplyLedger {
 public:
  void sent(std::uint64_t id, std::size_t slot) { open_[id] = slot; }
  /// The slot of a reply's request; false for an unknown or repeated id.
  bool settle(std::uint64_t id, std::size_t& slot);
  [[nodiscard]] std::size_t outstanding() const { return open_.size(); }

 private:
  std::map<std::uint64_t, std::size_t> open_;
};

/// Checks the equations of pair (i, j) in `system` (the 2n equations at
/// positions [p * 2n, (p + 1) * 2n), p = i * n + j) against the truth: with
/// R = truth and every wire voltage taken from the benchmark's own nodal
/// solve, each equation must balance to a relative 1e-9. Returns "" when
/// they do, else the first failure.
std::string check_pair_equations(const parma::equations::EquationSystem& system,
                                 const parma::circuit::ResistanceGrid& truth,
                                 const GroundedInverse& inverse, double volts, Index i,
                                 Index j);

/// Sizes and line census of shard files read back from disk.
struct ShardAudit {
  std::uint64_t disk_bytes = 0;      ///< sum of stat sizes
  std::uint64_t equation_lines = 0;  ///< lines not starting with '#'
  std::uint64_t banner_bytes = 0;    ///< bytes of '#' lines, newline included
  bool readable = true;
};
ShardAudit audit_shards(const std::vector<std::string>& paths);

enum class ShardVerdict {
  kOk,               ///< every line present, sizes sum to bytes_written
  kBannerUncounted,  ///< as kOk, except bytes_written leaves out the '#' lines
  kMismatch,         ///< a shard is missing, short, or holds the wrong lines
};
/// Judges shards read back from disk against the reported byte count and
/// the expected number of equation lines.
ShardVerdict judge_shards(const ShardAudit& audit, std::uint64_t bytes_written,
                          std::uint64_t expected_lines);

}  // namespace perfbench
