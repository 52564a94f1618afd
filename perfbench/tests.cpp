// The benchmark's own tests: its Z agrees with the program's measurement
// model, and every correctness check it runs rejects a corrupted output.
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include <gtest/gtest.h>

#include "checks.hpp"
#include "core/session.hpp"
#include "mea/measurement.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

TEST(PerfbenchChecks, EffectiveResistanceMatchesMeasureExact) {
  InputRng rng(7);
  for (const Index n : {2, 5, 12, 24}) {
    const parma::circuit::ResistanceGrid r = make_field(n, rng);
    const parma::linalg::DenseMatrix ours = effective_resistance(r);
    const parma::mea::Measurement theirs =
        parma::mea::measure_exact(parma::mea::square_device(n), r);
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < n; ++j) {
        EXPECT_NEAR(ours(i, j), theirs.z(i, j), 1e-10 * theirs.z(i, j)) << n << " " << i << " " << j;
      }
    }
  }
}

TEST(PerfbenchChecks, FieldsStayInTheStatedRange) {
  InputRng rng(3);
  const parma::circuit::ResistanceGrid r = make_field(32, rng);
  for (const double v : r.flat()) {
    EXPECT_GE(v, 1800.0);
    EXPECT_LE(v, 11000.0);
  }
}

TEST(PerfbenchChecks, PerturbedRecoveredFieldFailsTheTolerance) {
  InputRng rng(11);
  const Device device = make_device(8, rng);
  const parma::solver::InverseResult r =
      parma::core::Session::on(device.measurement).workers(1).build().recover();
  ASSERT_TRUE(r.converged);
  EXPECT_LE(max_relative_error(r.recovered.flat(), device.truth.flat()), kFieldTolerance);
  std::vector<double> perturbed = r.recovered.flat();
  perturbed[17] *= 1.0 + 10 * kFieldTolerance;
  EXPECT_GT(max_relative_error(perturbed, device.truth.flat()), kFieldTolerance);
  perturbed.pop_back();
  EXPECT_GT(max_relative_error(perturbed, device.truth.flat()), kFieldTolerance);
}

TEST(PerfbenchChecks, LedgerCatchesMissingDuplicatedAndUnknownReplies) {
  ReplyLedger ledger;
  ledger.sent(5, 0);
  ledger.sent(6, 1);
  std::size_t slot = 99;
  ASSERT_TRUE(ledger.settle(6, slot));
  EXPECT_EQ(slot, 1u);
  EXPECT_FALSE(ledger.settle(6, slot));  // duplicated
  EXPECT_FALSE(ledger.settle(7, slot));  // never sent
  EXPECT_EQ(ledger.outstanding(), 1u);   // request 5 is missing its reply
}

class FormedSystem : public ::testing::Test {
 protected:
  static constexpr Index kN = 6;
  void SetUp() override {
    InputRng rng(5);
    device_ = make_device(kN, rng);
    dir_ = fs::temp_directory_path() / ("perfbench-test-" + std::to_string(::getpid()));
  }
  void TearDown() override { fs::remove_all(dir_); }

  parma::core::IoResult write() const {
    return parma::core::Session::on(device_.measurement)
        .strategy(parma::core::Strategy::kFineGrained)
        .workers(4)
        .build()
        .write(dir_.string());
  }
  // Every pair's equations, checked at the truth; "" when all balance.
  std::string check_all(const parma::equations::EquationSystem& system) const {
    const GroundedInverse inverse(device_.truth);
    for (Index i = 0; i < kN; ++i) {
      for (Index j = 0; j < kN; ++j) {
        const std::string why = check_pair_equations(system, device_.truth, inverse,
                                                     device_.measurement.spec.drive_voltage, i, j);
        if (!why.empty()) return why;
      }
    }
    return "";
  }

  Device device_;
  fs::path dir_;
};

TEST_F(FormedSystem, EquationsBalanceAtTheTruth) {
  const parma::core::IoResult io = write();
  ASSERT_EQ(io.formation.system.equations.size(), 2u * kN * kN * kN);
  EXPECT_EQ(check_all(io.formation.system), "");
}

TEST_F(FormedSystem, DroppedEquationFailsTheCheck) {
  parma::equations::EquationSystem system = write().formation.system;
  system.equations.erase(system.equations.begin() + 40);
  EXPECT_NE(check_all(system), "");
}

TEST_F(FormedSystem, AlteredCoefficientFailsTheCheck) {
  parma::equations::EquationSystem system = write().formation.system;
  system.equations[100].terms[0].constant += 1e-6;
  EXPECT_NE(check_all(system), "");
}

TEST_F(FormedSystem, ShardsAgreeWithTheirReportExceptForBanners) {
  const parma::core::IoResult io = write();
  const ShardAudit audit = audit_shards(io.shard_paths);
  EXPECT_EQ(audit.equation_lines, 2u * kN * kN * kN);
  // The program's bytes_written leaves out each shard's '#' banner line.
  EXPECT_EQ(judge_shards(audit, io.bytes_written, 2u * kN * kN * kN),
            ShardVerdict::kBannerUncounted);
  EXPECT_EQ(judge_shards(audit, io.bytes_written + audit.banner_bytes, 2u * kN * kN * kN),
            ShardVerdict::kOk);
}

TEST_F(FormedSystem, TruncatedShardFailsTheCheck) {
  const parma::core::IoResult io = write();
  const std::uint64_t lines = 2u * kN * kN * kN;
  const std::uint64_t honest = audit_shards(io.shard_paths).disk_bytes;
  const std::string& victim = io.shard_paths.back();
  fs::resize_file(victim, fs::file_size(victim) - 200);
  const ShardAudit audit = audit_shards(io.shard_paths);
  EXPECT_EQ(judge_shards(audit, io.bytes_written, lines), ShardVerdict::kMismatch);
  EXPECT_EQ(judge_shards(audit, honest, lines), ShardVerdict::kMismatch);
  fs::remove(victim);
  EXPECT_EQ(judge_shards(audit_shards(io.shard_paths), honest, lines), ShardVerdict::kMismatch);
}

TEST(PerfbenchTrace, SpansKeepNameParentRequestAndOrder) {
  Tracer tracer(true);
  const std::uint64_t root = tracer.begin("outer", 0, 42);
  { Tracer::Scope inner(tracer, "inner", root, 42); }
  tracer.end(root);
  EXPECT_EQ(tracer.durations("outer").size(), 1u);
  EXPECT_EQ(tracer.durations("inner").size(), 1u);
  EXPECT_LE(tracer.durations("inner")[0], tracer.durations("outer")[0]);
  Tracer off(false);
  EXPECT_EQ(off.begin("x"), 0u);
  EXPECT_EQ(off.size(), 0u);
}

TEST(PerfbenchTrace, QuartilesMatchPythonStatistics) {
  // statistics.quantiles([1, 2, 3, 4, 10], n=4) == [1.5, 3.0, 7.0]
  const Summary s = summarize({10, 1, 3, 2, 4});
  EXPECT_DOUBLE_EQ(s.q1, 1.5);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.q3, 7.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 50), 2.0);
}

TEST(PerfbenchTrace, GeometricMeanCombinesQuartileByQuartile) {
  Summary small{3, 1.0, 2.0, 4.0};
  Summary large{5, 100.0, 200.0, 400.0};
  const Summary g = geometric_mean({small, large});
  EXPECT_EQ(g.count, 8u);
  EXPECT_DOUBLE_EQ(g.q1, 10.0);
  EXPECT_DOUBLE_EQ(g.median, 20.0);
  EXPECT_DOUBLE_EQ(g.q3, 40.0);
}

}  // namespace
}  // namespace perfbench
