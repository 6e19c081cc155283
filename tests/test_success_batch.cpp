// Equivalence suite for the fused Theorem-1 batches: pins every batch_*
// free function and the expected-successes aggregates to the scalar
// reference implementations. Each batch uses the scalar expression and
// iteration order, so every comparison is BIT-IDENTICAL (EXPECT_EQ); the
// log-space companion is checked against the linear form at ulp scale.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "test_helpers.hpp"

namespace raysched::core {
namespace {

using model::LinkId;
using raysched::testing::hand_matrix_network;
using raysched::testing::paper_network;

/// Random probability profile with degenerate entries forced in: q[0] = 0,
/// q[1] = 1, rest uniform. Exercises the q=0 skip and the q=1 full factor.
std::vector<double> random_profile(std::size_t n, std::uint64_t seed) {
  util::RngStream rng(seed);
  std::vector<double> q(n);
  for (auto& v : q) v = rng.uniform();
  if (n > 0) q[0] = 0.0;
  if (n > 1) q[1] = 1.0;
  return q;
}

TEST(SuccessBatch, ZeroCrossGainReducesToNoiseFactor) {
  // With zero off-diagonal gains every interference factor is exactly 1 and
  // Theorem 1 collapses to q_i * exp(-beta*nu/S(i,i)).
  const std::vector<double> gains = {
      4.0, 0.0, 0.0,  //
      0.0, 2.0, 0.0,  //
      0.0, 0.0, 1.0,  //
  };
  model::Network net(3, gains, units::Power(0.5));
  const units::Threshold beta(2.0);
  const auto q = units::probabilities({0.7, 1.0, 0.0});
  const std::vector<double> out =
      batch_rayleigh_success_probabilities(net, q, beta);
  EXPECT_DOUBLE_EQ(out[0], 0.7 * std::exp(-2.0 * 0.5 / 4.0));
  EXPECT_DOUBLE_EQ(out[1], std::exp(-2.0 * 0.5 / 2.0));
  EXPECT_DOUBLE_EQ(out[2], 0.0);
  for (LinkId i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(out[i],
                     rayleigh_success_probability(net, q, i, beta).value());
  }
}

TEST(SuccessBatch, ConditionalStripsOwnProbability) {
  auto net = paper_network(12, 9);
  const units::Threshold beta(1.5);
  const auto q = units::probabilities(random_profile(12, 77));
  std::vector<double> conditional;
  batch_rayleigh_conditional_success_probabilities(net, q, beta, conditional);
  ASSERT_EQ(conditional.size(), 12u);
  for (LinkId i = 0; i < 12; ++i) {
    // Reference: scalar Theorem 1 with q_i forced to 1 (certain transmit).
    // EXPECT_EQ on purpose: the fused conditional promises bitwise equality.
    std::vector<double> forced(q.size());
    for (std::size_t j = 0; j < q.size(); ++j) forced[j] = q[j].value();
    forced[i] = 1.0;
    EXPECT_EQ(conditional[i],
              rayleigh_success_probability(net, units::probabilities(forced),
                                           i, beta)
                  .value())
        << "link " << i;
  }
}

// ---------------------------------------------------------------------------
// Log-space evaluation.
// ---------------------------------------------------------------------------

TEST(SuccessBatch, LogSpaceMatchesPlainEvaluation) {
  auto net = paper_network(20, 5);
  const units::Threshold beta(2.5);
  const auto q = units::probabilities(random_profile(20, 123));
  const std::vector<double> plain =
      batch_rayleigh_success_probabilities(net, q, beta);
  // q[0] == 0
  EXPECT_EQ(rayleigh_success_log_probability(net, q, 0, beta),
            -std::numeric_limits<double>::infinity());
  for (LinkId i = 1; i < 20; ++i) {
    EXPECT_NEAR(rayleigh_success_log_probability(net, q, i, beta),
                std::log(plain[i]), 1e-9)
        << "link " << i;
  }
}

TEST(SuccessBatch, LogSpaceSurvivesUnderflow) {
  // 500 links, each hammered by 499 interferers with cross-gain 1000x its
  // own signal: every per-link product underflows the plain double range
  // (Q_i ~ (1/2500)^499), but the log form stays finite and ordered.
  const std::size_t n = 500;
  std::vector<double> gains(n * n, 1000.0);
  for (std::size_t i = 0; i < n; ++i) gains[i * n + i] = 1.0;
  model::Network net(n, std::move(gains), units::Power(0.0));
  const units::Threshold beta(2.5);
  const auto q = units::probabilities(std::vector<double>(n, 1.0));

  const std::vector<double> plain =
      batch_rayleigh_success_probabilities(net, q, beta);
  std::vector<double> logs(n);
  for (LinkId i = 0; i < n; ++i) {
    logs[i] = rayleigh_success_log_probability(net, q, i, beta);
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(plain[i], 0.0) << "plain product should underflow at link " << i;
    EXPECT_TRUE(std::isfinite(logs[i])) << "log form underflowed at " << i;
    EXPECT_LT(logs[i], -700.0);  // well below log(DBL_MIN) ~ -708
  }
  // Analytic check: log Q = 499 * log1p(-2500/2501).
  const double expected = 499.0 * std::log1p(-2500.0 / 2501.0);
  EXPECT_NEAR(logs[0], expected, std::abs(expected) * 1e-12);
}

// ---------------------------------------------------------------------------
// Fused batch_* free functions: bit-identical to the scalar loops.
// ---------------------------------------------------------------------------

TEST(SuccessBatch, FusedBatchIsBitIdenticalToScalar) {
  auto net = paper_network(31, 4);
  const units::Threshold beta(2.5);
  const auto q = units::probabilities(random_profile(31, 0xFACE));
  const std::vector<double> batch =
      batch_rayleigh_success_probabilities(net, q, beta);
  ASSERT_EQ(batch.size(), 31u);
  double sum = 0.0;
  for (LinkId i = 0; i < 31; ++i) {
    // EXPECT_EQ on purpose: the fused path promises bitwise equality.
    EXPECT_EQ(batch[i], rayleigh_success_probability(net, q, i, beta).value())
        << "link " << i;
    sum += batch[i];
  }
  EXPECT_EQ(expected_rayleigh_successes(net, q, beta), sum);
}

TEST(SuccessBatch, FusedActiveBatchIsBitIdenticalToScalar) {
  auto net = paper_network(25, 6);
  const units::Threshold beta(2.5);
  model::LinkSet active;
  for (LinkId i = 0; i < 25; i += 3) active.push_back(i);
  const std::vector<double> batch =
      batch_success_probabilities_active(net, active, beta);
  ASSERT_EQ(batch.size(), active.size());
  double sum = 0.0;
  for (std::size_t a = 0; a < active.size(); ++a) {
    EXPECT_EQ(
        batch[a],
        model::success_probability_rayleigh(net, active, active[a], beta)
            .value())
        << "active[" << a << "]";
    sum += batch[a];
  }
  EXPECT_EQ(model::expected_successes_rayleigh(net, active, beta), sum);
}

TEST(SuccessBatch, ValidatesInput) {
  auto net = hand_matrix_network();
  const auto q = units::probabilities({0.5, 0.5, 0.5});
  std::vector<double> out;
  EXPECT_THROW(batch_rayleigh_conditional_success_probabilities(
                   net, q, units::Threshold::checked(0.0), out),
               raysched::error);
  EXPECT_THROW(batch_rayleigh_conditional_success_probabilities(
                   net, units::probabilities({0.5, 0.5}),
                   units::Threshold(1.0), out),
               raysched::error);  // size mismatch
  EXPECT_THROW(
      batch_rayleigh_success_probabilities(net, q,
                                           units::Threshold::checked(0.0)),
      raysched::error);
  EXPECT_THROW(
      batch_rayleigh_success_probabilities(net, units::probabilities({0.5}),
                                           units::Threshold(1.0)),
      raysched::error);
  EXPECT_THROW(
      expected_rayleigh_successes(net, units::probabilities({0.5}),
                                  units::Threshold(1.0)),
      raysched::error);
  EXPECT_THROW(batch_success_probabilities_active(net, {0, 9},
                                                  units::Threshold(1.0)),
               raysched::error);  // id out of range
  EXPECT_THROW(
      model::expected_successes_rayleigh(net, {0, 9}, units::Threshold(1.0)),
      raysched::error);
}

}  // namespace
}  // namespace raysched::core
