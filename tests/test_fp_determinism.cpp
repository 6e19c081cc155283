// Cross-compiler bit-identity pins for the Theorem-1 numerics.
//
// The build pins the math core to two-rounding IEEE semantics
// (-ffp-contract=off via cmake/FpDeterminism.cmake), which makes every
// Theorem-1 evaluation path a pure function of its inputs down to the last
// bit — on GCC and Clang alike. This suite holds that property to account:
//
//  * committed bit-pattern goldens for the scalar, batched and log-space
//    evaluators over a closed-form network (no RNG, so the inputs
//    themselves are bit-deterministic);
//  * the underflow boundary: above it exp(log) agrees with the linear
//    product at ulp scale, below it the linear product is exactly 0 while
//    the log form stays finite (the RS-N4 escape hatch).
//
// If a golden moves, a compiler or flag change altered FP semantics —
// treat it like a broken regression pin, not a tolerance to widen.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/success_probability.hpp"
#include "core/success_probability_batch.hpp"
#include "model/network.hpp"
#include "util/units.hpp"

namespace raysched::core {
namespace {

using model::LinkId;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

constexpr std::size_t kLinks = 8;
constexpr double kBeta = 1.5;

/// Closed-form gain matrix: every entry is one exact literal or one IEEE
/// division of small integers, so the network is bit-identical on every
/// conforming platform without involving the RNG.
model::Network golden_network() {
  std::vector<double> gains(kLinks * kLinks);
  for (std::size_t j = 0; j < kLinks; ++j) {
    for (std::size_t i = 0; i < kLinks; ++i) {
      gains[j * kLinks + i] =
          j == i ? 8.0 + static_cast<double>(i)
                 : 1.0 / (1.0 + static_cast<double>(3 * j + i));
    }
  }
  return model::Network(kLinks, gains, units::Power(0.05));
}

/// Probability profile with exact-zero entries (links 0 and 5), exercising
/// the sentinel skip branches in every evaluator.
units::ProbabilityVector golden_q() {
  std::vector<double> q(kLinks);
  for (std::size_t i = 0; i < kLinks; ++i) {
    q[i] = static_cast<double>(i % 5) * 0.2;
  }
  return units::probabilities(q);
}

// Golden bit patterns, generated once from this harness and committed.
// All three arrays must reproduce exactly under GCC and Clang. The batch
// is the scalar expression, so its goldens equal the scalar ones.
constexpr std::uint64_t kGoldenScalar[kLinks] = {
    0x0000000000000000, 0x3fc89baa2aa1b9c7, 0x3fd8cd357750cefc,
    0x3fe2b3f179838ed5, 0x3fe909fc6860f666, 0x0000000000000000,
    0x3fc912d9369605ad, 0x3fd9253ea9801b33};
constexpr std::uint64_t kGoldenBatch[kLinks] = {
    0x0000000000000000, 0x3fc89baa2aa1b9c7, 0x3fd8cd357750cefc,
    0x3fe2b3f179838ed5, 0x3fe909fc6860f666, 0x0000000000000000,
    0x3fc912d9369605ad, 0x3fd9253ea9801b33};
constexpr std::uint64_t kGoldenLog[kLinks] = {
    0xfff0000000000000, 0xbffa621fb481add6, 0xbfee55cfbd0abfa6,
    0xbfe12f926fbdb666, 0xbfcf6605d155bb5f, 0xfff0000000000000,
    0xbffa155af37bd165, 0xbfede5011bef10ad};

TEST(FpDeterminism, ScalarGoldenBits) {
  const model::Network net = golden_network();
  const units::ProbabilityVector q = golden_q();
  for (LinkId i = 0; i < net.size(); ++i) {
    const double v =
        rayleigh_success_probability(net, q, i, units::Threshold(kBeta))
            .value();
    EXPECT_EQ(bits(v), kGoldenScalar[i])
        << "scalar golden moved at link " << i << ": 0x" << std::hex
        << bits(v);
  }
}

TEST(FpDeterminism, BatchGoldenBits) {
  const model::Network net = golden_network();
  const units::ProbabilityVector q = golden_q();
  const std::vector<double> batch =
      batch_rayleigh_success_probabilities(net, q, units::Threshold(kBeta));
  for (std::size_t i = 0; i < kLinks; ++i) {
    EXPECT_EQ(bits(batch[i]), kGoldenBatch[i])
        << "batch golden moved at link " << i << ": 0x" << std::hex
        << bits(batch[i]);
  }
}

TEST(FpDeterminism, LogGoldenBits) {
  const model::Network net = golden_network();
  const units::ProbabilityVector q = golden_q();
  for (LinkId i = 0; i < net.size(); ++i) {
    const double lg =
        rayleigh_success_log_probability(net, q, i, units::Threshold(kBeta));
    EXPECT_EQ(bits(lg), kGoldenLog[i])
        << "log golden moved at link " << i << ": 0x" << std::hex
        << bits(lg);
  }
}

/// Saturated-interference network: every off-diagonal factor is ~1e-15, so
/// the 23-interferer product sits ~1e-345, below the smallest subnormal —
/// the linear form underflows to exact 0 while the log form stays
/// comfortably finite. (1e15 and not 1e16: c = g/(g+1) must stay strictly
/// below 1.0 after rounding, and 1e16 + 1 rounds back to 1e16.)
model::Network underflow_network(std::size_t n) {
  std::vector<double> gains(n * n, 1.0e15);
  for (std::size_t i = 0; i < n; ++i) gains[i * n + i] = 1.0;
  return model::Network(n, gains, units::Power(1.0e-3));
}

TEST(FpDeterminism, LinearAndLogAgreeAboveUnderflow) {
  const model::Network net = golden_network();
  const units::ProbabilityVector q = golden_q();
  const units::Threshold beta(kBeta);
  for (LinkId i = 0; i < net.size(); ++i) {
    const double linear = rayleigh_success_probability(net, q, i, beta).value();
    const double lg = rayleigh_success_log_probability(net, q, i, beta);
    if (linear == 0.0) {
      EXPECT_EQ(lg, -std::numeric_limits<double>::infinity())
          << "zero linear value must mean q_i == 0 here, link " << i;
      continue;
    }
    EXPECT_NEAR(std::exp(lg), linear, linear * 1e-12)
        << "log and linear paths disagree above the boundary, link " << i;
  }
}

TEST(FpDeterminism, LogStaysFiniteBelowUnderflow) {
  constexpr std::size_t n = 24;
  const model::Network net = underflow_network(n);
  const units::ProbabilityVector q =
      units::uniform_probabilities(n, units::Probability(1.0));
  const units::Threshold beta(1.0);

  const std::vector<double> batch =
      batch_rayleigh_success_probabilities(net, q, beta);
  for (LinkId i = 0; i < n; ++i) {
    // The linear product underflows to exact zero, in the scalar and the
    // batch alike...
    const double linear = rayleigh_success_probability(net, q, i, beta).value();
    EXPECT_EQ(linear, 0.0) << "expected underflow at link " << i;
    EXPECT_EQ(bits(batch[i]), bits(linear))
        << "scalar and batch disagree in the underflow regime, link " << i;
    // ...while the log form stays finite, deep below log(DBL_MIN).
    const double lg = rayleigh_success_log_probability(net, q, i, beta);
    EXPECT_TRUE(std::isfinite(lg)) << "log underflowed at link " << i;
    EXPECT_LT(lg, -710.0);
    // Round-tripping through exp reproduces the underflow consistently.
    EXPECT_EQ(std::exp(lg), 0.0);
  }
}

}  // namespace
}  // namespace raysched::core
