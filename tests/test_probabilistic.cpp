// Tests for the Rayleigh-optimal probability search (Section 5's optimum
// over transmission probability assignments).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "test_helpers.hpp"
#include "util/fp.hpp"

namespace raysched::algorithms {
namespace {

using model::LinkId;
using raysched::testing::hand_matrix_network;
using raysched::testing::paper_network;

TEST(Gradient, MatchesFiniteDifferences) {
  auto net = hand_matrix_network(0.1);
  const double beta = 1.5;
  const std::vector<double> q = {0.6, 0.3, 0.8};
  const auto grad = expected_capacity_gradient(net, q, beta);
  const double h = 1e-6;
  for (LinkId k = 0; k < 3; ++k) {
    std::vector<double> up = q, dn = q;
    up[k] += h;
    dn[k] -= h;
    const double fd = (core::expected_rayleigh_successes(net, units::probabilities(up), units::Threshold(beta)) -
                       core::expected_rayleigh_successes(net, units::probabilities(dn), units::Threshold(beta))) /
                      (2.0 * h);
    EXPECT_NEAR(grad[k], fd, 1e-5) << "coordinate " << k;
  }
}

TEST(Gradient, FiniteDifferencesOnRandomInstance) {
  auto net = paper_network(10, 77);
  util::RngStream rng(5);
  std::vector<double> q(net.size());
  for (auto& v : q) v = 0.1 + 0.8 * rng.uniform();
  const double beta = 2.5;
  const auto grad = expected_capacity_gradient(net, q, beta);
  const double h = 1e-6;
  for (LinkId k = 0; k < net.size(); k += 3) {
    std::vector<double> up = q, dn = q;
    up[k] += h;
    dn[k] -= h;
    const double fd = (core::expected_rayleigh_successes(net, units::probabilities(up), units::Threshold(beta)) -
                       core::expected_rayleigh_successes(net, units::probabilities(dn), units::Threshold(beta))) /
                      (2.0 * h);
    EXPECT_NEAR(grad[k], fd, 1e-4) << "coordinate " << k;
  }
}

TEST(Gradient, ZeroProbabilityCoordinateHasOwnTermOnly) {
  // With q_k = 0 the cross terms vanish from Q_k but dE/dq_k must still be
  // the marginal value of starting to transmit.
  auto net = hand_matrix_network(0.0);
  const std::vector<double> q = {0.0, 1.0, 0.0};
  const auto grad = expected_capacity_gradient(net, q, 1.0);
  // dE/dq_0 = core_0 - Q_1 * c(0,1) / (1 - c(0,1) * q_0) with q_0 = 0.
  // core_0 has only interferer 1 active: 1/(1 + beta S(1,0)/S(0,0)) = 5/6.
  // Q_1 = q_1 * core_1 = 1 (links 0 and 2 have q = 0, noise 0).
  const double core0 = 1.0 / (1.0 + 1.0 * 2.0 / 10.0);
  const double c01 = 1.0 * 1.0 / (1.0 * 1.0 + 10.0);  // S(0,1) = 1
  EXPECT_NEAR(grad[0], core0 - 1.0 * c01, 1e-12);
}

TEST(GradientAscent, ImprovesObjectiveAndStaysInBox) {
  auto net = paper_network(20, 4);
  const double beta = 2.5;
  std::vector<double> start(net.size(), 0.5);
  const double start_value =
      core::expected_rayleigh_successes(net, units::probabilities(start), units::Threshold(beta));
  const auto result =
      maximize_capacity_gradient_ascent(net, beta, start);
  EXPECT_GE(result.value, start_value);
  for (double v : result.q) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_NEAR(result.value,
              core::expected_rayleigh_successes(net, units::probabilities(result.q), units::Threshold(beta)), 1e-9);
}

TEST(CoordinateAscent, ReturnsVertexProfile) {
  auto net = paper_network(15, 8);
  const auto result = maximize_capacity_coordinate_ascent(net, 2.5);
  for (double v : result.q) {
    EXPECT_TRUE(v == 0.0 || v == 1.0) << v;
  }
  EXPECT_TRUE(result.converged);
}

TEST(CoordinateAscent, OneFlipLocalOptimality) {
  auto net = paper_network(12, 3);
  const double beta = 2.5;
  const auto result = maximize_capacity_coordinate_ascent(net, beta);
  // No single flip improves the objective (multilinearity makes this the
  // exact local-optimality certificate).
  for (LinkId k = 0; k < net.size(); ++k) {
    std::vector<double> flipped = result.q;
    flipped[k] = flipped[k] == 0.0 ? 1.0 : 0.0;
    EXPECT_LE(core::expected_rayleigh_successes(net, units::probabilities(flipped), units::Threshold(beta)),
              result.value + 1e-9)
        << "flip " << k;
  }
}

TEST(CoordinateAscent, BeatsOrMatchesGradientAscentFromUniformStart) {
  // Multilinearity: some vertex is globally optimal, so the vertex search
  // should do at least as well as one interior gradient run (not a theorem
  // for local optima, but holds on these instances and guards regressions).
  auto net = paper_network(15, 21);
  const double beta = 2.5;
  const auto vertex = maximize_capacity_coordinate_ascent(net, beta);
  const auto interior = maximize_capacity_gradient_ascent(
      net, beta, std::vector<double>(net.size(), 0.5));
  EXPECT_GE(vertex.value + 1e-6, interior.value);
}

TEST(CoordinateAscent, MatchesExhaustiveOnTinyInstance) {
  // n = 8: enumerate all 2^8 vertices; by multilinearity the best vertex is
  // the global optimum over [0,1]^8.
  auto net = paper_network(8, 13);
  const double beta = 2.5;
  double best = 0.0;
  for (unsigned mask = 0; mask < 256u; ++mask) {
    std::vector<double> q(8, 0.0);
    for (int b = 0; b < 8; ++b) {
      if (mask & (1u << b)) q[b] = 1.0;
    }
    best = std::max(best, core::expected_rayleigh_successes(net, units::probabilities(q), units::Threshold(beta)));
  }
  CoordinateAscentOptions opts;
  opts.restarts = 6;
  const auto result = maximize_capacity_coordinate_ascent(net, beta, opts);
  EXPECT_NEAR(result.value, best, 1e-9);
}

TEST(CoordinateAscent, RayleighOptimumAtLeastNonFadingTransfer) {
  // The Rayleigh optimum over q dominates the value of transmitting the
  // non-fading greedy set (that set is one feasible q).
  auto net = paper_network(20, 30);
  const double beta = 2.5;
  const auto greedy = greedy_capacity(net, beta);
  std::vector<double> q(net.size(), 0.0);
  for (LinkId i : greedy.selected) q[i] = 1.0;
  const double transferred =
      core::expected_rayleigh_successes(net, units::probabilities(q), units::Threshold(beta));
  CoordinateAscentOptions opts;
  opts.restarts = 4;
  const auto opt = maximize_capacity_coordinate_ascent(net, beta, opts);
  EXPECT_GE(opt.value + 1e-9, transferred);
}

// ---------------------------------------------------------------------------
// Coordinate ascent prices every flip from the exact gradient. These pins
// hold it bit for bit to a search that evaluates every flip from scratch,
// and to goldens recorded from the product-forest implementation it
// replaced.
// ---------------------------------------------------------------------------

struct AscentCase {
  model::Network net;
  double beta;
  CoordinateAscentOptions options;
};

/// Seeded random instance: n in [n_lo, n_hi], beta in [0.5, 4.5], alpha in
/// [2, 4], noise 0 or log-uniform up to 4e-5, varied plane size and link
/// lengths, 1-5 restarts, and a short sweep cap one time in five so that
/// unconverged runs are covered too.
AscentCase ascent_case(std::uint64_t seed, std::size_t n_lo, std::size_t n_hi) {
  util::RngStream rng(seed);
  const std::size_t n = n_lo + rng.uniform_index(n_hi - n_lo + 1);
  const double beta = rng.uniform(0.5, 4.5);
  const double alpha = rng.uniform(2.0, 4.0);
  const double noise = rng.bernoulli(0.25)
                           ? 0.0
                           : 4e-5 * std::pow(10.0, -rng.uniform(0.0, 5.0));
  model::RandomPlaneParams params;
  params.num_links = n;
  params.plane_size = rng.uniform(50.0, 1000.0);
  params.min_length = rng.uniform(1.0, 30.0);
  params.max_length = params.min_length + rng.uniform(0.0, 40.0);
  CoordinateAscentOptions options;
  options.restarts = 1 + static_cast<int>(rng.uniform_index(5));
  options.seed = rng.next_u64();
  if (rng.bernoulli(0.2)) options.max_sweeps = 1 + rng.uniform_index(8);
  util::RngStream geo = rng.derive(1);
  auto links = model::random_plane_links(params, geo);
  return {model::Network(std::move(links),
                         model::PowerAssignment::uniform(2.0), alpha,
                         units::Power(noise)),
          beta, options};
}

/// Seeded regular grid: by symmetry many flips have mathematically equal
/// gains that the gradient and the from-scratch search round differently,
/// so the 1e-12 argmax tolerance decides the tie-breaks.
AscentCase grid_case(std::uint64_t seed) {
  util::RngStream rng(seed);
  const std::size_t rows = 1 + rng.uniform_index(6);
  const std::size_t cols = 2 + rng.uniform_index(6);
  const double spacing = rng.uniform(5.0, 60.0);
  const double length = rng.uniform(1.0, 0.5 * spacing);
  const double alpha = rng.uniform(2.0, 4.0);
  const double beta = rng.uniform(0.5, 4.5);
  CoordinateAscentOptions options;
  options.restarts = 1 + static_cast<int>(rng.uniform_index(5));
  options.seed = rng.next_u64();
  return {model::Network(model::grid_links(rows, cols, spacing, length),
                         model::PowerAssignment::uniform(2.0), alpha,
                         units::Power(0.0)),
          beta, options};
}

/// The flip-by-flip search: every candidate flip is evaluated from scratch
/// with the scalar Theorem-1 aggregate, gains are accumulated into the
/// running value, and the winning profile is re-evaluated exactly at the
/// end.
ProbabilityOptResult brute_force_flip_search(
    const model::Network& net, double beta,
    const CoordinateAscentOptions& options) {
  const auto expected = [&](const std::vector<double>& q) {
    return core::expected_rayleigh_successes(net, units::probabilities(q),
                                             units::Threshold(beta));
  };
  const std::size_t n = net.size();
  util::RngStream rng(options.seed);
  ProbabilityOptResult best;
  best.value = -1.0;
  for (int restart = 0; restart < options.restarts; ++restart) {
    std::vector<double> q(n, 0.0);
    if (restart > 0) {
      for (auto& v : q) v = rng.bernoulli(0.5) ? 1.0 : 0.0;
    }
    double value = expected(q);
    std::size_t sweeps = 0;
    bool converged = false;
    while (sweeps < options.max_sweeps) {
      double best_gain = 0.0;
      std::size_t best_idx = n;
      for (std::size_t k = 0; k < n; ++k) {
        const double old = q[k];
        q[k] = util::fp::exact_zero(old) ? 1.0 : 0.0;
        const double gain = expected(q) - value;
        q[k] = old;
        if (gain > best_gain + 1e-12) {
          best_gain = gain;
          best_idx = k;
        }
      }
      ++sweeps;
      if (best_idx == n) {
        converged = true;
        break;
      }
      q[best_idx] = util::fp::exact_zero(q[best_idx]) ? 1.0 : 0.0;
      value += best_gain;
    }
    if (value > best.value) {
      best.q = q;
      best.value = value;
      best.iterations = sweeps;
      best.converged = converged;
    }
  }
  best.value = expected(best.q);
  return best;
}

std::string profile_bits(const std::vector<double>& q) {
  std::string out;
  for (double v : q) out += v == 1.0 ? '1' : (v == 0.0 ? '0' : '?');
  return out;
}

TEST(CoordinateAscent, MatchesBruteForceFlipSearch) {
  std::size_t unconverged = 0;
  std::size_t multi_restart = 0;
  std::size_t mixed = 0;
  for (std::uint64_t seed = 1; seed <= 1300; ++seed) {
    const AscentCase c =
        seed <= 1000 ? ascent_case(seed, 2, 60) : grid_case(seed);
    const auto got = maximize_capacity_coordinate_ascent(c.net, c.beta,
                                                         c.options);
    const auto want = brute_force_flip_search(c.net, c.beta, c.options);
    ASSERT_EQ(profile_bits(got.q), profile_bits(want.q)) << "seed " << seed;
    ASSERT_EQ(std::memcmp(&got.value, &want.value, sizeof(double)), 0)
        << "seed " << seed << ": " << got.value << " vs " << want.value;
    ASSERT_EQ(got.iterations, want.iterations) << "seed " << seed;
    ASSERT_EQ(got.converged, want.converged) << "seed " << seed;
    unconverged += got.converged ? 0 : 1;
    multi_restart += c.options.restarts > 1 ? 1 : 0;
    const std::string bits = profile_bits(got.q);
    mixed += bits.find('0') != std::string::npos &&
                     bits.find('1') != std::string::npos
                 ? 1
                 : 0;
  }
  // The family must actually reach the interesting regimes.
  EXPECT_GE(unconverged, 50u);
  EXPECT_GE(multi_restart, 500u);
  EXPECT_GE(mixed, 500u);
}

// Recorded from the product-forest implementation before the gradient
// rewrite.
struct AscentGolden {
  std::uint64_t seed;
  std::size_t n_lo;
  std::size_t n_hi;
  std::size_t iterations;
  bool converged;
  std::uint64_t value_bits;
  const char* q;
};

constexpr AscentGolden kAscentGoldens[] = {
    {3, 2, 60, 21, true, 0x402a32d6bc59901fULL,
     "001010101100001010100011001101010110100100"},
    {4, 2, 60, 31, true, 0x40313a1c85ffa687ULL,
     "000001010101110011000001011101110100000010110110101010011100"},
    {9, 2, 60, 26, true, 0x401dc7d8229a5b8aULL,
     "00100000000000001110000000001100100011000100001001010000000"},
    {12, 2, 60, 7, true, 0x4012cc002b806aa5ULL,
     "00010001000110000010100000000"},
    {25, 2, 60, 3, true, 0x3f622f5758d6c39bULL, "01100"},
    {31, 2, 60, 8, false, 0x4021ab373a9f4857ULL,
     "00000010101111001100100010010110"},
    {34, 2, 60, 23, true, 0x402cb19923d69fd0ULL,
     "1110100000001010000101100000001111101011000110001"},
    {200, 200, 200, 43, true, 0x4039db031a785531ULL,
      "00100000000000100010000000000001100000000000000100"
      "00000110000000100000000011010101111010010000010000"
      "00100001100010001000010000001011010000001000010000"
      "00001110000000000001000001101001000001000001000000"},
};

TEST(CoordinateAscent, MatchesParentGoldens) {
  for (const AscentGolden& g : kAscentGoldens) {
    const AscentCase c = ascent_case(g.seed, g.n_lo, g.n_hi);
    const auto got = maximize_capacity_coordinate_ascent(c.net, c.beta,
                                                         c.options);
    std::uint64_t value_bits = 0;
    std::memcpy(&value_bits, &got.value, sizeof(double));
    EXPECT_EQ(profile_bits(got.q), g.q) << "seed " << g.seed;
    EXPECT_EQ(value_bits, g.value_bits)
        << "seed " << g.seed << ": value " << got.value;
    EXPECT_EQ(got.iterations, g.iterations) << "seed " << g.seed;
    EXPECT_EQ(got.converged, g.converged) << "seed " << g.seed;
  }
}

TEST(Probabilistic, ValidatesInput) {
  auto net = hand_matrix_network();
  EXPECT_THROW(expected_capacity_gradient(net, {0.5}, 1.0), raysched::error);
  EXPECT_THROW(expected_capacity_gradient(net, {0.5, 0.5, 0.5}, 0.0),
               raysched::error);
  GradientAscentOptions bad;
  bad.step = 0.0;
  EXPECT_THROW(maximize_capacity_gradient_ascent(
                   net, 1.0, {0.5, 0.5, 0.5}, bad),
               raysched::error);
}

}  // namespace
}  // namespace raysched::algorithms
