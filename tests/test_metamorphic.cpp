// Metamorphic tests: transformations of the input that must leave outputs
// invariant (or transform them predictably). These catch subtle unit and
// indexing bugs that example-based tests miss.
//
//   * Scale invariance: multiplying every gain AND the noise by c > 0
//     leaves SINRs, feasibility, affectance, and all success probabilities
//     unchanged (SINR is a ratio).
//   * Permutation equivariance: relabeling links permutes all outputs
//     consistently.
//   * Isometry invariance: translating/rotating the plane leaves the
//     geometric gain matrix unchanged.
//   * Power-unit invariance: with nu = 0, scaling every transmission power
//     by c changes nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>

#include "test_helpers.hpp"

namespace raysched {
namespace {

using model::LinkId;
using model::LinkSet;
using model::Network;

/// Builds the gain-scaled copy of a network: all gains and noise times c.
Network scaled_copy(const Network& net, double c) {
  std::vector<double> gains(net.size() * net.size());
  for (LinkId j = 0; j < net.size(); ++j) {
    for (LinkId i = 0; i < net.size(); ++i) {
      gains[j * net.size() + i] = c * net.mean_gain(j, i);
    }
  }
  return Network(net.size(), std::move(gains), units::Power(c * net.noise()));
}

/// Builds the link-permuted copy: new link k = old link perm[k].
Network permuted_copy(const Network& net, const std::vector<LinkId>& perm) {
  std::vector<double> gains(net.size() * net.size());
  for (LinkId j = 0; j < net.size(); ++j) {
    for (LinkId i = 0; i < net.size(); ++i) {
      gains[j * net.size() + i] = net.mean_gain(perm[j], perm[i]);
    }
  }
  return Network(net.size(), std::move(gains), net.noise_power());
}

TEST(Metamorphic, GainScaleInvariance) {
  auto net = raysched::testing::paper_network(15, 1);
  const auto scaled = scaled_copy(net, 1e6);
  const double beta = 2.5;
  LinkSet all;
  for (LinkId i = 0; i < net.size(); ++i) all.push_back(i);

  for (LinkId i = 0; i < net.size(); ++i) {
    EXPECT_NEAR(model::sinr_nonfading(net, all, i),
                model::sinr_nonfading(scaled, all, i),
                1e-9 * model::sinr_nonfading(net, all, i));
    EXPECT_NEAR(model::success_probability_rayleigh(net, all, i, units::Threshold(beta)).value(),
                model::success_probability_rayleigh(scaled, all, i, units::Threshold(beta)).value(),
                1e-12);
    EXPECT_NEAR(model::affectance_raw(net, (i + 1) % net.size(), i, units::Threshold(beta)),
                model::affectance_raw(scaled, (i + 1) % net.size(), i, units::Threshold(beta)),
                1e-9);
  }
  EXPECT_EQ(model::is_feasible(net, all, units::Threshold(beta)),
            model::is_feasible(scaled, all, units::Threshold(beta)));
}

TEST(Metamorphic, GainScaleInvarianceOfAlgorithms) {
  auto net = raysched::testing::paper_network(20, 2);
  const auto scaled = scaled_copy(net, 1e-4);
  const double beta = 2.5;
  // The scaled copy is a matrix network with no geometry, so the greedy
  // runs it in id order; compare it with an unscaled matrix copy, which
  // the greedy runs in the same order (length sorting would otherwise
  // differ, which is an ordering effect, not a numerical one).
  const auto unscaled = scaled_copy(net, 1.0);
  EXPECT_EQ(algorithms::greedy_capacity(unscaled, beta).selected,
            algorithms::greedy_capacity(scaled, beta).selected);
  EXPECT_EQ(algorithms::exact_max_feasible_set(net, beta, 20).selected,
            algorithms::exact_max_feasible_set(scaled, beta, 20).selected);
}

TEST(Metamorphic, Theorem1ScaleInvarianceWithProbabilities) {
  auto net = raysched::testing::paper_network(12, 3);
  const auto scaled = scaled_copy(net, 3.7e5);
  util::RngStream rng(3);
  std::vector<double> q(net.size());
  for (auto& v : q) v = rng.uniform();
  for (LinkId i = 0; i < net.size(); ++i) {
    EXPECT_NEAR(core::rayleigh_success_probability(net, units::probabilities(q), i, units::Threshold(2.5)).value(),
                core::rayleigh_success_probability(scaled, units::probabilities(q), i, units::Threshold(2.5)).value(), 1e-12);
  }
  EXPECT_NEAR(core::expected_rayleigh_successes(net, units::probabilities(q), units::Threshold(2.5)),
              core::expected_rayleigh_successes(scaled, units::probabilities(q), units::Threshold(2.5)), 1e-9);
}

TEST(Metamorphic, PermutationEquivariance) {
  auto net = raysched::testing::paper_network(12, 4);
  std::vector<LinkId> perm = {7, 2, 9, 0, 11, 4, 1, 8, 3, 10, 5, 6};
  const auto permuted = permuted_copy(net, perm);
  const double beta = 2.5;

  // SINR of permuted link k among all == SINR of original perm[k].
  LinkSet all;
  for (LinkId i = 0; i < net.size(); ++i) all.push_back(i);
  for (LinkId k = 0; k < net.size(); ++k) {
    EXPECT_NEAR(model::sinr_nonfading(permuted, all, k),
                model::sinr_nonfading(net, all, perm[k]), 1e-12);
    EXPECT_NEAR(model::success_probability_rayleigh(permuted, all, k, units::Threshold(beta)).value(),
                model::success_probability_rayleigh(net, all, perm[k], units::Threshold(beta)).value(),
                1e-15);
  }

  // The exact optimum's *size* is permutation invariant (the set itself
  // relabels).
  const auto opt_a = algorithms::exact_max_feasible_set(net, beta, 12);
  const auto opt_b = algorithms::exact_max_feasible_set(permuted, beta, 12);
  EXPECT_EQ(opt_a.selected.size(), opt_b.selected.size());
  // And the permuted optimum maps back to a feasible set of the original.
  LinkSet mapped;
  for (LinkId k : opt_b.selected) mapped.push_back(perm[k]);
  model::normalize_link_set(net, mapped);
  EXPECT_TRUE(model::is_feasible(net, mapped, units::Threshold(beta)));
}

TEST(Metamorphic, IsometryInvarianceOfGeometry) {
  // Translate + rotate every node: the gain matrix must be identical.
  util::RngStream rng(5);
  model::RandomPlaneParams params;
  params.num_links = 10;
  const auto links = model::random_plane_links(params, rng);

  const double theta = 0.73;
  const double tx = 500.0, ty = -120.0;
  auto transform = [&](const model::Point& p) {
    return model::Point{p.x * std::cos(theta) - p.y * std::sin(theta) + tx,
                        p.x * std::sin(theta) + p.y * std::cos(theta) + ty};
  };
  std::vector<model::Link> moved;
  for (const auto& l : links) {
    moved.push_back({transform(l.sender), transform(l.receiver)});
  }
  const Network a(links, model::PowerAssignment::uniform(2.0), 2.2, units::Power(4e-7));
  const Network b(moved, model::PowerAssignment::uniform(2.0), 2.2, units::Power(4e-7));
  for (LinkId j = 0; j < a.size(); ++j) {
    for (LinkId i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a.mean_gain(j, i), b.mean_gain(j, i),
                  1e-9 * a.mean_gain(j, i))
          << j << "," << i;
    }
  }
}

TEST(Metamorphic, PowerUnitInvarianceAtZeroNoise) {
  // With nu = 0, scaling all powers by c scales all gains by c: SINRs and
  // everything derived from them are unchanged.
  util::RngStream rng(6);
  model::RandomPlaneParams params;
  params.num_links = 12;
  const auto links = model::random_plane_links(params, rng);
  const Network p1(links, model::PowerAssignment::uniform(1.0), 2.2, units::Power(0.0));
  const Network p9(links, model::PowerAssignment::uniform(9.0), 2.2, units::Power(0.0));
  const double beta = 2.5;
  EXPECT_EQ(algorithms::greedy_capacity(p1, beta).selected,
            algorithms::greedy_capacity(p9, beta).selected);
  LinkSet all;
  for (LinkId i = 0; i < p1.size(); ++i) all.push_back(i);
  EXPECT_NEAR(model::expected_successes_rayleigh(p1, all, units::Threshold(beta)),
              model::expected_successes_rayleigh(p9, all, units::Threshold(beta)), 1e-9);
}

TEST(Metamorphic, BetaScalingOfSpectralRadius) {
  // rho(M) is linear in beta by construction.
  auto net = raysched::testing::paper_network(10, 7);
  LinkSet set = {0, 2, 4, 6, 8};
  const double r1 = model::interference_spectral_radius(net, set, units::Threshold(1.0));
  const double r3 = model::interference_spectral_radius(net, set, units::Threshold(3.0));
  EXPECT_NEAR(r3, 3.0 * r1, 1e-6 * r3);
}

TEST(Metamorphic, UtilityMonotoneUnderSinrImprovement) {
  // Removing an interferer can only raise every remaining link's SINR,
  // hence every non-decreasing utility.
  auto net = raysched::testing::paper_network(10, 8);
  LinkSet with = {0, 1, 2, 3, 4};
  LinkSet without = {0, 1, 2, 3};
  const core::Utility u = core::Utility::shannon();
  for (LinkId i : without) {
    EXPECT_GE(u.value(model::sinr_nonfading(net, without, i)),
              u.value(model::sinr_nonfading(net, with, i)));
    EXPECT_GE(model::success_probability_rayleigh(net, without, i, units::Threshold(2.5)),
              model::success_probability_rayleigh(net, with, i, units::Threshold(2.5)));
  }
}

TEST(Metamorphic, SerializationComposesWithScaling) {
  // save(load(x)) == save(x): serialization is idempotent.
  auto net = raysched::testing::paper_network(6, 9);
  std::stringstream s1, s2;
  model::write_network(s1, net);
  const auto loaded = model::read_network(s1);
  model::write_network(s2, loaded);
  std::stringstream s3;
  model::write_network(s3, net);
  EXPECT_EQ(s2.str(), s3.str());
}

}  // namespace
}  // namespace raysched
