// Shared fixtures and instance builders for the raysched test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>
#include <vector>

#include "raysched.hpp"

namespace raysched::testing {

/// Two parallel links far apart: both trivially feasible at moderate beta.
inline model::Network two_far_links(double noise = 0.0) {
  std::vector<model::Link> links = {
      {model::Point{0.0, 0.0}, model::Point{1.0, 0.0}},
      {model::Point{0.0, 100.0}, model::Point{1.0, 100.0}},
  };
  return model::Network(std::move(links), model::PowerAssignment::uniform(1.0),
                        2.0, units::Power(noise));
}

/// Two co-located links: heavy mutual interference, at most one can meet a
/// beta >= 1 threshold.
inline model::Network two_close_links(double noise = 0.0) {
  std::vector<model::Link> links = {
      {model::Point{0.0, 0.0}, model::Point{1.0, 0.0}},
      {model::Point{0.0, 0.5}, model::Point{1.0, 0.5}},
  };
  return model::Network(std::move(links), model::PowerAssignment::uniform(1.0),
                        2.0, units::Power(noise));
}

/// A 3-link geometry-free network with a hand-chosen gain matrix.
/// Row-major [j*n + i] = S(j,i):
///   own signals 10, cross gains small and asymmetric.
inline model::Network hand_matrix_network(double noise = 0.1) {
  const std::vector<double> gains = {
      10.0, 1.0, 0.5,   // sender 0 at receivers 0,1,2
      2.0, 10.0, 0.25,  // sender 1
      0.5, 0.5, 10.0,   // sender 2
  };
  return model::Network(3, gains, units::Power(noise));
}

/// Paper-style random plane network (Figure 1 family, scaled down).
inline model::Network paper_network(std::size_t n, std::uint64_t seed,
                                    double alpha = 2.2, double noise = 4e-7,
                                    double power = 2.0,
                                    double min_len = 20.0,
                                    double max_len = 40.0) {
  util::RngStream rng(seed);
  model::RandomPlaneParams params;
  params.num_links = n;
  params.min_length = min_len;
  params.max_length = max_len;
  auto links = model::random_plane_links(params, rng);
  return model::Network(std::move(links),
                        model::PowerAssignment::uniform(power), alpha, units::Power(noise));
}

/// Random geometric network for the capacity-oracle equivalence sweeps,
/// with optional exact duplicate links (equal lengths and signals, so
/// length and signal sorts fall through to ids, and optima tie) and noise
/// near the median link's budget, so some links are infeasible even alone.
inline model::Network random_geometric_network(util::RngStream& rng,
                                               std::size_t n, double beta) {
  model::RandomPlaneParams params;
  params.num_links = n;
  params.plane_size = rng.uniform(50.0, 1000.0);
  params.min_length = rng.uniform(1.0, 20.0);
  params.max_length = params.min_length * rng.uniform(1.0, 3.0);
  auto links = model::random_plane_links(params, rng);
  if (n > 1 && rng.bernoulli(0.4)) {
    const std::size_t dups = 1 + rng.uniform_index(n / 2 + 1);
    for (std::size_t d = 0; d < dups; ++d) {
      links[rng.uniform_index(n)] = links[rng.uniform_index(n)];
    }
  }
  const double alpha = rng.uniform(2.0, 4.0);
  const double mid = 0.5 * (params.min_length + params.max_length);
  const double noise = rng.bernoulli(0.5)
                           ? rng.uniform(0.3, 1.2) / std::pow(mid, alpha) / beta
                           : 0.0;
  const auto powers = rng.bernoulli(0.5) ? model::PowerAssignment::uniform(1.0)
                                         : model::PowerAssignment::square_root(1.0);
  return model::Network(std::move(links), powers, alpha, units::Power(noise));
}

/// Geometry-free counterpart: the greedy's length tie-break falls through
/// to ids. Sparse cross gains with exact zeros, and noise that puts some
/// links over budget alone.
inline model::Network random_matrix_network(util::RngStream& rng,
                                            std::size_t n, double beta) {
  std::vector<double> gains(n * n, 0.0);
  const double density = rng.uniform(0.1, 1.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i == j) {
        gains[j * n + i] = rng.uniform(0.5, 2.0);
      } else if (rng.bernoulli(density)) {
        gains[j * n + i] = rng.uniform(0.0, 0.3);
      }
    }
  }
  const double noise = rng.bernoulli(0.5) ? rng.uniform(0.0, 1.5) / beta : 0.0;
  return model::Network(n, std::move(gains), units::Power(noise));
}

/// True for a geometric network with two links at exactly the same sender
/// and receiver positions.
inline bool has_duplicate_link(const model::Network& net) {
  if (!net.has_geometry()) return false;
  const auto& links = net.links();
  for (std::size_t a = 0; a < links.size(); ++a) {
    for (std::size_t b = a + 1; b < links.size(); ++b) {
      if (links[a].sender == links[b].sender &&
          links[a].receiver == links[b].receiver) {
        return true;
      }
    }
  }
  return false;
}

/// The unweighted greedy as it stood before it became a unit-weight call of
/// weighted_greedy_capacity, kept verbatim as the bitwise reference: a
/// stable length sort of the normalised candidates and a checked
/// affectance_raw call per (candidate, selected) pair.
inline algorithms::CapacityResult seed_greedy_capacity(
    const model::Network& net, double beta, const model::LinkSet& candidates,
    const algorithms::GreedyOptions& options) {
  model::LinkSet order = candidates;
  if (order.empty()) {
    order.resize(net.size());
    std::iota(order.begin(), order.end(), model::LinkId{0});
  }
  model::normalize_link_set(net, order);
  if (net.has_geometry()) {
    std::stable_sort(order.begin(), order.end(),
                     [&](model::LinkId a, model::LinkId b) {
                       return net.link(a).length() < net.link(b).length();
                     });
  }

  std::ostringstream tau;
  tau << options.tau;
  algorithms::CapacityResult result;
  result.algorithm = "greedy(tau=" + tau.str() + ")";
  std::vector<double> in(net.size(), 0.0);
  for (model::LinkId i : order) {
    if (net.signal(i) / beta <= net.noise()) continue;
    double on_i = 0.0;
    bool ok = true;
    for (model::LinkId j : result.selected) {
      on_i += model::affectance_raw(net, j, i, units::Threshold(beta));
      if (on_i > options.tau) {
        ok = false;
        break;
      }
      if (in[j] + model::affectance_raw(net, i, j, units::Threshold(beta)) >
          options.tau) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    for (model::LinkId j : result.selected) {
      in[j] += model::affectance_raw(net, i, j, units::Threshold(beta));
    }
    in[i] = on_i;
    result.selected.push_back(i);
  }
  std::sort(result.selected.begin(), result.selected.end());
  result.value = static_cast<double>(result.selected.size());
  return result;
}

/// Same selected set, and the same value down to the last bit, for any
/// capacity result type with `selected` and `value`.
template <typename Result>
::testing::AssertionResult same_selection_bitwise(const Result& got,
                                                  const Result& want) {
  if (got.selected != want.selected) {
    return ::testing::AssertionFailure()
           << "selected " << ::testing::PrintToString(got.selected)
           << " != reference " << ::testing::PrintToString(want.selected);
  }
  if (std::memcmp(&got.value, &want.value, sizeof(double)) != 0) {
    return ::testing::AssertionFailure()
           << "value " << got.value << " != reference " << want.value;
  }
  return ::testing::AssertionSuccess();
}

}  // namespace raysched::testing
