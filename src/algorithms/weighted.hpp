// raysched: link-weighted capacity maximization.
//
// The paper's second canonical utility (Section 2) weights each successful
// link by w_i >= 0; the objective is the total weight of the feasible
// transmitting set. This module provides a weight-aware greedy (certified
// feasible), a weighted branch-and-bound oracle for small n, and weighted
// local search. The unweighted greedy_capacity and exact_max_feasible_set
// run the greedy and the branch and bound here with unit weights. Solutions
// transfer to Rayleigh fading through Lemma 2 with the weighted threshold
// utility exactly like the unweighted case.
#pragma once

#include <vector>

#include "algorithms/capacity.hpp"
#include "model/network.hpp"

namespace raysched::algorithms {

/// Result of weighted capacity maximization; `value` is the total weight.
struct WeightedCapacityResult {
  model::LinkSet selected;
  double value = 0.0;
  std::string algorithm;
};

/// Weight-aware greedy: the candidates are the nonzero-weight links, ordered
/// by decreasing weight (ties by increasing length on geometric networks,
/// then by id) and admitted while the uncapped affectance on every admitted
/// link stays <= options.tau, so the output is SINR-feasible at beta.
/// Running affectance sums make the cost O(n + m log m + |S|·m) for m
/// candidates, with no O(n²) precompute. greedy_capacity is this function
/// with unit weights on its candidates.
[[nodiscard]] WeightedCapacityResult weighted_greedy_capacity(
    const model::Network& net, double beta, const std::vector<double>& weights,
    const GreedyOptions& options = {});

/// Exact maximum-weight feasible set by branch and bound (remaining-weight
/// pruning), links tried in decreasing weight order. Throws if
/// net.size() > max_n (cost is exponential).
[[nodiscard]] WeightedCapacityResult exact_max_weight_feasible_set(
    const model::Network& net, double beta, const std::vector<double>& weights,
    std::size_t max_n = 22);

/// Weighted local search: greedy seed, then add moves and 1-out swap moves
/// accepted when they increase total weight while staying feasible.
[[nodiscard]] WeightedCapacityResult weighted_local_search(
    const model::Network& net, double beta, const std::vector<double>& weights,
    int max_passes = 16);

namespace detail {

/// The branch and bound behind exact_max_weight_feasible_set and, with
/// unit weights, exact_max_feasible_set (exact.hpp): links are tried in
/// `order`, a branch is cut once its weight plus the remaining weight
/// cannot beat the incumbent, and among equal-weight optima the first one
/// found wins. Inputs are not validated. Returns the sorted set and its
/// weight; `algorithm` is left empty for the caller to name.
[[nodiscard]] WeightedCapacityResult max_weight_branch_and_bound(
    const model::Network& net, double beta, const std::vector<double>& weights,
    const std::vector<model::LinkId>& order);

}  // namespace detail

}  // namespace raysched::algorithms
