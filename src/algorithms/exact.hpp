// raysched: exact and near-exact optima for capacity maximization.
//
// Branch and bound computes the true maximum feasible set (binary utility)
// for small instances (n <= ~20 in practice); it is the test oracle for the
// approximation algorithms and the OPT reference in small experiments.
// Local search (greedy seed + add/swap moves + random restarts) provides a
// certified-feasible lower bound on OPT for instances of Figure-1 size.
#pragma once

#include <cstddef>

#include "algorithms/capacity.hpp"
#include "model/network.hpp"
#include "util/rng.hpp"

namespace raysched::algorithms {

/// Exact maximum feasible set by branch and bound. Links are considered in
/// decreasing signal order (most noise-tolerant first); pruning uses the
/// remaining-count bound. Runs the weighted search of
/// exact_max_weight_feasible_set (weighted.hpp) with unit weights.
/// Throws raysched::error if net.size() > max_n (cost is exponential).
[[nodiscard]] CapacityResult exact_max_feasible_set(const model::Network& net,
                                                    double beta,
                                                    std::size_t max_n = 24);

/// Options for the local-search OPT approximation.
struct LocalSearchOptions {
  int restarts = 8;          ///< random restarts (first restart seeds greedy)
  int max_passes = 32;       ///< improvement passes per restart
  std::uint64_t seed = 1234; ///< RNG seed for restart orders
  /// Enable 1-out/2-in swap moves. They improve quality but cost roughly
  /// O(|S| * n * |S|^2) per pass; disable on dense instances (n >~ 150).
  bool use_swap_moves = true;
};

/// Feasible local-search maximum: greedy seed, then repeated add-moves and
/// 1-out/1-in swap moves until no improvement, with random restarts.
/// Returns the best feasible set found (a lower bound on OPT).
[[nodiscard]] CapacityResult local_search_max_feasible_set(
    const model::Network& net, double beta, const LocalSearchOptions& options = {});

}  // namespace raysched::algorithms
