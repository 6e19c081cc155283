#include "algorithms/weighted.hpp"

#include <algorithm>
#include <numeric>

#include "model/affectance.hpp"
#include "model/sinr.hpp"
#include "util/error.hpp"
#include "util/fp.hpp"

namespace raysched::algorithms {

using model::LinkId;
using model::LinkSet;
using model::Network;

namespace {

void validate_weights(const Network& net, const std::vector<double>& weights) {
  require(weights.size() == net.size(),
          "weighted capacity: weights size must equal network size");
  for (double w : weights) {
    require(w >= 0.0, "weighted capacity: weights must be >= 0");
  }
}

double total_weight(const LinkSet& set, const std::vector<double>& weights) {
  double sum = 0.0;
  for (LinkId i : set) sum += weights[i];
  return sum;
}

}  // namespace

WeightedCapacityResult weighted_greedy_capacity(
    const Network& net, double beta, const std::vector<double>& weights,
    const GreedyOptions& options) {
  require(beta > 0.0, "weighted_greedy_capacity: beta must be positive");
  require(options.tau > 0.0 && options.tau <= 1.0,
          "weighted_greedy_capacity: tau must be in (0, 1]");
  validate_weights(net, weights);

  std::vector<LinkId> order(net.size());
  std::iota(order.begin(), order.end(), LinkId{0});
  std::stable_sort(order.begin(), order.end(), [&](LinkId a, LinkId b) {
    if (weights[a] != weights[b]) return weights[a] > weights[b];
    if (net.has_geometry()) {
      return net.link(a).length() < net.link(b).length();
    }
    return a < b;
  });

  WeightedCapacityResult result;
  result.algorithm = "weighted-greedy";
  std::vector<double> in(net.size(), 0.0);
  for (LinkId i : order) {
    if (util::fp::exact_zero(weights[i])) continue;  // worthless links
    if (net.signal(i) / beta <= net.noise()) continue;
    double on_i = 0.0;
    bool ok = true;
    for (LinkId j : result.selected) {
      on_i += model::affectance_raw(net, j, i, units::Threshold(beta));
      if (on_i > options.tau ||
          in[j] + model::affectance_raw(net, i, j, units::Threshold(beta)) > options.tau) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    for (LinkId j : result.selected) {
      in[j] += model::affectance_raw(net, i, j, units::Threshold(beta));
    }
    in[i] = on_i;
    result.selected.push_back(i);
  }
  std::sort(result.selected.begin(), result.selected.end());
  result.value = total_weight(result.selected, weights);
  return result;
}

namespace {

struct WeightedBranchState {
  const Network& net;
  double beta;
  const std::vector<double>& weights;
  std::vector<double> interference;  // incoming interference + noise
  LinkSet chosen;
  double chosen_weight = 0.0;
  LinkSet best;
  double best_weight = 0.0;

  WeightedBranchState(const Network& n, double b, const std::vector<double>& w)
      : net(n), beta(b), weights(w), interference(n.size(), n.noise()) {}

  [[nodiscard]] bool can_add(LinkId i) const {
    if (net.signal(i) < beta * interference[i]) return false;
    for (LinkId j : chosen) {
      if (net.signal(j) < beta * (interference[j] + net.mean_gain(i, j))) {
        return false;
      }
    }
    return true;
  }

  void add(LinkId i) {
    for (LinkId j = 0; j < net.size(); ++j) {
      if (j != i) interference[j] += net.mean_gain(i, j);
    }
    chosen.push_back(i);
    chosen_weight += weights[i];
  }

  void remove_last() {
    const LinkId i = chosen.back();
    chosen.pop_back();
    chosen_weight -= weights[i];
    for (LinkId j = 0; j < net.size(); ++j) {
      if (j != i) interference[j] -= net.mean_gain(i, j);
    }
  }
};

void weighted_branch(const std::vector<LinkId>& order,
                     const std::vector<double>& suffix_weight,
                     std::size_t index, WeightedBranchState& state) {
  if (state.chosen_weight > state.best_weight) {
    state.best = state.chosen;
    state.best_weight = state.chosen_weight;
  }
  if (index >= order.size()) return;
  if (state.chosen_weight + suffix_weight[index] <= state.best_weight) return;
  const LinkId i = order[index];
  if (state.weights[i] > 0.0 && state.can_add(i)) {
    state.add(i);
    weighted_branch(order, suffix_weight, index + 1, state);
    state.remove_last();
  }
  weighted_branch(order, suffix_weight, index + 1, state);
}

}  // namespace

WeightedCapacityResult exact_max_weight_feasible_set(
    const Network& net, double beta, const std::vector<double>& weights,
    std::size_t max_n) {
  require(beta > 0.0, "exact_max_weight_feasible_set: beta must be positive");
  require(net.size() <= max_n,
          "exact_max_weight_feasible_set: instance too large; use "
          "weighted_local_search");
  validate_weights(net, weights);

  std::vector<LinkId> order(net.size());
  std::iota(order.begin(), order.end(), LinkId{0});
  std::stable_sort(order.begin(), order.end(), [&](LinkId a, LinkId b) {
    return weights[a] > weights[b];
  });
  std::vector<double> suffix_weight(order.size() + 1, 0.0);
  for (std::size_t k = order.size(); k > 0; --k) {
    suffix_weight[k - 1] = suffix_weight[k] + weights[order[k - 1]];
  }

  WeightedBranchState state(net, beta, weights);
  weighted_branch(order, suffix_weight, 0, state);
  std::sort(state.best.begin(), state.best.end());
  WeightedCapacityResult result;
  result.algorithm = "weighted-exact-bnb";
  result.selected = std::move(state.best);
  result.value = state.best_weight;
  return result;
}

WeightedCapacityResult weighted_local_search(const Network& net, double beta,
                                             const std::vector<double>& weights,
                                             int max_passes) {
  require(beta > 0.0, "weighted_local_search: beta must be positive");
  require(max_passes >= 1, "weighted_local_search: max_passes must be >= 1");
  validate_weights(net, weights);

  LinkSet current = weighted_greedy_capacity(net, beta, weights).selected;
  bool improved = true;
  for (int pass = 0; pass < max_passes && improved; ++pass) {
    improved = false;
    // Add moves: any feasible extension increases weight (weights >= 0).
    for (LinkId i = 0; i < net.size(); ++i) {
      if (util::fp::exact_zero(weights[i]) ||
          std::find(current.begin(), current.end(), i) != current.end()) {
        continue;
      }
      current.push_back(i);
      if (model::is_feasible(net, current, units::Threshold(beta))) {
        improved = true;
      } else {
        current.pop_back();
      }
    }
    // 1-out swap moves: remove one link, refill greedily by weight; accept
    // if the total weight strictly increases.
    const double current_weight = total_weight(current, weights);
    for (std::size_t out = 0; out < current.size(); ++out) {
      LinkSet trial = current;
      trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(out));
      for (LinkId i = 0; i < net.size(); ++i) {
        if (util::fp::exact_zero(weights[i]) ||
            std::find(trial.begin(), trial.end(), i) != trial.end()) {
          continue;
        }
        trial.push_back(i);
        if (!model::is_feasible(net, trial, units::Threshold(beta))) trial.pop_back();
      }
      if (total_weight(trial, weights) > current_weight + 1e-12) {
        current = std::move(trial);
        improved = true;
        break;
      }
    }
  }
  std::sort(current.begin(), current.end());
  WeightedCapacityResult result;
  result.algorithm = "weighted-local-search";
  result.value = total_weight(current, weights);
  result.selected = std::move(current);
  return result;
}

}  // namespace raysched::algorithms
