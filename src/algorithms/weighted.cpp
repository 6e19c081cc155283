#include "algorithms/weighted.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "model/sinr.hpp"
#include "util/contracts.hpp"
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

/// Sort key of a non-negative double: its bit pattern, which orders like
/// the value over [+0, +inf]. Integer compares keep the sort cheap.
std::uint64_t order_key(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A weighted-greedy candidate: a nonzero-weight link feasible alone.
struct Candidate {
  LinkId id = 0;
  std::uint64_t weight_key = 0;
  std::uint64_t length_key = 0;  // geometric networks only
  double budget = 0.0;   // signal / beta - noise, affectance_raw's denominator
  double sum = 0.0;      // affectance onto the link, in selection order
  std::size_t rank = 0;  // position in admission order
};

/// Raw affectance of sender j onto `target`, by affectance_raw's own
/// expression, so every quotient carries the same bits.
double affectance_onto(const Network& net, LinkId j, const Candidate& target) {
  RAYSCHED_EXPECT(target.budget > 0.0,
                  "weighted greedy: candidate budget must be positive");
  const double a = net.mean_gain(j, target.id) / target.budget;
  RAYSCHED_ENSURE(!std::isnan(a) && a >= 0.0,
                  "affectance must be non-negative and not NaN");
  return a;
}

}  // namespace

WeightedCapacityResult weighted_greedy_capacity(
    const Network& net, double beta, const std::vector<double>& weights,
    const GreedyOptions& options) {
  require(beta > 0.0, "weighted_greedy_capacity: beta must be positive");
  require(options.tau > 0.0 && options.tau <= 1.0,
          "weighted_greedy_capacity: tau must be in (0, 1]");
  validate_weights(net, weights);
  const double tau = options.tau;
  const bool geometric = net.has_geometry();

  // Zero-weight links are never admitted, so only the nonzero-weight links
  // are collected, in id order, each length computed once.
  std::size_t nonzero = 0;
  for (double w : weights) nonzero += util::fp::exact_zero(w) ? 0 : 1;
  std::vector<Candidate> cand;
  cand.reserve(nonzero);
  for (LinkId i = 0; i < net.size(); ++i) {
    if (util::fp::exact_zero(weights[i])) continue;
    // Infeasible even alone: affectance_raw would be +inf onto it.
    if (net.signal(i) / beta <= net.noise()) continue;
    Candidate c;
    c.id = i;
    c.weight_key = order_key(weights[i]);
    c.length_key = geometric ? order_key(net.link(i).length()) : 0;
    c.budget = net.signal(i) / beta - net.noise();
    cand.push_back(c);
  }
  const std::size_t m = cand.size();

  // Admission order: decreasing weight, then increasing length (geometric
  // networks only), then increasing id. The id tie-break makes the order
  // total, so an unstable sort gives exactly the stable order of id order.
  // One index buffer: [0, m) is the admission order, [m, 2m) the sweep
  // list of candidates still to be examined, in id order.
  std::vector<std::size_t> index(2 * m);
  const auto order = index.begin();
  const auto live = index.begin() + static_cast<std::ptrdiff_t>(m);
  std::iota(order, live, std::size_t{0});
  std::iota(live, index.end(), std::size_t{0});
  std::sort(order, live,
            [&cand](std::size_t x, std::size_t y) {
              const Candidate& a = cand[x];
              const Candidate& b = cand[y];
              if (a.weight_key != b.weight_key) {
                return a.weight_key > b.weight_key;
              }
              if (a.length_key != b.length_key) {
                return a.length_key < b.length_key;
              }
              return a.id < b.id;
            });
  for (std::size_t r = 0; r < m; ++r) cand[order[r]].rank = r;

  WeightedCapacityResult result;
  result.algorithm = "weighted-greedy";
  // Holds candidate indices, most loaded first, until the end; then ids.
  LinkSet& selected = result.selected;
  selected.reserve(m);
  std::size_t live_count = m;
  for (std::size_t r = 0; r < m; ++r) {
    const LinkId i = cand[order[r]].id;
    // On-check: the running sum is the affectance onto i from every
    // accepted link. Its terms are >= 0, so it exceeds tau iff a prefix does.
    if (cand[order[r]].sum > tau) continue;
    // In-check: would i push an accepted link over its budget?
    bool ok = true;
    for (std::size_t k : selected) {
      if (cand[k].sum + affectance_onto(net, i, cand[k]) > tau) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    for (std::size_t k : selected) {
      cand[k].sum += affectance_onto(net, i, cand[k]);
    }
    // Fold row i into every candidate still to be examined, in id order so
    // the row is read front to back. The sweep list drops examined links
    // and links over tau: those are rejected whatever they gain later.
    std::size_t kept = 0;
    for (std::size_t t = 0; t < live_count; ++t) {
      Candidate& c = cand[live[t]];
      if (c.rank <= r) continue;
      c.sum += affectance_onto(net, i, c);
      if (c.sum <= tau) live[kept++] = live[t];
    }
    live_count = kept;
    selected.push_back(order[r]);
    // Check the most loaded accepted links first: they are the likeliest
    // to be pushed over budget, and the check's outcome is order-free.
    // One admission moves each sum a little, so the set stays nearly in
    // order and one insertion-sort pass restores it.
    for (std::size_t s = 1; s < selected.size(); ++s) {
      const std::size_t x = selected[s];
      std::size_t t = s;
      for (; t > 0 && cand[selected[t - 1]].sum < cand[x].sum; --t) {
        selected[t] = selected[t - 1];
      }
      selected[t] = x;
    }
  }
  for (LinkId& k : selected) k = cand[k].id;
  std::sort(selected.begin(), selected.end());
  result.value = total_weight(selected, weights);
  return result;
}

namespace {

/// Incremental feasibility bookkeeping for branch and bound: tracks the
/// interference (plus noise) each link receives from the chosen links and
/// validates the SINR constraint on every tentative addition.
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
  // Prune: even taking every remaining link cannot beat the incumbent.
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

WeightedCapacityResult detail::max_weight_branch_and_bound(
    const Network& net, double beta, const std::vector<double>& weights,
    const std::vector<LinkId>& order) {
  std::vector<double> suffix_weight(order.size() + 1, 0.0);
  for (std::size_t k = order.size(); k > 0; --k) {
    suffix_weight[k - 1] = suffix_weight[k] + weights[order[k - 1]];
  }
  WeightedBranchState state(net, beta, weights);
  weighted_branch(order, suffix_weight, 0, state);
  std::sort(state.best.begin(), state.best.end());
  WeightedCapacityResult result;
  result.selected = std::move(state.best);
  result.value = state.best_weight;
  return result;
}

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
  WeightedCapacityResult result =
      detail::max_weight_branch_and_bound(net, beta, weights, order);
  result.algorithm = "weighted-exact-bnb";
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
