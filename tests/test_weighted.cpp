// Tests for link-weighted capacity maximization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "test_helpers.hpp"
#include "util/fp.hpp"

namespace raysched::algorithms {
namespace {

using model::LinkId;
using model::LinkSet;
using model::Network;
using raysched::testing::has_duplicate_link;
using raysched::testing::paper_network;
using raysched::testing::random_geometric_network;
using raysched::testing::random_matrix_network;
using raysched::testing::same_selection_bitwise;
using raysched::testing::two_close_links;

std::vector<double> random_weights(std::size_t n, std::uint64_t seed) {
  util::RngStream rng(seed);
  std::vector<double> w(n);
  for (auto& v : w) v = rng.uniform(0.1, 10.0);
  return w;
}

TEST(WeightedGreedy, PicksHeavierOfConflictingPair) {
  auto net = two_close_links(1e-6);
  const double beta = 2.0;
  const auto light_first =
      weighted_greedy_capacity(net, beta, {1.0, 5.0});
  EXPECT_EQ(light_first.selected, (LinkSet{1}));
  EXPECT_DOUBLE_EQ(light_first.value, 5.0);
  const auto heavy_first =
      weighted_greedy_capacity(net, beta, {7.0, 5.0});
  EXPECT_EQ(heavy_first.selected, (LinkSet{0}));
  EXPECT_DOUBLE_EQ(heavy_first.value, 7.0);
}

TEST(WeightedGreedy, OutputFeasibleAndSkipsZeroWeights) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto net = paper_network(40, 100 + seed);
    auto w = random_weights(net.size(), seed);
    w[0] = 0.0;
    w[5] = 0.0;
    const auto result = weighted_greedy_capacity(net, 2.5, w);
    EXPECT_TRUE(model::is_feasible(net, result.selected, units::Threshold(2.5)));
    for (LinkId i : result.selected) {
      EXPECT_GT(w[i], 0.0);
    }
  }
}

TEST(WeightedGreedy, UnitWeightsBehaveLikeCardinality) {
  auto net = paper_network(30, 7);
  const std::vector<double> ones(net.size(), 1.0);
  const auto weighted = weighted_greedy_capacity(net, 2.5, ones);
  EXPECT_DOUBLE_EQ(weighted.value,
                   static_cast<double>(weighted.selected.size()));
  // Equal weights fall through to the length order of the old cardinality
  // loop: the same set, the same value bits.
  const auto cardinality =
      raysched::testing::seed_greedy_capacity(net, 2.5, {}, {});
  EXPECT_EQ(weighted.selected, cardinality.selected);
  EXPECT_EQ(std::memcmp(&weighted.value, &cardinality.value, sizeof(double)),
            0);
  EXPECT_TRUE(model::is_feasible(net, weighted.selected, units::Threshold(2.5)));
}

TEST(WeightedGreedy, ValidatesWeights) {
  auto net = paper_network(5, 1);
  EXPECT_THROW(weighted_greedy_capacity(net, 2.5, {1.0, 2.0}),
               raysched::error);
  EXPECT_THROW(
      weighted_greedy_capacity(net, 2.5, {1.0, 1.0, 1.0, 1.0, -1.0}),
      raysched::error);
}

// The original weighted greedy, kept verbatim as the bitwise reference for
// the candidate-only admission loop: a stable sort of all n links and a
// checked affectance_raw call per (candidate, selected) pair.
WeightedCapacityResult reference_weighted_greedy(
    const Network& net, double beta, const std::vector<double>& weights,
    const GreedyOptions& options = {}) {
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
  double value = 0.0;
  for (LinkId i : result.selected) value += weights[i];
  result.value = value;
  return result;
}

// ~40% zeros; the rest mostly small integers (many ties), sometimes reals.
std::vector<double> tied_weights(util::RngStream& rng, std::size_t n) {
  const auto levels = static_cast<std::uint64_t>(
      rng.bernoulli(0.5) ? 1 + rng.uniform_index(4) : 1 + rng.uniform_index(1000));
  const bool real = rng.bernoulli(0.15);
  std::vector<double> w(n, 0.0);
  for (double& x : w) {
    if (rng.bernoulli(0.4)) continue;
    x = real ? rng.uniform(0.01, 10.0)
             : static_cast<double>(1 + rng.uniform_index(levels));
  }
  return w;
}

TEST(WeightedGreedy, MatchesReferenceBitwiseOnRandomInstances) {
  util::RngStream rng(0x5EEDu);
  int mismatches = 0;
  int infeasible_alone = 0;  // nonzero-weight links skipped by the budget test
  int large_sets = 0;        // instances admitting at least five links
  int duplicated = 0;
  constexpr int kInstances = 2400;
  for (int trial = 0; trial < kInstances; ++trial) {
    const std::size_t n =
        1 + rng.uniform_index(trial % 10 == 0 ? 300 : 120);
    const double beta = rng.uniform(0.5, 4.0);
    const Network net = trial % 3 == 2 ? random_matrix_network(rng, n, beta)
                                       : random_geometric_network(rng, n, beta);
    const auto w = tied_weights(rng, n);
    GreedyOptions options;
    options.tau = rng.bernoulli(0.3) ? 1.0 : rng.uniform(0.05, 1.0);

    const auto got = weighted_greedy_capacity(net, beta, w, options);
    const auto want = reference_weighted_greedy(net, beta, w, options);
    const auto same = same_selection_bitwise(got, want);
    if (!same) {
      ++mismatches;
      ADD_FAILURE() << "trial " << trial << " n " << n << ": " << same.message();
    }
    if (want.selected.size() >= 5) ++large_sets;
    for (LinkId i = 0; i < n; ++i) {
      if (w[i] > 0.0 && net.signal(i) / beta <= net.noise()) {
        ++infeasible_alone;
        break;
      }
    }
    if (net.has_geometry()) {
      std::vector<double> lengths;
      for (const model::Link& link : net.links()) {
        lengths.push_back(link.length());
      }
      std::sort(lengths.begin(), lengths.end());
      if (std::adjacent_find(lengths.begin(), lengths.end()) != lengths.end()) {
        ++duplicated;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  // The generator must actually reach the cases the port could get wrong.
  EXPECT_GT(infeasible_alone, kInstances / 20);
  EXPECT_GT(large_sets, kInstances / 10);
  EXPECT_GT(duplicated, kInstances / 10);
}

TEST(WeightedGreedy, MatchesReferenceOnOverloadedServiceWeights) {
  // Weights exactly as a saturated serving loop submits them: integer queue
  // lengths, cut to the heaviest quarter while the service is Overloaded.
  serve::ServeConfig config;
  config.master_seed = 77;
  config.traffic.mean_rate = 0.5;
  config.health.overload_enter_backlog = 2048;
  config.health.overload_exit_backlog = 512;
  serve::Service service(paper_network(256, 91), config);
  int captured = 0;
  for (int slot = 0; slot < 400 && captured < 12; ++slot) {
    (void)service.run(1);
    if (service.health().state() != serve::HealthState::Overloaded) continue;
    const serve::ServeSnapshot snap = service.snapshot();
    if (!snap.recompute.in_flight ||
        snap.recompute.submit_slot + 1 != snap.next_slot) {
      continue;
    }
    const auto& w = snap.recompute.weights;
    const auto nonzero = std::count_if(w.begin(), w.end(),
                                       [](double x) { return x > 0.0; });
    ASSERT_LE(nonzero, 64) << "overload cut must leave a quarter of 256";
    const double beta = service.config().beta.value();
    EXPECT_TRUE(same_selection_bitwise(weighted_greedy_capacity(service.network(), beta, w),
                              reference_weighted_greedy(service.network(), beta, w)))
        << "slot " << slot;
    ++captured;
  }
  EXPECT_GE(captured, 5);
}

TEST(WeightedBnB, MatchesExhaustiveOnTinyInstances) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto net = paper_network(8, 400 + seed);
    const auto w = random_weights(8, seed + 50);
    const double beta = 2.5;
    double best = 0.0;
    for (unsigned mask = 0; mask < 256u; ++mask) {
      LinkSet s;
      double weight = 0.0;
      for (LinkId i = 0; i < 8; ++i) {
        if (mask & (1u << i)) {
          s.push_back(i);
          weight += w[i];
        }
      }
      if (model::is_feasible(net, s, units::Threshold(beta))) best = std::max(best, weight);
    }
    const auto bnb = exact_max_weight_feasible_set(net, beta, w);
    EXPECT_NEAR(bnb.value, best, 1e-9) << "seed " << seed;
    EXPECT_TRUE(model::is_feasible(net, bnb.selected, units::Threshold(beta)));
  }
}

// The weighted branch and bound as it stood before the unweighted search
// was folded into it, kept verbatim as the bitwise reference.
struct SeedWeightedBranchState {
  const Network& net;
  double beta;
  const std::vector<double>& weights;
  std::vector<double> interference;  // incoming interference + noise
  LinkSet chosen;
  double chosen_weight = 0.0;
  LinkSet best;
  double best_weight = 0.0;

  SeedWeightedBranchState(const Network& n, double b,
                          const std::vector<double>& w)
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

void seed_weighted_branch(const std::vector<LinkId>& order,
                          const std::vector<double>& suffix_weight,
                          std::size_t index, SeedWeightedBranchState& state) {
  if (state.chosen_weight > state.best_weight) {
    state.best = state.chosen;
    state.best_weight = state.chosen_weight;
  }
  if (index >= order.size()) return;
  if (state.chosen_weight + suffix_weight[index] <= state.best_weight) return;
  const LinkId i = order[index];
  if (state.weights[i] > 0.0 && state.can_add(i)) {
    state.add(i);
    seed_weighted_branch(order, suffix_weight, index + 1, state);
    state.remove_last();
  }
  seed_weighted_branch(order, suffix_weight, index + 1, state);
}

WeightedCapacityResult seed_exact_max_weight_feasible_set(
    const Network& net, double beta, const std::vector<double>& weights) {
  std::vector<LinkId> order(net.size());
  std::iota(order.begin(), order.end(), LinkId{0});
  std::stable_sort(order.begin(), order.end(), [&](LinkId a, LinkId b) {
    return weights[a] > weights[b];
  });
  std::vector<double> suffix_weight(order.size() + 1, 0.0);
  for (std::size_t k = order.size(); k > 0; --k) {
    suffix_weight[k - 1] = suffix_weight[k] + weights[order[k - 1]];
  }

  SeedWeightedBranchState state(net, beta, weights);
  seed_weighted_branch(order, suffix_weight, 0, state);
  std::sort(state.best.begin(), state.best.end());
  WeightedCapacityResult result;
  result.algorithm = "weighted-exact-bnb";
  result.selected = std::move(state.best);
  result.value = state.best_weight;
  return result;
}

TEST(WeightedBnB, MatchesSeedRecursionBitwise) {
  util::RngStream rng(0xB4Bu);
  int mismatches = 0;
  int duplicated = 0;  // geometric instances with an exact duplicate link
  int tied = 0;        // instances with two nonzero links of equal weight
  constexpr int kInstances = 500;
  for (int trial = 0; trial < kInstances; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(14);
    const double beta = rng.uniform(0.5, 4.0);
    const Network net = trial % 3 == 2 ? random_matrix_network(rng, n, beta)
                                       : random_geometric_network(rng, n, beta);
    const auto w = tied_weights(rng, n);
    const auto got = exact_max_weight_feasible_set(net, beta, w);
    const auto want = seed_exact_max_weight_feasible_set(net, beta, w);
    const auto same = same_selection_bitwise(got, want);
    if (!same) {
      ++mismatches;
      ADD_FAILURE() << "trial " << trial << " n " << n << ": " << same.message();
    }
    EXPECT_EQ(got.algorithm, want.algorithm);
    std::vector<double> nonzero;
    for (double x : w) {
      if (x > 0.0) nonzero.push_back(x);
    }
    std::sort(nonzero.begin(), nonzero.end());
    if (std::adjacent_find(nonzero.begin(), nonzero.end()) != nonzero.end()) {
      ++tied;
    }
    if (has_duplicate_link(net)) ++duplicated;
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(duplicated, kInstances / 10);
  EXPECT_GT(tied, kInstances / 4);
}

TEST(WeightedBnB, PrefersSingleHeavyOverManyLight) {
  // Construct the classic trap: one heavy link that conflicts with several
  // light mutually-compatible links.
  auto net = paper_network(10, 3);
  std::vector<double> w(net.size(), 1.0);
  w[0] = 100.0;
  const auto bnb = exact_max_weight_feasible_set(net, 2.5, w);
  // Whatever the geometry, the optimum must include link 0 if link 0 alone
  // is feasible (weight 100 > sum of all others = 9).
  model::LinkSet solo = {0};
  if (model::is_feasible(net, solo, units::Threshold(2.5))) {
    EXPECT_TRUE(std::find(bnb.selected.begin(), bnb.selected.end(), 0) !=
                bnb.selected.end());
  }
}

TEST(WeightedBnB, RejectsLargeInstances) {
  auto net = paper_network(30, 1);
  EXPECT_THROW(
      exact_max_weight_feasible_set(net, 2.5, random_weights(30, 1), 22),
      raysched::error);
}

TEST(WeightedLocalSearch, AtLeastGreedyAndFeasible) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto net = paper_network(35, 200 + seed);
    const auto w = random_weights(net.size(), seed);
    const double beta = 2.5;
    const auto greedy = weighted_greedy_capacity(net, beta, w);
    const auto ls = weighted_local_search(net, beta, w);
    EXPECT_GE(ls.value + 1e-9, greedy.value) << "seed " << seed;
    EXPECT_TRUE(model::is_feasible(net, ls.selected, units::Threshold(beta)));
  }
}

TEST(WeightedLocalSearch, NearOptimalOnSmallInstances) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto net = paper_network(12, 300 + seed);
    const auto w = random_weights(12, seed + 9);
    const double beta = 2.5;
    const auto opt = exact_max_weight_feasible_set(net, beta, w);
    const auto ls = weighted_local_search(net, beta, w);
    EXPECT_GE(ls.value, 0.75 * opt.value) << "seed " << seed;
  }
}

TEST(Weighted, TransfersThroughLemma2) {
  // Weighted solution + weighted threshold utility: expected Rayleigh value
  // >= value / e (the weighted instance of Lemma 2).
  auto net = paper_network(30, 44);
  const auto w = random_weights(net.size(), 44);
  const double beta = 2.5;
  const auto result = weighted_greedy_capacity(net, beta, w);
  ASSERT_FALSE(result.selected.empty());
  double rayleigh_value = 0.0;
  for (LinkId i : result.selected) {
    rayleigh_value +=
        w[i] * model::success_probability_rayleigh(net, result.selected, i,
                                                   units::Threshold(beta))
                   .value();
  }
  EXPECT_GE(rayleigh_value, result.value / std::exp(1.0) - 1e-9);
}

}  // namespace
}  // namespace raysched::algorithms
