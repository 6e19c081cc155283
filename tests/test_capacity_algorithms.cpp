// Tests for the non-fading capacity-maximization algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "test_helpers.hpp"

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
using raysched::testing::seed_greedy_capacity;
using raysched::testing::two_close_links;
using raysched::testing::two_far_links;

TEST(Greedy, SelectsBothFarLinks) {
  auto net = two_far_links(1e-6);
  const auto result = greedy_capacity(net, 2.0);
  EXPECT_EQ(result.selected, (LinkSet{0, 1}));
  EXPECT_DOUBLE_EQ(result.value, 2.0);
  EXPECT_FALSE(result.powers.has_value());
}

TEST(Greedy, DropsOneOfTwoCloseLinks) {
  auto net = two_close_links(1e-6);
  const auto result = greedy_capacity(net, 2.0);
  EXPECT_EQ(result.selected.size(), 1u);
}

TEST(Greedy, OutputAlwaysFeasible) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    auto net = paper_network(50, seed);
    for (double beta : {0.5, 2.5, 10.0}) {
      const auto result = greedy_capacity(net, beta);
      EXPECT_TRUE(model::is_feasible(net, result.selected, units::Threshold(beta)))
          << "seed " << seed << " beta " << beta;
    }
  }
}

TEST(Greedy, RespectsCandidateRestriction) {
  auto net = paper_network(30, 3);
  const LinkSet candidates = {0, 5, 10, 15};
  const auto result = greedy_capacity(net, 2.5, candidates);
  for (LinkId i : result.selected) {
    EXPECT_TRUE(std::find(candidates.begin(), candidates.end(), i) !=
                candidates.end());
  }
}

TEST(Greedy, SmallerTauSelectsFewer) {
  auto net = paper_network(60, 4);
  GreedyOptions loose;   // tau = 1
  GreedyOptions tight;
  tight.tau = 0.25;
  const auto a = greedy_capacity(net, 2.5, {}, loose);
  const auto b = greedy_capacity(net, 2.5, {}, tight);
  EXPECT_GE(a.selected.size(), b.selected.size());
  EXPECT_TRUE(model::is_feasible(net, b.selected, units::Threshold(2.5)));
}

TEST(Greedy, RejectsBadOptions) {
  auto net = two_far_links();
  GreedyOptions bad;
  bad.tau = 1.5;
  EXPECT_THROW(greedy_capacity(net, 2.0, {}, bad), raysched::error);
  EXPECT_THROW(greedy_capacity(net, 0.0), raysched::error);
}

TEST(Greedy, SkipsNoiseDominatedLinks) {
  // Noise so large no link can meet beta: empty selection rather than an
  // infeasible or crashing result.
  auto net = two_far_links(10.0);
  const auto result = greedy_capacity(net, 2.0);
  EXPECT_TRUE(result.selected.empty());
}

TEST(Greedy, NearOptimalOnSmallInstances) {
  // Compare against exact OPT on instances where BnB is cheap: the greedy
  // must be a decent constant-factor approximation in practice.
  double worst_ratio = 1.0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    auto net = paper_network(14, 900 + seed);
    const double beta = 2.5;
    const auto greedy = greedy_capacity(net, beta);
    const auto opt = exact_max_feasible_set(net, beta);
    ASSERT_GE(opt.selected.size(), greedy.selected.size());
    if (!opt.selected.empty()) {
      worst_ratio = std::min(
          worst_ratio, static_cast<double>(greedy.selected.size()) /
                           static_cast<double>(opt.selected.size()));
    }
  }
  EXPECT_GE(worst_ratio, 0.5);
}

TEST(Greedy, MatchesSeedLoopBitwiseOnRandomInstances) {
  util::RngStream rng(0x6EEDu);
  int mismatches = 0;
  int all_links = 0;        // empty candidate list: every link
  int repeated_ids = 0;     // candidate lists naming a link twice
  int duplicated = 0;       // geometric networks with an exact duplicate link
  int infeasible_alone = 0; // some candidate skipped by the noise test
  int large_sets = 0;       // at least five links admitted
  constexpr int kInstances = 2000;
  for (int trial = 0; trial < kInstances; ++trial) {
    const std::size_t n = 2 + rng.uniform_index(200);
    const double beta = rng.uniform(0.5, 4.0);
    const Network net = trial % 3 == 2 ? random_matrix_network(rng, n, beta)
                                       : random_geometric_network(rng, n, beta);
    LinkSet candidates;
    if (!rng.bernoulli(0.25)) {
      // Ids drawn with replacement, in random order.
      const std::size_t count = 1 + rng.uniform_index(2 * n);
      for (std::size_t k = 0; k < count; ++k) {
        candidates.push_back(static_cast<LinkId>(rng.uniform_index(n)));
      }
    }
    GreedyOptions options;
    options.tau = rng.bernoulli(0.3) ? 1.0 : rng.uniform(0.01, 1.0);

    const auto got = greedy_capacity(net, beta, candidates, options);
    const auto want = seed_greedy_capacity(net, beta, candidates, options);
    const auto same = same_selection_bitwise(got, want);
    if (!same) {
      ++mismatches;
      ADD_FAILURE() << "trial " << trial << " n " << n << ": " << same.message();
    }
    EXPECT_EQ(got.algorithm, want.algorithm) << "trial " << trial;
    EXPECT_FALSE(got.powers.has_value());

    if (candidates.empty()) ++all_links;
    LinkSet unique = candidates;
    model::normalize_link_set(net, unique);
    if (unique.size() < candidates.size()) ++repeated_ids;
    if (has_duplicate_link(net)) ++duplicated;
    for (LinkId i = 0; i < n; ++i) {
      if (net.signal(i) / beta <= net.noise()) {
        ++infeasible_alone;
        break;
      }
    }
    if (want.selected.size() >= 5) ++large_sets;
  }
  EXPECT_EQ(mismatches, 0);
  // The generator must reach every case the wrapper could get wrong.
  EXPECT_GT(all_links, kInstances / 10);
  EXPECT_GT(repeated_ids, kInstances / 2);
  EXPECT_GT(duplicated, kInstances / 10);
  EXPECT_GT(infeasible_alone, kInstances / 20);
  EXPECT_GT(large_sets, kInstances / 10);
}

TEST(PowerControl, OutputFeasibleWithComputedPowers) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto net = paper_network(30, 100 + seed);
    const double beta = 2.5;
    const auto result = power_control_capacity(net, beta);
    if (result.selected.empty()) continue;
    ASSERT_TRUE(result.powers.has_value());
    // Apply the computed powers and verify feasibility directly.
    model::Network powered = net;
    powered.set_powers(*result.powers);
    EXPECT_TRUE(model::is_feasible(powered, result.selected, units::Threshold(beta)))
        << "seed " << seed;
  }
}

TEST(PowerControl, BeatsOrMatchesUniformGreedyOnHardInstances) {
  // Power control has strictly more freedom; on average across instances it
  // should select at least as many links as the uniform greedy.
  std::size_t pc_total = 0, greedy_total = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto net = paper_network(40, 500 + seed);
    pc_total += power_control_capacity(net, 2.5).selected.size();
    greedy_total += greedy_capacity(net, 2.5).selected.size();
  }
  EXPECT_GE(pc_total * 10, greedy_total * 8);  // within 20% or better
}

TEST(PowerControl, RequiresGeometry) {
  auto net = raysched::testing::hand_matrix_network();
  EXPECT_THROW(power_control_capacity(net, 1.0), raysched::error);
}

TEST(FlexibleRate, ImprovesShannonUtilityOverSingleThreshold) {
  auto net = paper_network(40, 31);
  const core::Utility u = core::Utility::shannon();
  const auto flexible = flexible_rate_capacity(net, u, 0.25, 16.0, 12);
  // Value must be at least the best of the two extreme thresholds.
  const auto low = greedy_capacity(net, 0.25);
  const auto high = greedy_capacity(net, 16.0);
  const double low_val =
      core::total_utility(u, model::sinr_nonfading_all(net, low.selected));
  const double high_val =
      core::total_utility(u, model::sinr_nonfading_all(net, high.selected));
  EXPECT_GE(flexible.value + 1e-9, std::max(low_val, high_val));
}

TEST(FlexibleRate, ValidatesArguments) {
  auto net = two_far_links();
  const core::Utility u = core::Utility::shannon();
  EXPECT_THROW(flexible_rate_capacity(net, u, 0.0, 1.0), raysched::error);
  EXPECT_THROW(flexible_rate_capacity(net, u, 2.0, 1.0), raysched::error);
  EXPECT_THROW(flexible_rate_capacity(net, u, 1.0, 2.0, 0), raysched::error);
}

TEST(Exact, BnBFindsKnownOptimum) {
  // two_far_links: both links feasible -> OPT = 2. two_close_links at
  // beta 2: OPT = 1.
  auto far = two_far_links(1e-6);
  EXPECT_EQ(exact_max_feasible_set(far, 2.0).selected.size(), 2u);
  auto close = two_close_links(1e-6);
  EXPECT_EQ(exact_max_feasible_set(close, 2.0).selected.size(), 1u);
}

TEST(Exact, BnBOutputFeasible) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto net = paper_network(12, 700 + seed);
    const auto opt = exact_max_feasible_set(net, 2.5);
    EXPECT_TRUE(model::is_feasible(net, opt.selected, units::Threshold(2.5)));
  }
}

TEST(Exact, BnBMatchesBruteForceOnTinyInstances) {
  // Exhaustive subset check for n = 8.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto net = paper_network(8, 800 + seed);
    const double beta = 2.5;
    std::size_t best = 0;
    for (unsigned mask = 0; mask < 256u; ++mask) {
      LinkSet s;
      for (LinkId i = 0; i < 8; ++i) {
        if (mask & (1u << i)) s.push_back(i);
      }
      if (model::is_feasible(net, s, units::Threshold(beta))) best = std::max(best, s.size());
    }
    EXPECT_EQ(exact_max_feasible_set(net, beta).selected.size(), best)
        << "seed " << seed;
  }
}

// The cardinality branch and bound as it stood before it became a
// unit-weight call of the weighted search, kept verbatim as the bitwise
// reference.
class SeedFeasibilityState {
 public:
  explicit SeedFeasibilityState(const Network& net, double beta)
      : net_(net), beta_(beta), interference_(net.size(), net.noise()) {}

  [[nodiscard]] bool can_add(LinkId i) const {
    if (net_.signal(i) < beta_ * (interference_[i])) return false;
    for (LinkId j : chosen_) {
      if (net_.signal(j) < beta_ * (interference_[j] + net_.mean_gain(i, j))) {
        return false;
      }
    }
    return true;
  }

  void add(LinkId i) {
    for (LinkId j = 0; j < net_.size(); ++j) {
      if (j != i) interference_[j] += net_.mean_gain(i, j);
    }
    chosen_.push_back(i);
  }

  void remove_last() {
    const LinkId i = chosen_.back();
    chosen_.pop_back();
    for (LinkId j = 0; j < net_.size(); ++j) {
      if (j != i) interference_[j] -= net_.mean_gain(i, j);
    }
  }

  [[nodiscard]] const LinkSet& chosen() const { return chosen_; }

 private:
  const Network& net_;
  double beta_;
  std::vector<double> interference_;
  LinkSet chosen_;
};

void seed_branch(const Network& net, const std::vector<LinkId>& order,
                 std::size_t index, SeedFeasibilityState& state,
                 LinkSet& best) {
  if (state.chosen().size() > best.size()) best = state.chosen();
  if (index >= order.size()) return;
  if (state.chosen().size() + (order.size() - index) <= best.size()) return;
  const LinkId i = order[index];
  if (state.can_add(i)) {
    state.add(i);
    seed_branch(net, order, index + 1, state, best);
    state.remove_last();
  }
  seed_branch(net, order, index + 1, state, best);
}

CapacityResult seed_exact_max_feasible_set(const Network& net, double beta) {
  std::vector<LinkId> order(net.size());
  std::iota(order.begin(), order.end(), LinkId{0});
  std::stable_sort(order.begin(), order.end(), [&](LinkId a, LinkId b) {
    return net.signal(a) > net.signal(b);
  });
  SeedFeasibilityState state(net, beta);
  LinkSet best;
  seed_branch(net, order, 0, state, best);
  std::sort(best.begin(), best.end());
  CapacityResult result;
  result.algorithm = "exact-bnb";
  result.selected = std::move(best);
  result.value = static_cast<double>(result.selected.size());
  return result;
}

TEST(Exact, BnBMatchesSeedRecursionBitwise) {
  util::RngStream rng(0xE8AC7u);
  int mismatches = 0;
  int duplicated = 0;  // geometric instances with an exact duplicate link
  int multi = 0;       // optimum of at least three links
  constexpr int kInstances = 600;
  for (int trial = 0; trial < kInstances; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(14);
    const double beta = rng.uniform(0.5, 4.0);
    const Network net = trial % 3 == 2 ? random_matrix_network(rng, n, beta)
                                       : random_geometric_network(rng, n, beta);
    const auto got = exact_max_feasible_set(net, beta);
    const auto want = seed_exact_max_feasible_set(net, beta);
    const auto same = same_selection_bitwise(got, want);
    if (!same) {
      ++mismatches;
      ADD_FAILURE() << "trial " << trial << " n " << n << ": " << same.message();
    }
    EXPECT_EQ(got.algorithm, want.algorithm);
    if (has_duplicate_link(net)) ++duplicated;
    if (want.selected.size() >= 3) ++multi;
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(duplicated, kInstances / 10);
  EXPECT_GT(multi, kInstances / 4);
}

TEST(Exact, BnBRejectsHugeInstances) {
  auto net = paper_network(30, 1);
  EXPECT_THROW(exact_max_feasible_set(net, 2.5, 24), raysched::error);
}

TEST(Exact, LocalSearchAtLeastGreedy) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto net = paper_network(40, 600 + seed);
    const double beta = 2.5;
    const auto greedy = greedy_capacity(net, beta);
    LocalSearchOptions opts;
    opts.restarts = 3;
    const auto ls = local_search_max_feasible_set(net, beta, opts);
    EXPECT_GE(ls.selected.size(), greedy.selected.size());
    EXPECT_TRUE(model::is_feasible(net, ls.selected, units::Threshold(beta)));
  }
}

TEST(Exact, LocalSearchMatchesOptOnSmallInstances) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto net = paper_network(12, 300 + seed);
    const double beta = 2.5;
    const auto opt = exact_max_feasible_set(net, beta);
    LocalSearchOptions opts;
    opts.restarts = 6;
    const auto ls = local_search_max_feasible_set(net, beta, opts);
    // Local search is a lower bound; on these tiny instances it should be
    // optimal or within one link.
    EXPECT_GE(ls.selected.size() + 1, opt.selected.size()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace raysched::algorithms
