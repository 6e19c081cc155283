// Tests for the packaged black-box reduction and fictitious play.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "test_helpers.hpp"

namespace raysched::core {
namespace {

using raysched::testing::paper_network;

constexpr double kInvE = 0.36787944117144233;

TEST(Reduction, GreedyDecisionCarriesCertificates) {
  auto net = paper_network(40, 1);
  util::RngStream rng(1);
  algorithms::ReductionOptions opts;
  const auto decision = algorithms::schedule_capacity_rayleigh(
      net, Utility::binary(units::Threshold(2.5)), opts, rng);
  EXPECT_FALSE(decision.transmit_set.empty());
  EXPECT_FALSE(decision.powers.has_value());
  EXPECT_DOUBLE_EQ(decision.nonfading_value,
                   static_cast<double>(decision.transmit_set.size()));
  EXPECT_GE(decision.lemma2_ratio, kInvE - 1e-12);
  EXPECT_LE(decision.lemma2_ratio, 1.0);
  EXPECT_NEAR(decision.expected_rayleigh_value,
              decision.lemma2_ratio * decision.nonfading_value, 1e-9);
}

TEST(Reduction, PowerControlDecisionReturnsPowers) {
  auto net = paper_network(30, 2);
  util::RngStream rng(2);
  algorithms::ReductionOptions opts;
  opts.algorithm = algorithms::NonFadingAlgorithm::PowerControl;
  const auto decision = algorithms::schedule_capacity_rayleigh(
      net, Utility::binary(units::Threshold(2.5)), opts, rng);
  if (!decision.transmit_set.empty()) {
    ASSERT_TRUE(decision.powers.has_value());
    EXPECT_EQ(decision.powers->size(), net.size());
    EXPECT_GE(decision.lemma2_ratio, kInvE - 1e-12);
    // The transmitted set is feasible under the returned powers.
    model::Network powered = net;
    powered.set_powers(*decision.powers);
    EXPECT_TRUE(model::is_feasible(powered, decision.transmit_set, units::Threshold(2.5)));
  }
}

TEST(Reduction, LocalSearchBeatsGreedyValue) {
  auto net = paper_network(35, 3);
  util::RngStream r1(3), r2(3);
  algorithms::ReductionOptions greedy_opts;
  algorithms::ReductionOptions ls_opts;
  ls_opts.algorithm = algorithms::NonFadingAlgorithm::LocalSearch;
  const auto g =
      algorithms::schedule_capacity_rayleigh(net, Utility::binary(units::Threshold(2.5)), greedy_opts, r1);
  const auto l =
      algorithms::schedule_capacity_rayleigh(net, Utility::binary(units::Threshold(2.5)), ls_opts, r2);
  EXPECT_GE(l.nonfading_value, g.nonfading_value);
}

TEST(Reduction, ShannonRequiresFlexibleRate) {
  auto net = paper_network(20, 4);
  util::RngStream rng(4);
  algorithms::ReductionOptions opts;  // Greedy
  EXPECT_THROW(
      algorithms::schedule_capacity_rayleigh(net, Utility::shannon(), opts, rng),
      raysched::error);
  opts.algorithm = algorithms::NonFadingAlgorithm::FlexibleRate;
  const auto decision =
      algorithms::schedule_capacity_rayleigh(net, Utility::shannon(), opts, rng);
  EXPECT_GT(decision.nonfading_value, 0.0);
  // MC estimate: allow sampling slack around the 1/e floor.
  EXPECT_GE(decision.lemma2_ratio, kInvE * 0.85);
}

TEST(Reduction, WeightedUtilityExactEvaluation) {
  auto net = paper_network(25, 5);
  util::RngStream rng(5);
  algorithms::ReductionOptions opts;
  const auto decision = algorithms::schedule_capacity_rayleigh(
      net, Utility::weighted(units::Threshold(2.5), 3.0), opts, rng);
  // Weighted threshold: non-fading value = 3 * |set|.
  EXPECT_DOUBLE_EQ(decision.nonfading_value,
                   3.0 * static_cast<double>(decision.transmit_set.size()));
  EXPECT_GE(decision.lemma2_ratio, kInvE - 1e-12);
}

}  // namespace
}  // namespace raysched::core

namespace raysched::learning {
namespace {

using raysched::testing::paper_network;
using raysched::testing::two_close_links;
using raysched::testing::two_far_links;

TEST(FictitiousPlay, FarLinksConvergeToBothSending) {
  auto net = two_far_links(1e-6);
  FictitiousPlayOptions opts;
  opts.model = GameModel::NonFading;
  opts.beta = 2.0;
  opts.rounds = 120;
  util::RngStream rng(1);
  const auto result = run_fictitious_play(net, opts, rng);
  EXPECT_TRUE(result.final_profile[0]);
  EXPECT_TRUE(result.final_profile[1]);
  EXPECT_TRUE(result.reached_fixed_point);
  // Late frequencies near 1 (warmup noise aside).
  EXPECT_GT(result.send_frequency[0].value(), 0.8);
}

TEST(FictitiousPlay, CloseLinksDoNotBothSend) {
  auto net = two_close_links(1e-6);
  FictitiousPlayOptions opts;
  opts.model = GameModel::NonFading;
  opts.beta = 2.0;
  opts.rounds = 200;
  util::RngStream rng(2);
  const auto result = run_fictitious_play(net, opts, rng);
  EXPECT_FALSE(result.final_profile[0] && result.final_profile[1]);
}

TEST(FictitiousPlay, RayleighUsesClosedFormAndRuns) {
  auto net = paper_network(15, 6);
  FictitiousPlayOptions opts;
  opts.model = GameModel::Rayleigh;
  opts.beta = 2.5;
  opts.rounds = 100;
  util::RngStream rng(3);
  const auto result = run_fictitious_play(net, opts, rng);
  EXPECT_EQ(result.successes_per_round.size(), 100u);
  EXPECT_GE(result.average_successes, 0.0);
  EXPECT_LE(result.average_successes, 15.0);
  for (units::Probability f : result.send_frequency) {
    EXPECT_GE(f.value(), 0.0);
    EXPECT_LE(f.value(), 1.0);
  }
}

TEST(FictitiousPlay, ReachesConstantFractionOfOptOnSmallInstance) {
  auto net = paper_network(14, 7);
  const auto opt = algorithms::exact_max_feasible_set(net, 2.5, 14);
  ASSERT_GT(opt.selected.size(), 0u);
  FictitiousPlayOptions opts;
  opts.model = GameModel::NonFading;
  opts.beta = 2.5;
  opts.rounds = 200;
  util::RngStream rng(4);
  const auto result = run_fictitious_play(net, opts, rng);
  double late = 0.0;
  for (std::size_t t = 150; t < 200; ++t) late += result.successes_per_round[t];
  late /= 50.0;
  EXPECT_GT(late, 0.25 * static_cast<double>(opt.selected.size()));
}

TEST(FictitiousPlay, FixedPointIsNashWhenReported) {
  auto net = paper_network(12, 8);
  FictitiousPlayOptions opts;
  opts.model = GameModel::NonFading;
  opts.beta = 2.5;
  opts.rounds = 300;
  util::RngStream rng(5);
  const auto result = run_fictitious_play(net, opts, rng);
  if (result.reached_fixed_point) {
    // A stable pure profile that best-responds to its own frequencies
    // (which converge to the profile itself) should be a pure Nash
    // equilibrium of the one-shot game.
    EXPECT_TRUE(
        is_pure_nash(net, result.final_profile, GameModel::NonFading, 2.5));
  }
}

// Rayleigh trajectories of run_fictitious_play recorded from the Release
// build that still priced each round with the precomputed affectance
// matrix (80 rounds, default warm-up, rng seeded 1000 + network seed).
// One reaches a fixed point, two do not. successes_per_round holds exact
// small integers; send_frequency is stored as bit patterns.
struct FictitiousPlayGolden {
  std::size_t links;
  std::uint64_t network_seed;
  double beta;
  bool reached_fixed_point;
  std::vector<double> successes_per_round;
  std::vector<std::uint64_t> send_frequency_bits;
};

const std::vector<FictitiousPlayGolden>& fictitious_play_goldens() {
  static const std::vector<FictitiousPlayGolden> goldens = {
    {12, 1, 2.5, true,
     {
       6, 7, 5, 4, 9, 9, 8, 9, 8, 10, 9, 9, 8, 8, 9, 9, 9, 5, 6, 8, 9, 8,
       8, 8, 10, 8, 10, 9, 8, 6, 8, 7, 10, 9, 10, 8, 9, 7, 6, 9, 8, 7, 7,
       8, 8, 8, 8, 7, 10, 7, 10, 4, 8, 9, 8, 8, 8, 9, 10, 10, 9, 8, 9, 9,
       7, 8, 8, 8, 9, 9, 9, 9, 7, 10, 8, 8, 7, 7, 9, 10,
     },
     {
       0x3fef99999999999a, 0x3fef333333333333, 0x3fef99999999999a,
       0x3fef99999999999a, 0x3fee666666666666, 0x3fef333333333333,
       0x3f9999999999999a, 0x3fef99999999999a, 0x3feecccccccccccd,
       0x3fef333333333333, 0x3fef333333333333, 0x3fda666666666666,
     }},
    {24, 4, 2.5, false,
     {
       8, 9, 6, 13, 15, 15, 16, 18, 10, 16, 18, 17, 17, 17, 16, 13, 15, 16,
       19, 14, 14, 16, 15, 13, 15, 19, 14, 13, 15, 17, 13, 17, 13, 20, 17,
       15, 15, 21, 15, 14, 19, 13, 16, 19, 16, 16, 14, 13, 19, 18, 17, 15,
       16, 12, 14, 18, 18, 17, 18, 17, 20, 14, 15, 17, 15, 16, 18, 16, 12,
       18, 13, 16, 15, 15, 17, 20, 17, 12, 16, 14,
     },
     {
       0x3feecccccccccccd, 0x3fef99999999999a, 0x3fef99999999999a,
       0x3fb0000000000000, 0x3feecccccccccccd, 0x3fef99999999999a,
       0x3fef333333333333, 0x3fa999999999999a, 0x3fef99999999999a,
       0x3fef99999999999a, 0x3fef333333333333, 0x3feecccccccccccd,
       0x3fef333333333333, 0x3fef333333333333, 0x3feecccccccccccd,
       0x3fef99999999999a, 0x3fef333333333333, 0x3feecccccccccccd,
       0x3feecccccccccccd, 0x3fef99999999999a, 0x3ff0000000000000,
       0x3fef333333333333, 0x3fe799999999999a, 0x3feecccccccccccd,
     }},
    {60, 1, 1.0, false,
     {
       20, 19, 23, 18, 33, 36, 27, 34, 35, 31, 40, 29, 31, 36, 33, 34, 35,
       40, 33, 32, 31, 38, 31, 30, 27, 33, 30, 33, 35, 31, 33, 34, 39, 36,
       34, 32, 35, 37, 34, 30, 31, 36, 31, 36, 34, 32, 26, 33, 28, 32, 34,
       33, 31, 34, 32, 39, 32, 38, 29, 32, 35, 34, 30, 30, 33, 36, 29, 33,
       35, 34, 35, 33, 33, 32, 34, 35, 35, 35, 31, 35,
     },
     {
       0x3feecccccccccccd, 0x3fa3333333333333, 0x3fef99999999999a,
       0x3fef99999999999a, 0x3fef333333333333, 0x3fef333333333333,
       0x3f9999999999999a, 0x3fef333333333333, 0x3fef333333333333,
       0x3fee666666666666, 0x3fef333333333333, 0x3feecccccccccccd,
       0x3fe599999999999a, 0x3fef333333333333, 0x3fef333333333333,
       0x3fef333333333333, 0x3fee666666666666, 0x3fef99999999999a,
       0x3fef99999999999a, 0x3ff0000000000000, 0x3feecccccccccccd,
       0x3feecccccccccccd, 0x3fef333333333333, 0x3fa999999999999a,
       0x3fef333333333333, 0x3fef333333333333, 0x3fb3333333333333,
       0x3feecccccccccccd, 0x3fb3333333333333, 0x3fb3333333333333,
       0x3fef99999999999a, 0x3fef333333333333, 0x3fa3333333333333,
       0x3fed99999999999a, 0x3fef333333333333, 0x3fef99999999999a,
       0x3fb0000000000000, 0x3feecccccccccccd, 0x3fef333333333333,
       0x0000000000000000, 0x3feecccccccccccd, 0x3fef333333333333,
       0x3feecccccccccccd, 0x3fd199999999999a, 0x3fd3333333333333,
       0x3feecccccccccccd, 0x3fef99999999999a, 0x3fef333333333333,
       0x3f9999999999999a, 0x3fef99999999999a, 0x3fee666666666666,
       0x3fef333333333333, 0x3f9999999999999a, 0x3feecccccccccccd,
       0x3fef333333333333, 0x3f9999999999999a, 0x3fef333333333333,
       0x3fef333333333333, 0x3fd199999999999a, 0x3fef99999999999a,
     }},
  };
  return goldens;
}

TEST(FictitiousPlay, MatchesParentGoldens) {
  for (const FictitiousPlayGolden& g : fictitious_play_goldens()) {
    const auto net = paper_network(g.links, g.network_seed);
    FictitiousPlayOptions opts;
    opts.rounds = 80;
    opts.beta = g.beta;
    util::RngStream rng(1000 + g.network_seed);
    const auto result = run_fictitious_play(net, opts, rng);
    EXPECT_EQ(result.reached_fixed_point, g.reached_fixed_point)
        << "n " << g.links;
    ASSERT_EQ(result.successes_per_round.size(),
              g.successes_per_round.size());
    EXPECT_EQ(std::memcmp(result.successes_per_round.data(),
                          g.successes_per_round.data(),
                          g.successes_per_round.size() * sizeof(double)),
              0)
        << "successes_per_round moved, n " << g.links;
    ASSERT_EQ(result.send_frequency.size(), g.send_frequency_bits.size());
    std::vector<double> frequency, golden_frequency;
    for (units::Probability f : result.send_frequency) {
      frequency.push_back(f.value());
    }
    for (std::uint64_t b : g.send_frequency_bits) {
      golden_frequency.push_back(std::bit_cast<double>(b));
    }
    EXPECT_EQ(std::memcmp(frequency.data(), golden_frequency.data(),
                          frequency.size() * sizeof(double)),
              0)
        << "send_frequency moved, n " << g.links;
  }
}

/// Fictitious play's Rayleigh loop, with every link priced through the
/// public scalar Theorem 1 with q_i := 1. Counts the decisions that sat
/// exactly on the tie 2c - 1 == 0, where the strict `> 0` decides.
FictitiousPlayResult scalar_conditional_fictitious_play(
    const model::Network& net, const FictitiousPlayOptions& opts,
    util::RngStream& rng, std::size_t& ties) {
  const std::size_t n = net.size();
  const units::Threshold beta(opts.beta);
  std::vector<std::size_t> send_count(n, 0);
  std::vector<bool> profile(n, false), previous(n, false);
  std::size_t stable_streak = 0;
  FictitiousPlayResult result;
  for (std::size_t t = 0; t < opts.rounds; ++t) {
    if (t < opts.warmup_rounds) {
      for (model::LinkId i = 0; i < n; ++i) profile[i] = rng.bernoulli(0.5);
    } else {
      units::ProbabilityVector freq(n);
      for (model::LinkId i = 0; i < n; ++i) {
        freq[i] = units::Probability(static_cast<double>(send_count[i]) /
                                     static_cast<double>(t));
      }
      for (model::LinkId i = 0; i < n; ++i) {
        units::ProbabilityVector forced = freq;
        forced[i] = units::Probability(1.0);
        const double reward =
            2.0 * core::rayleigh_success_probability(net, forced, i, beta)
                      .value() -
            1.0;
        if (reward == 0.0) ++ties;
        profile[i] = reward > 0.0;
      }
    }
    model::LinkSet active;
    for (model::LinkId i = 0; i < n; ++i) {
      if (profile[i]) {
        active.push_back(i);
        ++send_count[i];
      }
    }
    result.successes_per_round.push_back(static_cast<double>(
        model::count_successes_rayleigh(net, active, beta, rng)));
    if (t > opts.warmup_rounds && profile == previous) {
      ++stable_streak;
    } else {
      stable_streak = 0;
    }
    previous = profile;
  }
  result.final_profile = profile;
  for (model::LinkId i = 0; i < n; ++i) {
    result.send_frequency.push_back(
        units::Probability(static_cast<double>(send_count[i]) /
                           static_cast<double>(opts.rounds)));
  }
  result.reached_fixed_point = stable_streak >= opts.rounds / 4;
  return result;
}

/// n links, every gain 1, no noise: at beta = 1 each interferer's factor
/// is 1 - q_j / 2, so a link whose one rival has always sent sits exactly
/// on the tie 2c - 1 == 0.
model::Network tie_network(std::size_t n) {
  return model::Network(n, std::vector<double>(n * n, 1.0),
                        units::Power(0.0));
}

TEST(FictitiousPlay, MatchesScalarConditionalReference) {
  util::RngStream draw(0xF1C7u);
  std::size_t ties = 0;
  std::size_t fixed_points = 0;
  constexpr int kInstances = 120;
  for (int trial = 0; trial < kInstances; ++trial) {
    FictitiousPlayOptions opts;
    opts.rounds = 20 + draw.uniform_index(41);
    opts.warmup_rounds = 1 + draw.uniform_index(4);
    // Every fourth instance is a tie network at beta = 1, every fourth a
    // gain matrix, the rest paper-style plane networks.
    const int kind = trial % 4;
    const std::size_t n = kind == 0 ? 2 + draw.uniform_index(2)
                                    : 2 + draw.uniform_index(39);
    opts.beta = kind == 0 ? 1.0 : draw.uniform(0.5, 4.5);
    const model::Network net =
        kind == 0   ? tie_network(n)
        : kind == 1 ? raysched::testing::random_matrix_network(draw, n,
                                                               opts.beta)
                    : paper_network(n, 500 + static_cast<std::uint64_t>(trial));
    const std::uint64_t seed = 7000 + static_cast<std::uint64_t>(trial);
    util::RngStream rng(seed), reference_rng(seed);
    const auto got = run_fictitious_play(net, opts, rng);
    const auto want =
        scalar_conditional_fictitious_play(net, opts, reference_rng, ties);
    EXPECT_EQ(got.final_profile, want.final_profile) << "trial " << trial;
    EXPECT_EQ(got.reached_fixed_point, want.reached_fixed_point)
        << "trial " << trial;
    ASSERT_EQ(got.successes_per_round.size(), want.successes_per_round.size());
    EXPECT_EQ(std::memcmp(got.successes_per_round.data(),
                          want.successes_per_round.data(),
                          got.successes_per_round.size() * sizeof(double)),
              0)
        << "trial " << trial;
    ASSERT_EQ(got.send_frequency.size(), want.send_frequency.size());
    for (std::size_t i = 0; i < got.send_frequency.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.send_frequency[i].value()),
                std::bit_cast<std::uint64_t>(want.send_frequency[i].value()))
          << "trial " << trial << " link " << i;
    }
    fixed_points += got.reached_fixed_point ? 1 : 0;
  }
  // The sweep must reach the exact tie, where only the strict comparison
  // decides, and cover runs both with and without a fixed point.
  EXPECT_GT(ties, 0u);
  EXPECT_GT(fixed_points, 0u);
  EXPECT_LT(fixed_points, static_cast<std::size_t>(kInstances));
}

TEST(FictitiousPlay, Validation) {
  auto net = paper_network(5, 9);
  util::RngStream rng(1);
  FictitiousPlayOptions bad;
  bad.rounds = 0;
  EXPECT_THROW(run_fictitious_play(net, bad, rng), raysched::error);
  FictitiousPlayOptions bad2;
  bad2.rounds = 3;
  bad2.warmup_rounds = 5;
  EXPECT_THROW(run_fictitious_play(net, bad2, rng), raysched::error);
}

}  // namespace
}  // namespace raysched::learning
