// Tests for the pluggable schedule-recompute policies and their supporting
// pieces: the max-weight policy's schedule and Theorem-1 price, the AHM
// probability state machine, and the saturating slot arithmetic the agent's
// deadline math runs on.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "test_helpers.hpp"
#include "util/saturate.hpp"

namespace raysched::serve {
namespace {

using model::LinkId;
using model::LinkSet;
using raysched::testing::paper_network;

std::vector<double> random_weights(std::size_t n, util::RngStream& rng) {
  std::vector<double> w(n);
  for (auto& x : w) {
    // Mix zeros (inactive links) with heavy-tailed positive weights.
    x = rng.uniform() < 0.25 ? 0.0 : rng.uniform() * 100.0;
  }
  return w;
}

// ---- policy construction --------------------------------------------------

TEST(SchedulePolicy, KindNamesRoundTrip) {
  for (PolicyKind kind : {PolicyKind::MaxWeight, PolicyKind::Ahm}) {
    EXPECT_EQ(policy_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(policy_kind_from_string("round-robin"), raysched::error);
}

// ---- max-weight ------------------------------------------------------------

TEST(SchedulePolicy, MaxWeightPricesItsScheduleBitwise) {
  // The schedule is weighted greedy's, and expected_rate is exactly the
  // Theorem-1 expected success count of that set — same bits as the
  // per-link Rayleigh success probabilities summed in set order, so the
  // diagnostic has a single definition.
  auto net = paper_network(20, 53);
  const units::Threshold beta(2.5);
  auto policy = make_schedule_policy(PolicyKind::MaxWeight, net, beta);
  EXPECT_EQ(policy->kind(), PolicyKind::MaxWeight);
  EXPECT_TRUE(policy->persisted_state().empty());

  util::RngStream rng(61);
  for (std::uint64_t slot = 0; slot < 40; ++slot) {
    ScheduleRequest request;
    request.slot = slot;
    request.weights = random_weights(net.size(), rng);
    if (slot == 0) request.weights.assign(net.size(), 0.0);  // nothing due
    const PolicyResult result = policy->compute(request);
    EXPECT_EQ(result.schedule,
              algorithms::weighted_greedy_capacity(net, beta.value(),
                                                   request.weights)
                  .selected)
        << "slot " << slot;
    double direct = 0.0;
    for (const LinkId i : result.schedule) {
      direct +=
          model::success_probability_rayleigh(net, result.schedule, i, beta)
              .value();
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.expected_rate),
              std::bit_cast<std::uint64_t>(direct))
        << "slot " << slot;
    if (result.schedule.empty()) {
      EXPECT_EQ(result.expected_rate, 0.0);
    } else {
      EXPECT_GT(result.expected_rate, 0.0) << "slot " << slot;
      EXPECT_LE(result.expected_rate,
                static_cast<double>(result.schedule.size()));
    }
  }
}

// ---- AHM ------------------------------------------------------------------

TEST(AhmScheduler, FeedbackMovesProbabilitiesMultiplicatively) {
  algorithms::AhmConfig config;
  algorithms::AhmScheduler ahm(3, config);
  ASSERT_EQ(ahm.size(), 3u);
  EXPECT_EQ(ahm.probabilities(), (std::vector<double>{0.25, 0.25, 0.25}));

  ahm.feedback({0, 1}, {1, 0});  // 0 succeeded, 1 failed, 2 untouched
  EXPECT_EQ(ahm.probabilities()[0], 0.5);
  EXPECT_EQ(ahm.probabilities()[1], 0.125);
  EXPECT_EQ(ahm.probabilities()[2], 0.25);

  // Clamps: repeated success pins at p_max, repeated failure at p_min.
  for (int k = 0; k < 10; ++k) ahm.feedback({0, 1}, {1, 0});
  EXPECT_EQ(ahm.probabilities()[0], config.p_max.value());
  EXPECT_EQ(ahm.probabilities()[1], config.p_min.value());
}

TEST(AhmScheduler, SampleIsDeterministicAndRespectsBacklog) {
  algorithms::AhmConfig config;
  config.p_init = units::Probability(1.0);  // every backlogged link joins
  algorithms::AhmScheduler ahm(4, config);
  util::RngStream rng(5);
  LinkSet out;
  ahm.sample(rng, {1, 0, 1, 0}, out);
  EXPECT_EQ(out, (LinkSet{0, 2}));  // idle links never sampled

  // Same stream position + same backlog -> bit-identical sample.
  algorithms::AhmConfig half;
  algorithms::AhmScheduler a(64, half), b(64, half);
  util::RngStream ra(9), rb(9);
  LinkSet sa, sb;
  const std::vector<char> backlog(64, 1);
  a.sample(ra, backlog, sa);
  b.sample(rb, backlog, sb);
  EXPECT_EQ(sa, sb);
  EXPECT_FALSE(sa.empty());  // p=0.25 over 64 links: empty is (3/4)^64
}

TEST(AhmScheduler, RestoreRoundTripsAndValidates) {
  algorithms::AhmConfig config;
  algorithms::AhmScheduler ahm(3, config);
  ahm.feedback({0, 1, 2}, {1, 0, 1});
  const std::vector<double> saved = ahm.probabilities();

  algorithms::AhmScheduler fresh(3, config);
  fresh.restore(saved);
  EXPECT_EQ(fresh.probabilities(), saved);
  EXPECT_THROW(fresh.restore({0.5, 0.5}), raysched::error);  // size
  EXPECT_THROW(fresh.restore({0.5, 0.5, 2.0}), raysched::error);  // range
}

TEST(AhmScheduler, ValidatesConfig) {
  algorithms::AhmConfig bad;
  bad.p_min = units::Probability(0.0);  // p_min must stay positive
  EXPECT_THROW(algorithms::AhmScheduler(2, bad), raysched::error);
  algorithms::AhmConfig inverted;
  inverted.p_init = units::Probability(0.001);  // below p_min
  EXPECT_THROW(algorithms::AhmScheduler(2, inverted), raysched::error);
  algorithms::AhmConfig shrink;
  shrink.up = 0.5;  // success must not lower the probability
  EXPECT_THROW(algorithms::AhmScheduler(2, shrink), raysched::error);
}

TEST(SchedulePolicy, AhmPolicyIsSlotDeterministicAndRestorable) {
  auto net = paper_network(16, 55);
  const units::Threshold beta(2.5);
  PolicyOptions options;
  options.seed = 123;

  auto a = make_schedule_policy(PolicyKind::Ahm, net, beta, options);
  auto b = make_schedule_policy(PolicyKind::Ahm, net, beta, options);
  ScheduleRequest request;
  request.slot = 7;
  request.weights.assign(net.size(), 1.0);
  const PolicyResult ra = a->compute(request);
  const PolicyResult rb = b->compute(request);
  EXPECT_EQ(ra.schedule, rb.schedule);  // same seed + slot -> same sample

  // Feedback mutates persisted state; a restored clone replays identically.
  ScheduleRequest with_feedback;
  with_feedback.slot = 8;
  with_feedback.weights.assign(net.size(), 1.0);
  with_feedback.feedback_schedule = ra.schedule;
  with_feedback.feedback_success.assign(ra.schedule.size(), 1);
  (void)a->compute(with_feedback);
  const std::vector<double> state = a->persisted_state();
  ASSERT_EQ(state.size(), net.size());

  auto c = make_schedule_policy(PolicyKind::Ahm, net, beta, options);
  c->restore_state(state);
  ScheduleRequest probe;
  probe.slot = 9;
  probe.weights.assign(net.size(), 1.0);
  EXPECT_EQ(a->compute(probe).schedule, c->compute(probe).schedule);
}

// ---- saturating slot arithmetic -------------------------------------------

TEST(Saturate, AddAndMulClampAtMax) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(util::sat_add(2, 3), 5u);
  EXPECT_EQ(util::sat_add(kMax, 0), kMax);
  EXPECT_EQ(util::sat_add(kMax, 1), kMax);
  EXPECT_EQ(util::sat_add(kMax / 2 + 1, kMax / 2 + 1), kMax);
  EXPECT_EQ(util::sat_mul(6, 7), 42u);
  EXPECT_EQ(util::sat_mul(kMax, 0), 0u);
  EXPECT_EQ(util::sat_mul(kMax, 1), kMax);
  EXPECT_EQ(util::sat_mul(kMax / 2 + 1, 2), kMax);
  EXPECT_EQ(util::sat_mul(1ULL << 32, 1ULL << 32), kMax);
}

TEST(Saturate, AgentDueSlotSaturatesInsteadOfWrapping) {
  auto net = paper_network(4, 56);
  ScheduleAgent agent(net, units::Threshold(2.5), 1);
  // A delay pile-up can push latency to the top of the range; the due slot
  // must pin at "never", not wrap into the past.
  ScheduleRequest request;
  request.weights.assign(net.size(), 1.0);
  agent.submit(10, std::move(request),
               std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(agent.due_slot(), std::numeric_limits<std::uint64_t>::max());
  (void)agent.reap();
}

}  // namespace
}  // namespace raysched::serve
