#include "serve/schedule_policy.hpp"

#include "algorithms/weighted.hpp"
#include "model/network.hpp"
#include "model/rayleigh.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace raysched::serve {

using model::Network;

namespace {

// Sampling-stream tag for the AHM policy: every request draws from
// seed.derive(kAhmSampleTag, slot), so the request slot is the complete RNG
// position (same discipline as the service's traffic/churn/fading streams).
constexpr std::uint64_t kAhmSampleTag = 0xA511;

/// Max-weight: weighted greedy over the request's queue-length weights,
/// priced as the Theorem-1 expected success count of the adopted set.
class MaxWeightPolicy final : public SchedulePolicy {
 public:
  MaxWeightPolicy(const Network& net, units::Threshold beta)
      : net_(net), beta_(beta) {}

  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::MaxWeight;
  }

  [[nodiscard]] PolicyResult compute(const ScheduleRequest& request) override {
    PolicyResult result;
    result.schedule =
        algorithms::weighted_greedy_capacity(net_, beta_.value(),
                                             request.weights)
            .selected;
    result.expected_rate =
        model::expected_successes_rayleigh(net_, result.schedule, beta_);
    return result;
  }

 private:
  const Network& net_;
  units::Threshold beta_;
};

/// AHM stability policy: adaptive per-link transmission probabilities,
/// fed back from what the serving loop actually managed to serve.
class AhmPolicy final : public SchedulePolicy {
 public:
  AhmPolicy(std::size_t n, const algorithms::AhmConfig& config,
            std::uint64_t seed)
      : scheduler_(n, config), base_(seed), backlogged_(n, 0) {}

  [[nodiscard]] PolicyKind kind() const override { return PolicyKind::Ahm; }

  [[nodiscard]] PolicyResult compute(const ScheduleRequest& request) override {
    require(request.weights.size() == scheduler_.size(),
            "AhmPolicy: weights size must equal n");
    scheduler_.feedback(request.feedback_schedule, request.feedback_success);
    for (std::size_t i = 0; i < request.weights.size(); ++i) {
      backlogged_[i] = request.weights[i] > 0.0 ? 1 : 0;
    }
    util::RngStream rng = base_.derive(kAhmSampleTag, request.slot);
    PolicyResult result;
    scheduler_.sample(rng, backlogged_, result.schedule);
    return result;
  }

  [[nodiscard]] std::vector<double> persisted_state() const override {
    return scheduler_.probabilities();
  }

  void restore_state(const std::vector<double>& state) override {
    scheduler_.restore(state);
  }

 private:
  algorithms::AhmScheduler scheduler_;
  util::RngStream base_;
  std::vector<char> backlogged_;  // compute() scratch
};

}  // namespace

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::MaxWeight: return "max-weight";
    case PolicyKind::Ahm:       return "ahm";
  }
  return "unknown";
}

PolicyKind policy_kind_from_string(const std::string& name) {
  if (name == "max-weight") return PolicyKind::MaxWeight;
  if (name == "ahm") return PolicyKind::Ahm;
  throw error("policy_kind_from_string: unknown policy '" + name + "'");
}

std::unique_ptr<SchedulePolicy> make_schedule_policy(
    PolicyKind kind, const Network& net, units::Threshold beta,
    const PolicyOptions& options) {
  switch (kind) {
    case PolicyKind::MaxWeight:
      return std::make_unique<MaxWeightPolicy>(net, beta);
    case PolicyKind::Ahm:
      return std::make_unique<AhmPolicy>(net.size(), options.ahm,
                                         options.seed);
  }
  throw error("make_schedule_policy: unknown policy kind");
}

}  // namespace raysched::serve
