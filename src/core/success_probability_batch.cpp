#include "core/success_probability_batch.hpp"

#include "core/success_probability.hpp"
#include "model/rayleigh.hpp"
#include "util/error.hpp"
#include "util/fp.hpp"

namespace raysched::core {

using model::LinkId;
using model::LinkSet;
using model::Network;

namespace {

// rayleigh_success_probability's exact per-link expression, q and beta
// already validated.
double rayleigh_value(const Network& net, const units::ProbabilityVector& q,
                      LinkId i, units::Threshold beta) {
  return util::fp::exact_zero(q[i].value())
             ? 0.0
             : detail::rayleigh_success_probability_unchecked(
                   net, q, i, beta, q[i].value());
}

void validate_active_batch(const Network& net, const LinkSet& active,
                           units::Threshold beta) {
  require(beta.value() > 0.0,
          "batch_success_probabilities_active: beta must be positive");
  for (LinkId j : active) {
    require(j < net.size(),
            "batch_success_probabilities_active: id out of range");
  }
}

}  // namespace

std::vector<double> batch_rayleigh_success_probabilities(
    const Network& net, const units::ProbabilityVector& q,
    units::Threshold beta) {
  validate_probabilities(net, q);
  require(beta.value() > 0.0,
          "batch_rayleigh_success_probabilities: beta must be positive");
  std::vector<double> out(net.size());
  for (LinkId i = 0; i < net.size(); ++i) {
    out[i] = rayleigh_value(net, q, i, beta);
  }
  return out;
}

void batch_rayleigh_conditional_success_probabilities(
    const Network& net, const units::ProbabilityVector& q,
    units::Threshold beta, std::vector<double>& out) {
  validate_probabilities(net, q);
  require(beta.value() > 0.0,
          "batch_rayleigh_conditional_success_probabilities: beta must be "
          "positive");
  out.resize(net.size());
  for (LinkId i = 0; i < net.size(); ++i) {
    out[i] = detail::rayleigh_success_probability_unchecked(net, q, i, beta,
                                                            1.0);
  }
}

std::vector<double> batch_success_probabilities_active(
    const Network& net, const LinkSet& active, units::Threshold beta) {
  validate_active_batch(net, active, beta);
  std::vector<double> out(active.size());
  for (std::size_t a = 0; a < active.size(); ++a) {
    out[a] = model::detail::success_probability_rayleigh_unchecked(
        net, active, active[a], beta);
  }
  return out;
}

}  // namespace raysched::core
