#include "core/success_probability_batch.hpp"

#include <cmath>
#include <limits>

#include "core/success_probability.hpp"
#include "model/rayleigh.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/fp.hpp"

namespace raysched::core {

using model::LinkId;
using model::LinkSet;
using model::Network;

SuccessProbabilityKernel::SuccessProbabilityKernel(const Network& net,
                                                   units::Threshold beta)
    : n_(net.size()), beta_(beta) {
  require(beta.value() > 0.0,
          "SuccessProbabilityKernel: beta must be positive");
  const double b = beta_.value();
  c_.resize(n_ * n_);
  neg_exponent_.resize(n_);
  noise_factor_.resize(n_);
  for (LinkId i = 0; i < n_; ++i) {
    RAYSCHED_EXPECT(net.signal(i) > 0.0,
                    "SuccessProbabilityKernel: signal S(i,i) must be "
                    "positive");
    neg_exponent_[i] = -b * net.noise() / net.signal(i);
    RAYSCHED_EXPECT(neg_exponent_[i] <= 0.0,
                    "noise exponent must be non-positive");
    noise_factor_[i] = std::exp(neg_exponent_[i]);
  }
  for (LinkId j = 0; j < n_; ++j) {
    double* row = c_.data() + j * n_;
    for (LinkId i = 0; i < n_; ++i) {
      // beta / (beta + S(i,i)/S(j,i)) rewritten division-safely as
      // beta*S(j,i) / (beta*S(j,i) + S(i,i)); correct also when S(j,i)==0.
      const double sji = net.mean_gain(j, i);
      row[i] = b * sji / (b * sji + net.signal(i));
    }
    // Exact zero so the self-factor 1 - c(j,j) q_j multiplies as 1.0,
    // which is bitwise neutral; no branch needed in the hot loops.
    row[j] = 0.0;
  }
}

double SuccessProbabilityKernel::affectance(LinkId sender,
                                            LinkId receiver) const {
  require(sender < n_ && receiver < n_,
          "SuccessProbabilityKernel::affectance: id out of range");
  return c_[sender * n_ + receiver];
}

void SuccessProbabilityKernel::validate_input(
    const units::ProbabilityVector& q) const {
  require(q.size() == n_,
          "SuccessProbabilityKernel: probability vector size must equal the "
          "network size");
  for (units::Probability p : q) {
    require(p.value() >= 0.0 && p.value() <= 1.0,
            "SuccessProbabilityKernel: probabilities must be in [0,1]");
  }
}

// raysched:hot
void SuccessProbabilityKernel::evaluate(const units::ProbabilityVector& q,
                                        std::vector<double>& out) const {
  validate_input(q);
  out.resize(n_);
  for (LinkId i = 0; i < n_; ++i) {
    out[i] = q[i].value() * noise_factor_[i];
  }
  for (LinkId j = 0; j < n_; ++j) {
    const double qj = q[j].value();
    if (util::fp::exact_zero(qj)) continue;
    const double* row = c_.data() + j * n_;
    for (LinkId i = 0; i < n_; ++i) {
      out[i] *= 1.0 - row[i] * qj;
    }
  }
}

std::vector<double> SuccessProbabilityKernel::evaluate(
    const units::ProbabilityVector& q) const {
  std::vector<double> out;
  evaluate(q, out);
  return out;
}

// raysched:hot
void SuccessProbabilityKernel::evaluate_conditional(
    const units::ProbabilityVector& q, std::vector<double>& out) const {
  validate_input(q);
  out.resize(n_);
  for (LinkId i = 0; i < n_; ++i) {
    out[i] = noise_factor_[i];
  }
  for (LinkId j = 0; j < n_; ++j) {
    const double qj = q[j].value();
    if (util::fp::exact_zero(qj)) continue;
    const double* row = c_.data() + j * n_;
    for (LinkId i = 0; i < n_; ++i) {
      out[i] *= 1.0 - row[i] * qj;
    }
  }
}

std::vector<double> SuccessProbabilityKernel::evaluate_log(
    const units::ProbabilityVector& q) const {
  std::vector<double> out;
  evaluate_log(q, out);
  return out;
}

// raysched:hot
void SuccessProbabilityKernel::evaluate_log(const units::ProbabilityVector& q,
                                            std::vector<double>& out) const {
  validate_input(q);
  out.resize(n_);
  for (LinkId i = 0; i < n_; ++i) {
    out[i] = util::fp::exact_zero(q[i].value())
                 ? -std::numeric_limits<double>::infinity()
                 : std::log(q[i].value()) + neg_exponent_[i];
  }
  for (LinkId j = 0; j < n_; ++j) {
    const double qj = q[j].value();
    if (util::fp::exact_zero(qj)) continue;
    const double* row = c_.data() + j * n_;
    for (LinkId i = 0; i < n_; ++i) {
      // c(j,i) < 1 strictly (S(i,i) > 0), so the argument stays > -1 and
      // log1p is finite even where exp(out[i]) would underflow.
      out[i] += std::log1p(-row[i] * qj);
    }
  }
}

namespace {

void validate_rayleigh_batch(const Network& net,
                             const units::ProbabilityVector& q,
                             units::Threshold beta) {
  validate_probabilities(net, q);
  require(beta.value() > 0.0,
          "batch_rayleigh_success_probabilities: beta must be positive");
}

// rayleigh_success_probability's exact per-link expression, q and beta
// already validated.
double rayleigh_value(const Network& net, const units::ProbabilityVector& q,
                      LinkId i, units::Threshold beta) {
  return util::fp::exact_zero(q[i].value())
             ? 0.0
             : detail::rayleigh_success_probability_unchecked(net, q, i,
                                                              beta);
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
  validate_rayleigh_batch(net, q, beta);
  std::vector<double> out(net.size());
  for (LinkId i = 0; i < net.size(); ++i) {
    out[i] = rayleigh_value(net, q, i, beta);
  }
  return out;
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
