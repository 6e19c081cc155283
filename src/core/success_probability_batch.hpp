// raysched: batched evaluation of the Theorem-1 success probabilities.
//
// Every hot consumer of Theorem 1 — expected_rayleigh_successes, the Lemma-2
// transfer check, and each round of the Section-6 regret dynamics — needs
// Q_i(q, beta) for ALL links at once. Evaluating link-by-link through the
// scalar API costs O(n^2) per batch with a division per (sender, receiver)
// pair plus a redundant O(n) validation sweep per link. This header provides
// the batched path:
//
//  * SuccessProbabilityKernel precomputes the n x n normalized-affectance
//    matrix c(j,i) = beta*S(j,i) / (beta*S(j,i) + S(i,i)) once per
//    (network, beta), turning each Theorem-1 factor into the division-free
//    form 1 - c(j,i) q_j. Batch evaluation is a single pass over the matrix,
//    and log-space evaluation is available for large n where the plain
//    product would underflow.
//
//  * The batch_* free functions return every per-link value of a scalar
//    function at once, with its exact expression and iteration order
//    (bit-identical results) and the validation hoisted out of the per-link
//    loop. The aggregates are the scalar sums themselves:
//    expected_rayleigh_successes (core/success_probability.hpp) and
//    model::expected_successes_rayleigh.
//
// Layering: the kernel lives in core and must not include learning/ or sim/
// (raysched_arch RS-A1).
#pragma once

#include <cstddef>
#include <vector>

#include "model/network.hpp"
#include "util/units.hpp"

namespace raysched::core {

/// Batched Theorem-1 evaluator bound to one (network, beta) pair:
/// evaluate / evaluate_conditional / evaluate_log take a fresh q and return
/// all n values in one O(n^2) pass over the precomputed affectance matrix
/// (no divisions). The out-buffer forms resize `out` to n and overwrite it,
/// so a reused buffer allocates nothing after warm-up.
///
/// The kernel copies everything it needs from the network in the
/// constructor; it holds no reference and outlives the network safely.
class SuccessProbabilityKernel {
 public:
  /// Precomputes the affectance matrix and noise factors: O(n^2) time,
  /// O(n^2) memory. Throws raysched::error unless beta > 0.
  SuccessProbabilityKernel(const model::Network& net, units::Threshold beta);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] units::Threshold beta() const { return beta_; }

  /// The precomputed normalized affectance c(sender, receiver) =
  /// beta*S(j,i) / (beta*S(j,i) + S(i,i)); zero on the diagonal so the
  /// self-factor multiplies as an exact 1.
  [[nodiscard]] double affectance(model::LinkId sender,
                                  model::LinkId receiver) const;

  /// One-shot batch: out[i] = Q_i(q, beta) for every link, in one pass over
  /// the affectance matrix. Factors are applied in ascending sender order,
  /// matching the scalar loop; only the per-factor rounding differs from the
  /// scalar form (a few ulp — see docs/PERFORMANCE.md).
  void evaluate(const units::ProbabilityVector& q,
                std::vector<double>& out) const;
  [[nodiscard]] std::vector<double> evaluate(
      const units::ProbabilityVector& q) const;

  /// Conditional variant: out[i] = Q_i with the q_i prefactor stripped, i.e.
  /// the success probability of link i given that it transmits, against the
  /// others transmitting independently with q (q[i] is ignored). This is the
  /// per-round payoff of the learning dynamics.
  void evaluate_conditional(const units::ProbabilityVector& q,
                            std::vector<double>& out) const;

  /// Log-space batch: out[i] = log Q_i(q, beta) accumulated as
  /// log q_i - beta*nu/S(i,i) + sum_j log1p(-c(j,i) q_j), which stays finite
  /// down to Q_i ~ 1e-300000 where the plain product underflows to 0.
  /// q_i == 0 yields -infinity.
  void evaluate_log(const units::ProbabilityVector& q,
                    std::vector<double>& out) const;
  [[nodiscard]] std::vector<double> evaluate_log(
      const units::ProbabilityVector& q) const;

 private:
  void validate_input(const units::ProbabilityVector& q) const;

  std::size_t n_ = 0;
  units::Threshold beta_;
  // c_[j*n + i] = c(j, i), zero on the diagonal.
  std::vector<double> c_;
  // neg_exponent_[i] = -beta*nu/S(i,i); noise_factor_[i] = exp(neg_exponent_).
  std::vector<double> neg_exponent_;
  std::vector<double> noise_factor_;
};

/// Fused batch form of the scalar Theorem-1 per-link values: validates q
/// once, then evaluates rayleigh_success_probability's exact expression for
/// every link (bit-identical per element, including the q_i == 0 -> 0 case).
[[nodiscard]] std::vector<double> batch_rayleigh_success_probabilities(
    const model::Network& net, const units::ProbabilityVector& q,
    units::Threshold beta);

/// Fused batch form of model::success_probability_rayleigh over an active
/// set (q in {0,1}): out[a] is the success probability of active[a] against
/// the whole set, computed with the scalar function's exact division form
/// and iteration order (bit-identical), with the per-link id validation
/// hoisted to one sweep over the set.
[[nodiscard]] std::vector<double> batch_success_probabilities_active(
    const model::Network& net, const model::LinkSet& active,
    units::Threshold beta);

}  // namespace raysched::core
