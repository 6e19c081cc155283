// raysched: batched evaluation of the Theorem-1 success probabilities.
//
// Some consumers of Theorem 1 — the Lemma-2 transfer check, the latency
// bounds, each Rayleigh round of fictitious play — need Q_i(q, beta) for
// ALL links at once. Looping over the scalar public API re-runs its O(n)
// validation sweep for every link. The batch_* free functions here return
// every per-link value of a scalar function at once, with its exact
// expression and iteration order (bit-identical results) and the
// validation hoisted out of the per-link loop. The product loop itself
// stays in core/success_probability.cpp, next to the log-space companion
// that raysched_num's RS-N4 rule asks for in the same file.
// The aggregates are the scalar sums themselves:
// expected_rayleigh_successes (core/success_probability.hpp) and
// model::expected_successes_rayleigh.
#pragma once

#include <vector>

#include "model/network.hpp"
#include "util/units.hpp"

namespace raysched::core {

/// Fused batch form of the scalar Theorem-1 per-link values: validates q
/// once, then evaluates rayleigh_success_probability's exact expression for
/// every link (bit-identical per element, including the q_i == 0 -> 0 case).
[[nodiscard]] std::vector<double> batch_rayleigh_success_probabilities(
    const model::Network& net, const units::ProbabilityVector& q,
    units::Threshold beta);

/// Fused batch of the conditional Theorem-1 values: out[i] is
/// rayleigh_success_probability with q_i := 1, i.e. the success probability
/// of link i given that it transmits, against the others transmitting
/// independently with q (q[i] is ignored but must lie in [0,1]). Bit-
/// identical per element to that scalar call. Validates q and beta once,
/// then makes one O(n^2) pass in the scalar division form. `out` is resized
/// to n and overwritten, so a reused buffer allocates nothing after
/// warm-up. This is the per-round payoff of fictitious play.
void batch_rayleigh_conditional_success_probabilities(
    const model::Network& net, const units::ProbabilityVector& q,
    units::Threshold beta, std::vector<double>& out);

/// Fused batch form of model::success_probability_rayleigh over an active
/// set (q in {0,1}): out[a] is the success probability of active[a] against
/// the whole set, computed with the scalar function's exact division form
/// and iteration order (bit-identical), with the per-link id validation
/// hoisted to one sweep over the set.
[[nodiscard]] std::vector<double> batch_success_probabilities_active(
    const model::Network& net, const model::LinkSet& active,
    units::Threshold beta);

}  // namespace raysched::core
