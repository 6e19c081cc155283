// Example: a guided tour of the Rayleigh vs non-fading relationship — the
// paper's analytical pillars demonstrated numerically on one instance.
//
//   1. Theorem 1 closed form vs Lemma 1 bounds for one link.
//   2. The "smoothed curve" effect: success vs transmission probability.
//   3. Lemma 2: 1/e transfer of a feasible set.
//   4. Theorem 2: simulating a Rayleigh slot with O(log* n) non-fading slots.
//
//   $ ./model_comparison --links=30
#include <cmath>
#include <iostream>

#include "raysched.hpp"

using namespace raysched;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("links", 30, "number of links");
  flags.add_int("seed", 5, "instance seed");
  try {
    flags.parse(argc, argv);
  } catch (const error& e) {
    std::cerr << e.what() << "\n" << flags.usage(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage(argv[0]);
    return 0;
  }

  util::RngStream rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  model::RandomPlaneParams params;
  params.num_links = static_cast<std::size_t>(flags.get_int("links"));
  auto links = model::random_plane_links(params, rng);
  const model::Network net(std::move(links),
                           model::PowerAssignment::uniform(2.0), 2.2, units::Power(4e-7));
  const double beta = 2.5;

  // 1. Theorem 1 and Lemma 1 for link 0 at q = 1/2 everywhere.
  std::vector<double> q(net.size(), 0.5);
  std::cout << "== Theorem 1 & Lemma 1 (link 0, all q_i = 0.5, beta = " << beta
            << ") ==\n"
            << "  lower bound: "
            << core::rayleigh_success_lower_bound(net, units::probabilities(q), 0, units::Threshold(beta)).value() << "\n"
            << "  exact Q_0:   "
            << core::rayleigh_success_probability(net, units::probabilities(q), 0, units::Threshold(beta)).value() << "\n"
            << "  upper bound: "
            << core::rayleigh_success_upper_bound(net, units::probabilities(q), 0, units::Threshold(beta)).value() << "\n\n";

  // 2. Smoothed-curve effect.
  std::cout << "== expected successes vs q (the Figure-1 shape) ==\n";
  util::Table sweep({"q", "nonfading(MC)", "rayleigh(exact)"});
  util::RngStream mc = rng.derive(1);
  for (double qq : {0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
    std::vector<double> probs(net.size(), qq);
    sweep.add_row(util::make_row(
        qq,
        core::expected_nonfading_successes_mc(net, units::probabilities(probs), units::Threshold(beta),
                                              400, mc),
        core::expected_rayleigh_successes(net, units::probabilities(probs), units::Threshold(beta))));
  }
  sweep.print_text(std::cout);

  // 3. Lemma 2 transfer.
  const auto greedy = algorithms::greedy_capacity(net, beta);
  util::RngStream fading = rng.derive(2);
  const auto transfer = core::transfer_capacity_solution(
      net, greedy.selected, core::Utility::binary(units::Threshold(beta)), 1, fading);
  std::cout << "\n== Lemma 2 transfer of the greedy solution ==\n"
            << "  non-fading successes: " << transfer.nonfading_value << "\n"
            << "  E[Rayleigh successes]: " << transfer.rayleigh_value << "\n"
            << "  ratio: " << transfer.ratio() << "  (bound: 1/e = "
            << 1.0 / std::exp(1.0) << ")\n";

  // 4. Theorem 2 simulation.
  std::vector<double> ones(net.size(), 1.0);
  const auto schedule = core::build_simulation_schedule(net, units::probabilities(ones));
  util::RngStream sim_rng = rng.derive(3);
  const double best = core::simulation_expected_best_utility_mc(
      net, schedule, core::Utility::binary(units::Threshold(beta)), 300, sim_rng);
  std::cout << "\n== Theorem 2 simulation (q_i = 1) ==\n"
            << "  levels: " << schedule.levels.size() << "  slots: "
            << schedule.total_slots() << "  (log* " << net.size()
            << " levels x 19)\n"
            << "  E[best-slot non-fading utility]: " << best << "\n"
            << "  E[Rayleigh utility of original q]: "
            << core::expected_rayleigh_successes(net, units::probabilities(ones), units::Threshold(beta)) << "\n"
            << "  (Theorem 2: the former is >= 1/8 of the latter)\n";
  return 0;
}
