// Ablation A3: the Theorem 2 / Algorithm 1 simulation.
//
// (a) Schedule size: number of probability levels (and total slots) as a
//     function of n — the O(log* n) claim, printed explicitly.
// (b) Lemma 3 inequality: Pr[success in >= 1 simulation slot, non-fading]
//     vs the Rayleigh probability Q_i(q, beta), per link, Monte-Carlo.
// (c) Theorem 2 utility: E[sum u(best non-fading SINR over slots)] vs
//     E[sum u(gamma^R)] — the 8x decomposition constant from the proof.
#include <iostream>
#include <vector>

#include "raysched.hpp"

using namespace raysched;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("links", 40, "links in the evaluation network");
  flags.add_int("trials", 600, "Monte-Carlo trials for (b) and (c)");
  flags.add_int("seed", 5, "master seed");
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

  // (a) Schedule size growth.
  std::cout << "# Ablation A3a: Algorithm 1 schedule size is O(log* n)\n";
  util::Table size_table({"n", "levels", "total_slots"});
  for (std::size_t n : {2ul, 10ul, 100ul, 10000ul, 1000000ul, 100000000ul}) {
    const int levels = util::theorem2_num_levels(n);
    size_table.add_row({static_cast<long long>(n),
                        static_cast<long long>(levels),
                        static_cast<long long>(levels) *
                            core::kSimulationRepeatsPerLevel});
  }
  size_table.print_text(std::cout);

  // (b) + (c) on a Figure-1-style instance.
  const auto n = static_cast<std::size_t>(flags.get_int("links"));
  const auto trials = static_cast<std::size_t>(flags.get_int("trials"));
  const util::RngStream master(static_cast<std::uint64_t>(flags.get_int("seed")));
  util::RngStream net_rng = master.derive(0xA);
  model::RandomPlaneParams params;
  params.num_links = n;
  auto links = model::random_plane_links(params, net_rng);
  const model::Network net(std::move(links),
                           model::PowerAssignment::uniform(2.0), 2.2, units::Power(4e-7));
  const double beta = 2.5;

  std::vector<double> q(net.size());
  util::RngStream qrng = master.derive(0xB);
  for (auto& v : q) v = qrng.uniform();
  const auto schedule = core::build_simulation_schedule(net, units::probabilities(q));

  std::cout << "\n# Ablation A3b: Lemma 3 — simulation success vs Rayleigh "
               "success (first 8 links)\n";
  util::Table lemma3({"link", "Q_i_rayleigh", "sim_nonfading", "dominates"});
  util::RngStream mc = master.derive(0xC);
  int dominated = 0;
  const std::size_t show = std::min<std::size_t>(8, net.size());
  for (model::LinkId i = 0; i < show; ++i) {
    const double rayleigh = core::rayleigh_success_probability(net, units::probabilities(q), i, units::Threshold(beta)).value();
    const double sim_prob =
        core::simulation_success_probability_mc(net, schedule, i,
                                                units::Threshold(beta), trials,
                                                mc)
            .value();
    const bool ok = sim_prob + 2.5 * std::sqrt(0.25 / static_cast<double>(trials)) >= rayleigh;
    dominated += ok ? 1 : 0;
    lemma3.add_row({static_cast<long long>(i), rayleigh, sim_prob,
                    std::string(ok ? "yes" : "NO")});
  }
  lemma3.print_text(std::cout);

  std::cout << "\n# Ablation A3c: Theorem 2 utility comparison\n";
  util::RngStream mc2 = master.derive(0xD);
  const core::Utility u = core::Utility::binary(units::Threshold(beta));
  const double simulated = core::simulation_expected_best_utility_mc(
      net, schedule, u, trials, mc2);
  const double rayleigh_util = core::expected_rayleigh_successes(net, units::probabilities(q), units::Threshold(beta));
  util::Table thm2({"quantity", "value"});
  thm2.add_row({std::string("levels used"),
                static_cast<long long>(schedule.levels.size())});
  thm2.add_row({std::string("total simulation slots"),
                static_cast<long long>(schedule.total_slots())});
  thm2.add_row({std::string("E[u | best simulation slot, non-fading]"),
                simulated});
  thm2.add_row({std::string("E[u | one Rayleigh slot]"), rayleigh_util});
  thm2.add_row({std::string("ratio rayleigh/simulated (proof bound: <= 8)"),
                simulated > 0 ? rayleigh_util / simulated : 0.0});
  thm2.print_text(std::cout);
  std::cout << "\nexpected: all links dominate (" << dominated << "/" << show
            << " here); ratio well under the proof's constant 8.\n";
  return 0;
}
