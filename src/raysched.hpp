// raysched: umbrella header — the full public API.
//
// Reproduction of Dams, Hoefer, Kesselheim, "Scheduling in Wireless Networks
// with Rayleigh-Fading Interference" (SPAA 2012). See DESIGN.md for the
// module map and EXPERIMENTS.md for the reproduced figures.
#pragma once

#include "util/version.hpp"        // library version constants
#include "util/error.hpp"          // raysched::error, require()
#include "util/logstar.hpp"        // log*, Theorem-2 b_k sequence
#include "util/table.hpp"          // text/CSV tables for harness output
#include "util/flags.hpp"          // CLI flags for examples

#include "util/rng.hpp"             // splittable xoshiro256++ streams
#include "sim/stats.hpp"           // Welford accumulators
#include "sim/thread_pool.hpp"     // parallel_for over Monte-Carlo trials
#include "sim/failure.hpp"         // CellFailure records & failure reports
#include "sim/checkpoint.hpp"      // sweep checkpoint persistence
#include "sim/engine.hpp"          // nested-seed Monte-Carlo experiments

#include "model/geometry.hpp"      // points & distances
#include "model/link.hpp"          // links & link sets
#include "model/power.hpp"         // uniform / square-root / linear / explicit
#include "model/pathloss.hpp"      // power-law / log-distance / dual-slope
#include "model/network.hpp"       // mean-gain matrix, noise
#include "model/sinr.hpp"          // non-fading SINR & feasibility
#include "model/affectance.hpp"    // Halldorsson-Wattenhofer affectance
#include "model/rayleigh.hpp"      // fading realizations & exact slot probs
#include "model/nakagami.hpp"      // Nakagami-m generalization (m=1: Rayleigh)
#include "model/block_fading.hpp"  // time-correlated fading (coherence time)
#include "model/shadowing.hpp"     // log-normal shadowing
#include "model/feasibility.hpp"   // Perron-Frobenius power-control tools
#include "model/interference_graph.hpp"  // protocol-model baseline
#include "model/io.hpp"            // network (de)serialization
#include "model/generator.hpp"     // paper's random-plane instances & more

#include "core/utility.hpp"              // Definition 1 utilities
#include "core/success_probability.hpp"  // Theorem 1 & Lemma 1
#include "core/success_probability_batch.hpp"  // fused per-link Theorem-1 batches
#include "core/transfer.hpp"             // Lemma 2 solution transfer
#include "core/simulation_transform.hpp" // Algorithm 1 / Theorem 2
#include "core/latency_transform.hpp"    // Section-4 4x repetition
#include "core/latency_bounds.hpp"       // analytic ALOHA latency estimates
#include "core/latency_exact.hpp"        // exact ALOHA latency (small n)
#include "algorithms/reduction.hpp"      // packaged black-box reduction

#include "algorithms/capacity.hpp"  // greedy / power-control / flexible-rate
#include "algorithms/exact.hpp"     // branch & bound, local search OPT
#include "algorithms/latency.hpp"   // repeated-capacity & ALOHA latency
#include "algorithms/multihop.hpp"  // multi-hop request scheduling
#include "algorithms/routing.hpp"   // relay routing -> multi-hop instances
#include "algorithms/online.hpp"    // online admission control
#include "algorithms/queueing.hpp"  // max-weight queue scheduling
#include "algorithms/weighted.hpp"       // link-weighted capacity
#include "algorithms/probabilistic.hpp"  // Rayleigh-optimal q (Section 5 OPT)

#include "learning/no_regret.hpp"     // learner interface & regret tracking
#include "learning/rwm.hpp"           // Randomized Weighted Majority
#include "learning/exp3.hpp"          // EXP3 bandit learning [23]
#include "learning/regret_matching.hpp" // regret matching (Hart-Mas-Colell)
#include "learning/best_response.hpp" // Nash / best-response dynamics [5]
#include "learning/fictitious_play.hpp" // fictitious play via Theorem 1
#include "learning/capacity_game.hpp" // the Section-6 game engine

#include "serve/traffic.hpp"        // stochastic arrival generators
#include "serve/health.hpp"         // watchdog + health state machine
#include "serve/fault_script.hpp"   // scripted service-level fault injection
#include "serve/schedule_agent.hpp" // async recompute with slot deadline
#include "serve/snapshot.hpp"       // crash-safe snapshot/restore
#include "serve/service.hpp"        // the fault-tolerant serving loop
