// The mc-fig1 workload: Fig-1 cells through sim::run_experiment.
//
// Each instance is a paper-setup network (100 links on a 1000x1000 plane,
// beta 2.5, alpha 2.2, nu 4e-7, uniform power 2). Trial t of an instance
// draws a Bernoulli(q) transmit set with q = (t % 20 + 1) / 20, counts the
// sampled Rayleigh successes (model::count_successes_rayleigh) and the
// Theorem-1 expectation (core::batch_success_probabilities_active).
//
// Untraced run, repeated in pairs until the time budget is spent: the grid
// at kThreads engine threads, then serially. Per-cell latency comes from
// the serial passes. Each threaded pass runs on the two calmest vCPUs, one
// worker each, and each serial pass on the calmest one (CalmPlacement). The
// trial function runs a host probe before every kThreadedProbeCells-th or
// kSerialProbeCells-th cell, outside the cell's timing but inside the
// threaded pass's wall time (about 0.3%). Throughput is taken over the calm
// threaded passes and latency percentiles over the calm groups of serial
// cells (bench.hpp). Set-up is the fast decile across passes. The traced
// run times the factory and the two model and core calls inside every
// cell, and a ThreadPool start.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "core/success_probability_batch.hpp"
#include "model/generator.hpp"
#include "model/network.hpp"
#include "model/rayleigh.hpp"
#include "sim/engine.hpp"
#include "sim/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace raysched;

constexpr double kBeta = 2.5;
constexpr std::size_t kQPoints = 20;
constexpr std::size_t kLinks = 100;
constexpr std::size_t kThreads = 2;  ///< the parallel pass
/// Cells per host probe: threaded passes, and serial ones, where the probes
/// rate each group of cells for latency.
constexpr std::size_t kThreadedProbeCells = 25;
constexpr std::size_t kSerialProbeCells = 5;
/// Cells the calm threaded passes, and the calm serial groups, hold at least.
constexpr std::size_t kCalmCells = 20000;

/// Timestamps of one cell, written only by the worker that runs it.
struct CellTimes {
  std::int64_t start = 0;
  std::int64_t rayleigh_start = 0;
  std::int64_t rayleigh_end = 0;
  std::int64_t theorem1_end = 0;
  std::int64_t end = 0;
};

struct McPass {
  double wall_s = 0.0;
  double first_cell_s = 0.0;  ///< engine start-up before the first cell
  std::uint64_t checksum = 0;
  std::size_t cells_completed = 0;
  std::size_t cells_skipped = 0;
  double sampled_sum = 0.0;
  double expected_sum = 0.0;
  double variance_sum = 0.0;
  std::vector<CellTimes> cells;  ///< indexed net * trials + trial
  std::vector<CellTimes> instances;  ///< start/end per network
  std::size_t probe_cells = 0;  ///< cells per host probe
  /// Host probe before every probe_cells-th cell, at cell / probe_cells.
  std::vector<double> probe_us;
  double end_probe_us = 0.0;  ///< host probe on the caller after the pass
};

/// FNV-1a over the bit patterns of the pooled statistics.
std::uint64_t checksum(const sim::ExperimentResult& r) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const auto* accs : {&r.per_trial, &r.per_network}) {
    for (const sim::Accumulator& a : *accs) {
      mix(a.count());
      if (a.count() == 0) continue;
      mix(std::bit_cast<std::uint64_t>(a.mean()));
      mix(std::bit_cast<std::uint64_t>(a.m2()));
      mix(std::bit_cast<std::uint64_t>(a.sum()));
    }
  }
  return h;
}

/// `placement` pins each engine worker to its own chosen vCPU; with
/// `probe` (untraced runs) the trial function also probes the host.
McPass run_pass(const McWorkload& w, std::uint64_t seed, std::size_t threads,
                const Trace& clock, CalmPlacement& placement, bool probe) {
  McPass pass;
  pass.cells.resize(w.networks * w.trials);
  pass.instances.resize(w.networks);
  pass.probe_cells = threads > 1 ? kThreadedProbeCells : kSerialProbeCells;
  pass.probe_us.resize((w.networks * w.trials + pass.probe_cells - 1) /
                       pass.probe_cells);
  std::atomic<std::int64_t> first_cell{-1};

  const sim::InstanceFactory factory = [&](util::RngStream& rng) {
    placement.pin_worker();
    CellTimes& t = pass.instances[sim::current_cell().net_idx];
    t.start = clock.now_ns();
    model::RandomPlaneParams params;
    params.num_links = kLinks;
    auto links = model::random_plane_links(params, rng);
    model::Network net(std::move(links), model::PowerAssignment::uniform(2.0),
                       2.2, units::Power(4e-7));
    t.end = clock.now_ns();
    return net;
  };
  const sim::TrialFunction trial = [&](const model::Network& net,
                                       util::RngStream& rng) {
    const sim::CellRef cell = sim::current_cell();
    const std::size_t index = cell.net_idx * w.trials + cell.trial_idx;
    if (probe && index % pass.probe_cells == 0) {
      pass.probe_us[index / pass.probe_cells] = host_probe_us();
    }
    CellTimes& t = pass.cells[index];
    t.start = clock.now_ns();
    std::int64_t unset = -1;
    first_cell.compare_exchange_strong(unset, t.start,
                                       std::memory_order_relaxed);
    const double q = static_cast<double>(cell.trial_idx % kQPoints + 1) /
                     static_cast<double>(kQPoints);
    model::LinkSet active;
    for (model::LinkId i = 0; i < net.size(); ++i) {
      if (rng.bernoulli(q)) active.push_back(i);
    }
    t.rayleigh_start = clock.now_ns();
    const std::size_t sampled = model::count_successes_rayleigh(
        net, active, units::Threshold(kBeta), rng);
    t.rayleigh_end = clock.now_ns();
    const std::vector<double> probs = core::batch_success_probabilities_active(
        net, active, units::Threshold(kBeta));
    t.theorem1_end = clock.now_ns();
    double expected = 0.0, variance = 0.0;
    for (double p : probs) {
      expected += p;
      variance += p * (1.0 - p);
    }
    t.end = clock.now_ns();
    return std::vector<double>{static_cast<double>(sampled), expected,
                               variance};
  };

  sim::ExperimentConfig config;
  config.num_networks = w.networks;
  config.trials_per_network = w.trials;
  config.master_seed = seed;
  config.num_threads = threads;
  config.fault_policy = sim::FaultPolicy::Skip;

  const std::int64_t t0 = clock.now_ns();
  const sim::ExperimentResult r = sim::run_experiment(
      config, {"sampled", "expected", "variance"}, factory, trial);
  const std::int64_t t1 = clock.now_ns();
  if (probe) pass.end_probe_us = host_probe_us();
  pass.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  pass.first_cell_s = static_cast<double>(first_cell.load() - t0) * 1e-9;
  pass.checksum = checksum(r);
  pass.cells_completed = r.cells_completed;
  pass.cells_skipped = r.cells_skipped;
  if (r.per_trial[0].count() > 0) {
    pass.sampled_sum = r.per_trial[0].sum();
    pass.expected_sum = r.per_trial[1].sum();
    pass.variance_sum = r.per_trial[2].sum();
  }
  return pass;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

/// Theorem 1 against the sampler: given the transmit set, each link's
/// success is an independent Bernoulli(Q_i), so the pooled count is within
/// 4 sigma of the pooled expectation.
void check_conformance(Checks& checks, const McPass& p) {
  double expected = p.expected_sum;
  const double sigma = std::sqrt(p.variance_sum);
  if (checks.wrong("theorem1_conformance")) expected += 5.0 * sigma;
  const double z = sigma > 0.0 ? (p.sampled_sum - expected) / sigma : INFINITY;
  std::ostringstream detail;
  detail << "sampled " << p.sampled_sum << " vs Theorem 1 " << expected
         << ", z=" << z;
  checks.require("theorem1_conformance", std::fabs(z) < 4.0, detail.str());
}

void check_pair(Checks& checks, const McPass& parallel, const McPass& serial,
                std::uint64_t first) {
  std::uint64_t want = serial.checksum;
  if (checks.wrong("thread_checksum")) want ^= 1;
  checks.require("thread_checksum", parallel.checksum == want,
                 "threaded " + hex(parallel.checksum) + " vs serial " +
                     hex(serial.checksum));
  std::uint64_t want_repeat = first;
  if (checks.wrong("repeatable")) want_repeat ^= 1;
  checks.require("repeatable", parallel.checksum == want_repeat,
                 "same seed, same statistics on every repeat");
}

std::vector<double> cell_us(const McPass& p) {
  std::vector<double> us;
  us.reserve(p.cells.size());
  for (const CellTimes& c : p.cells) {
    us.push_back(static_cast<double>(c.end - c.start) * 1e-3);
  }
  return us;
}

}  // namespace

Outcome mc_untraced(const McWorkload& w, const Options& opt, Checks& checks,
                    Result& result) {
  Outcome out;
  const Trace clock;
  std::vector<double> setup_s;
  // Threaded passes, each rated by the median of its host probes, and the
  // serial passes' groups of kSerialProbeCells cells, each by the mean of the
  // probes on either side of it.
  std::vector<double> pass_s, pass_probe_us, group_probe_us;
  std::vector<std::size_t> pass_cells, group_cells, group_first;
  std::vector<double> serial_cell_us;  ///< every serial cell, in run order
  std::uint64_t first = 0;
  double successes_per_cell = 0.0;
  CalmPlacement placement;
  Budget budget(opt.seconds);
  double last_pair_s = 0.0;
  for (int pair = 0; budget.another(last_pair_s, pair); ++pair) {
    const auto t_pair = Clock::now();
    // The engine's workers take one calm vCPU each; the serial pass runs
    // on the calling thread.
    (void)placement.settle_many(kThreads);
    const McPass par =
        run_pass(w, opt.seed, kThreads, clock, placement, true);
    (void)placement.settle();
    const McPass ser = run_pass(w, opt.seed, 1, clock, placement, true);
    if (pair == 0) {
      first = par.checksum;
      check_conformance(checks, par);
      successes_per_cell =
          par.sampled_sum / static_cast<double>(par.cells_completed);
    }
    check_pair(checks, par, ser, first);
    for (const McPass* p : {&par, &ser}) {
      setup_s.push_back(p->first_cell_s);
      out.attempted += p->cells_completed + p->cells_skipped;
      out.failed += p->cells_skipped;
    }
    pass_s.push_back(par.wall_s);
    pass_cells.push_back(par.cells_completed);
    pass_probe_us.push_back(median(par.probe_us));
    const std::vector<double> us = cell_us(ser);
    for (std::size_t g = 0; g < ser.probe_us.size(); ++g) {
      const double after = g + 1 < ser.probe_us.size() ? ser.probe_us[g + 1]
                                                       : ser.end_probe_us;
      group_probe_us.push_back(0.5 * (ser.probe_us[g] + after));
      const std::size_t from = g * kSerialProbeCells;
      group_cells.push_back(std::min(kSerialProbeCells, us.size() - from));
      group_first.push_back(serial_cell_us.size() + from);
    }
    serial_cell_us.insert(serial_cell_us.end(), us.begin(), us.end());
    last_pair_s = seconds_since(t_pair);
  }
  std::vector<double> lat;
  const std::vector<std::size_t> calm_groups =
      calm_blocks(group_probe_us, group_cells, kCalmCells);
  for (std::size_t k : calm_groups) {
    const auto from =
        serial_cell_us.begin() + static_cast<std::ptrdiff_t>(group_first[k]);
    lat.insert(lat.end(), from,
               from + static_cast<std::ptrdiff_t>(group_cells[k]));
  }
  double calm_cells = 0.0, calm_s = 0.0;
  const std::vector<std::size_t> calm_passes =
      calm_blocks(pass_probe_us, pass_cells, kCalmCells);
  for (std::size_t k : calm_passes) {
    calm_cells += static_cast<double>(pass_cells[k]);
    calm_s += pass_s[k];
  }
  std::cerr << "mc: " << calm_passes.size() << " of " << pass_s.size()
            << " threaded passes and " << calm_groups.size() << " of "
            << group_cells.size() << " serial cell groups calm (lowest probe "
            << "rating " << group_probe_us[calm_groups.front()] << " us)\n";
  const double p99 = percentile(lat, 0.99);
  const auto beyond = static_cast<std::size_t>(
      std::count_if(lat.begin(), lat.end(), [p99](double v) { return v > p99; }));
  const std::size_t want_beyond = checks.wrong("p99_support") ? lat.size() : 10;
  checks.require("p99_support", beyond >= want_beyond,
                 std::to_string(beyond) + " of " + std::to_string(lat.size()) +
                     " cell samples beyond p99");

  result.metric("setup_s", fast_decile_time(setup_s), "s");
  result.metric("throughput_per_s", calm_cells / calm_s, "1/s");
  result.metric("latency_p50_us", percentile(lat, 0.50), "us");
  result.metric("latency_p99_us", p99, "us");
  result.metric("successes_per_step", successes_per_cell, "count");
  result.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  return out;
}

Outcome mc_traced(const McWorkload& w, const Options& opt, Checks& checks,
                  Result& result, Trace& trace) {
  Outcome out;
  // sim.ThreadPool start-up, in isolation.
  std::vector<double> pool_us;
  for (int k = 0; k < 50; ++k) {
    const std::int64_t t0 = trace.now_ns();
    { sim::ThreadPool pool(kThreads); }
    const std::int64_t t1 = trace.now_ns();
    trace.add("sim.ThreadPool", static_cast<std::uint64_t>(k), -1, t0, t1);
    pool_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
  }

  // Every pass runs where the untraced run's would, without host probes.
  CalmPlacement placement;
  const auto pass = [&](std::size_t threads) {
    if (threads > 1) {
      (void)placement.settle_many(threads);
    } else {
      (void)placement.settle();
    }
    return run_pass(w, opt.seed, threads, trace, placement, false);
  };

  // Untraced baselines: the faster of three passes at each thread count.
  McPass base = pass(kThreads);
  McPass serial = pass(1);
  check_pair(checks, base, serial, base.checksum);
  check_conformance(checks, base);
  for (int rep = 0; rep < 2; ++rep) {
    McPass b = pass(kThreads);
    McPass s = pass(1);
    check_pair(checks, b, s, base.checksum);
    if (b.wall_s < base.wall_s) base = std::move(b);
    if (s.wall_s < serial.wall_s) serial = std::move(s);
  }

  const std::int64_t t0 = trace.now_ns();
  const McPass traced = pass(kThreads);
  const std::int64_t root = trace.add(
      "sim.run_experiment", 0, -1, t0,
      t0 + static_cast<std::int64_t>(traced.wall_s * 1e9));
  std::uint64_t want = base.checksum;
  if (checks.wrong("trace_passive")) want ^= 1;
  checks.require("trace_passive", traced.checksum == want,
                 "traced pass reproduces the untraced statistics");
  out.attempted = traced.cells_completed + traced.cells_skipped;
  out.failed = traced.cells_skipped;

  std::vector<double> instance_us, rayleigh_us, theorem1_us;
  double busy_ns = 0.0;
  for (std::size_t n = 0; n < traced.instances.size(); ++n) {
    const CellTimes& t = traced.instances[n];
    trace.add("model.instance", n, root, t.start, t.end);
    instance_us.push_back(static_cast<double>(t.end - t.start) * 1e-3);
    busy_ns += static_cast<double>(t.end - t.start);
  }
  for (std::size_t c = 0; c < traced.cells.size(); ++c) {
    const CellTimes& t = traced.cells[c];
    const std::int64_t cell = trace.add("sim.trial", c, root, t.start, t.end);
    trace.add("model.count_successes_rayleigh", c, cell, t.rayleigh_start,
              t.rayleigh_end);
    trace.add("core.batch_success_probabilities_active", c, cell,
              t.rayleigh_end, t.theorem1_end);
    rayleigh_us.push_back(
        static_cast<double>(t.rayleigh_end - t.rayleigh_start) * 1e-3);
    theorem1_us.push_back(
        static_cast<double>(t.theorem1_end - t.rayleigh_end) * 1e-3);
    busy_ns += static_cast<double>(t.end - t.start);
  }

  const double threads = static_cast<double>(kThreads);
  const double cells = static_cast<double>(traced.cells_completed);
  result.metric("sim.pool_start_us", median(pool_us), "us");
  result.metric("sim.engine_self_s", traced.wall_s - busy_ns * 1e-9 / threads,
                "s");
  result.metric("sim.busy_frac", busy_ns * 1e-9 / (threads * traced.wall_s),
                "ratio");
  result.metric("sim.trace_slowdown", traced.wall_s / base.wall_s, "ratio");
  result.metric("sim.parallel_speedup", serial.wall_s / base.wall_s, "ratio");
  result.metric("sim.cells_per_s_serial",
                static_cast<double>(serial.cells_completed) / serial.wall_s,
                "1/s");
  result.metric("model.instance_us", median(instance_us), "us");
  result.metric("model.rayleigh_draw_us", median(rayleigh_us), "us");
  result.metric("core.theorem1_us", median(theorem1_us), "us");
  std::cerr << "traced mc pass: " << cells << " cells, " << trace.size()
            << " spans\n";
  return out;
}

}  // namespace perfbench
