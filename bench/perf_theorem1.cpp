// P5: Theorem-1 performance harness. Times the scalar per-link public API
// (which re-validates q for every link) against the fused batch
// batch_rayleigh_success_probabilities (one validation sweep, then the
// same per-link expression) at a sweep of network sizes, plus the
// end-to-end RWM learning loop, and emits the results as machine-readable
// JSON (BENCH_5.json) for the perf-smoke CI gate and docs/PERFORMANCE.md.
//
// Methodology: each timer calibrates an inner iteration count so one
// measurement window spans at least --min-time-ms, then reports the best
// of --reps windows (min ns/op: the least-perturbed run on a shared
// machine). Every timed loop feeds a checksum that is printed into the
// JSON, so the optimizer cannot discard the work.
//
// The harness exits nonzero if any reported throughput is non-finite or
// non-positive, so CI can gate on the exit code alone.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "raysched.hpp"

using namespace raysched;

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/// Best-of-reps ns per operation: calibrates the inner iteration count so
/// one window is at least min_time_ms, then takes the fastest window.
template <typename Body>
double best_ns_per_op(Body&& body, long long reps, double min_time_ms) {
  const double min_ns = min_time_ms * 1e6;
  std::uint64_t iters = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::uint64_t k = 0; k < iters; ++k) body();
    const double ns = elapsed_ns(t0, Clock::now());
    if (ns >= min_ns || iters >= (std::uint64_t{1} << 40)) {
      // Calibrated (or body is pathologically fast): time `reps` windows
      // at this count and keep the best.
      double best = ns / static_cast<double>(iters);
      for (long long r = 1; r < reps; ++r) {
        const auto r0 = Clock::now();
        for (std::uint64_t k = 0; k < iters; ++k) body();
        const double rns = elapsed_ns(r0, Clock::now());
        best = std::min(best, rns / static_cast<double>(iters));
      }
      return best;
    }
    // Grow toward the target in one step once we have a usable estimate.
    if (ns < min_ns / 16.0) {
      iters *= 16;
    } else {
      iters = static_cast<std::uint64_t>(
          static_cast<double>(iters) * (min_ns / ns) * 1.25 + 1.0);
    }
  }
}

model::Network make_network(std::size_t n, std::uint64_t seed) {
  util::RngStream rng(seed);
  model::RandomPlaneParams params;
  params.num_links = n;
  auto links = model::random_plane_links(params, rng);
  return model::Network(std::move(links), model::PowerAssignment::uniform(2.0),
                        2.2, units::Power(4e-7));
}

std::vector<std::size_t> parse_sizes(const std::string& csv) {
  std::vector<std::size_t> sizes;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) continue;
    const long long v = std::stoll(tok);
    require(v > 0, "perf_theorem1: --sizes entries must be positive");
    sizes.push_back(static_cast<std::size_t>(v));
  }
  require(!sizes.empty(), "perf_theorem1: --sizes must name at least one size");
  return sizes;
}

/// Full-precision double for JSON (never NaN/Inf by the time we emit).
std::string json_num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

struct SizeResult {
  std::size_t n = 0;
  double scalar_ns_per_eval = 0.0;     ///< per-link public API, all n links
  double batched_ns_per_eval = 0.0;    ///< fused batch, all n links
  double checksum = 0.0;
  [[nodiscard]] double speedup_batched() const {
    return scalar_ns_per_eval / batched_ns_per_eval;
  }
};

SizeResult bench_size(std::size_t n, double beta_value, long long reps,
                      double min_time_ms) {
  SizeResult out;
  out.n = n;
  const auto net = make_network(n, 0x51CE + n);
  const units::Threshold beta(beta_value);

  util::RngStream rng(n);
  std::vector<double> raw(n);
  for (auto& v : raw) v = 0.05 + 0.9 * rng.uniform();
  const auto q = units::probabilities(raw);

  double checksum = 0.0;

  // Scalar baseline: one public per-link call per link, each re-running
  // the O(n) validation sweep.
  out.scalar_ns_per_eval = best_ns_per_op(
      [&] {
        double sum = 0.0;
        for (model::LinkId i = 0; i < n; ++i) {
          sum += core::rayleigh_success_probability(net, q, i, beta).value();
        }
        checksum += sum;
      },
      reps, min_time_ms);

  // Fused batch: q validated once, then the scalar expression per link.
  out.batched_ns_per_eval = best_ns_per_op(
      [&] {
        checksum +=
            core::batch_rayleigh_success_probabilities(net, q, beta)[n / 2];
      },
      reps, min_time_ms);

  out.checksum = checksum;
  return out;
}

struct RwmResult {
  std::size_t links = 0;
  std::size_t rounds = 0;
  double rounds_per_sec = 0.0;
  double checksum = 0.0;
};

RwmResult bench_rwm(std::size_t links, std::size_t rounds, double beta_value,
                    long long reps, double min_time_ms) {
  RwmResult out;
  out.links = links;
  out.rounds = rounds;
  const auto net = make_network(links, 0xE2E);
  learning::GameOptions opts;
  opts.rounds = rounds;
  opts.model = learning::GameModel::Rayleigh;
  opts.beta = beta_value;

  double checksum = 0.0;
  std::uint64_t run = 0;
  const double ns_per_game = best_ns_per_op(
      [&] {
        util::RngStream rng(911 + run++);
        const auto result = learning::run_capacity_game(
            net, opts, [] { return std::make_unique<learning::RwmLearner>(); },
            rng);
        checksum += result.average_successes;
      },
      reps, min_time_ms);
  out.rounds_per_sec = static_cast<double>(rounds) / (ns_per_game * 1e-9);
  out.checksum = checksum;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.add_string("sizes", "64,256,1024,4096",
                   "comma-separated network sizes for the Theorem-1 sweep");
  flags.add_int("reps", 5, "measurement windows per timer (best kept)");
  flags.add_double("min-time-ms", 200.0, "minimum duration of one window");
  flags.add_int("rwm-links", 200, "links in the end-to-end RWM game");
  flags.add_int("rwm-rounds", 300, "rounds per RWM game run");
  flags.add_double("beta", 2.5, "SINR threshold");
  flags.add_string("out", "BENCH_5.json", "output JSON path");
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

  const auto sizes = parse_sizes(flags.get_string("sizes"));
  const long long reps = std::max(1LL, flags.get_int("reps"));
  const double min_time_ms = flags.get_double("min-time-ms");
  const double beta = flags.get_double("beta");

  util::Table table({"n", "scalar_ns", "batched_ns", "speedup"});
  std::vector<SizeResult> results;
  for (const std::size_t n : sizes) {
    std::cerr << "perf_theorem1: timing n=" << n << "\n";
    results.push_back(bench_size(n, beta, reps, min_time_ms));
    const SizeResult& r = results.back();
    table.add_row({static_cast<long long>(r.n), r.scalar_ns_per_eval,
                   r.batched_ns_per_eval, r.speedup_batched()});
  }
  std::cerr << "perf_theorem1: timing RWM end-to-end\n";
  const RwmResult rwm = bench_rwm(
      static_cast<std::size_t>(flags.get_int("rwm-links")),
      static_cast<std::size_t>(flags.get_int("rwm-rounds")), beta, reps,
      min_time_ms);
  table.print_text(std::cout);
  std::cout << "rwm: " << rwm.links << " links, " << rwm.rounds
            << " rounds/run -> " << rwm.rounds_per_sec << " rounds/sec\n";

  // Gate before writing: CI trusts the exit code.
  bool ok = std::isfinite(rwm.rounds_per_sec) && rwm.rounds_per_sec > 0.0;
  for (const SizeResult& r : results) {
    for (const double v : {r.scalar_ns_per_eval, r.batched_ns_per_eval}) {
      ok = ok && std::isfinite(v) && v > 0.0;
    }
  }
  if (!ok) {
    std::cerr << "perf_theorem1: non-finite or non-positive measurement\n";
    return 1;
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"perf_theorem1\",\n"
       << "  \"beta\": " << json_num(beta) << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"min_time_ms\": " << json_num(min_time_ms) << ",\n"
       << "  \"sizes\": [\n";
  for (std::size_t k = 0; k < results.size(); ++k) {
    const SizeResult& r = results[k];
    json << "    {\"n\": " << r.n                                          //
         << ", \"scalar_ns_per_eval\": " << json_num(r.scalar_ns_per_eval)  //
         << ", \"batched_ns_per_eval\": " << json_num(r.batched_ns_per_eval)
         << ", \"speedup_batched\": " << json_num(r.speedup_batched())
         << ", \"checksum\": " << json_num(r.checksum) << "}"
         << (k + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"rwm\": {\"links\": " << rwm.links
       << ", \"rounds\": " << rwm.rounds
       << ", \"rounds_per_sec\": " << json_num(rwm.rounds_per_sec)
       << ", \"checksum\": " << json_num(rwm.checksum) << "}\n"
       << "}\n";

  const std::string path = flags.get_string("out");
  std::ofstream f(path);
  f << json.str();
  if (!f) {
    std::cerr << "perf_theorem1: failed to write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << "\n";
  return 0;
}
