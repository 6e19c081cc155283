// P6: serving-loop performance harness. Times serve::Service end to end —
// traffic draw, admission, async recompute management, and draining — and
// emits machine-readable JSON (currently BENCH_10.json; BENCH_9.json is the
// pre-policy artifact) for the perf-smoke CI gate.
//
// Methodology: each slot is timed individually (service.run(1)), so the
// per-slot latency distribution is observed directly: p50 is a serve-only
// slot, p99 captures the slots that also submit an inline recompute
// (weighted greedy over the full network). The first --warmup slots are
// excluded — they fill the queues and adopt the first schedule.
//
// Every size is timed once per schedule policy (max-weight, ahm), and each
// row carries p99_over_p50 — the recompute-tail-to-serve-floor ratio the CI
// gate ratchets for max-weight. Every row re-runs untimed to prove
// deterministic_ok.
//
// The harness exits nonzero if any throughput is non-finite/non-positive
// or if the conservation invariant broke, so CI can gate on the exit code.
//
// Allocation ratchet: built with -DRAYSCHED_COUNT_ALLOCS, the harness
// replaces global operator new with a counting forwarder and reports the
// mean allocations per timed slot ("allocs_per_slot" in the JSON), so the
// perf pipeline ratchets heap traffic the same way it ratchets speedup
// ratios (scripts/perf_compare.py treats "allocs" as lower-is-better).
// The count is inclusive: a slot that submits a recompute pays for it.
// tests/test_hot_path_allocs.cpp separately pins the quiescent slot loop
// to exactly zero.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "raysched.hpp"

#if defined(RAYSCHED_COUNT_ALLOCS)
#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// Counting global operator new/delete: passive (forwards to malloc/free),
// plain + nothrow + array forms only — over-aligned allocations keep the
// library default, which pairs with the default aligned delete.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#endif  // RAYSCHED_COUNT_ALLOCS

using namespace raysched;

namespace {

#if defined(RAYSCHED_COUNT_ALLOCS)
constexpr bool kCountAllocs = true;
std::uint64_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}
#else
constexpr bool kCountAllocs = false;
std::uint64_t alloc_count() { return 0; }
#endif

using Clock = std::chrono::steady_clock;

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
    require(v > 0, "perf_serve: --sizes entries must be positive");
    sizes.push_back(static_cast<std::size_t>(v));
  }
  require(!sizes.empty(), "perf_serve: --sizes must name at least one size");
  return sizes;
}

std::string json_num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

// Shortest round-trip representation for *configuration* metadata: 0.1
// stays "0.1", not the max_digits10 noise "0.10000000000000001" that used
// to make every artifact diff touch the header. Measured results keep the
// full json_num precision.
std::string json_num_meta(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  require(ec == std::errc(), "perf_serve: metadata double formatting failed");
  return std::string(buf, ptr);
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

struct SizeResult {
  std::size_t n = 0;
  serve::PolicyKind policy = serve::PolicyKind::MaxWeight;
  std::uint64_t slots = 0;
  double slots_per_sec = 0.0;
  double p50_slot_us = 0.0;
  double p99_slot_us = 0.0;
  double max_slot_us = 0.0;
  double p99_over_p50 = 0.0;
  std::uint64_t served = 0;
  bool conservation_ok = false;
  bool deterministic_ok = false;
  double allocs_per_slot = 0.0;  // meaningful only when kCountAllocs
};

SizeResult bench_size(std::size_t n, serve::PolicyKind policy,
                      std::uint64_t slots, std::uint64_t warmup, double rate,
                      double beta) {
  serve::ServeConfig config;
  config.master_seed = 0xBE6C + n;
  config.beta = units::Threshold(beta);
  config.traffic.model = serve::TrafficModel::Poisson;
  config.traffic.mean_rate = rate;
  config.agent_threads = 1;  // inline recompute: its cost lands in the slot
  config.policy = policy;

  serve::Service service(make_network(n, 0x5E47E + n), config);
  (void)service.run(warmup);

  SizeResult out;
  out.n = n;
  out.policy = policy;
  out.slots = slots;
  std::vector<double> slot_us;
  slot_us.reserve(slots);
  double total_ns = 0.0;
  std::uint64_t served = 0;
  std::uint64_t trajectory = 0;
  const std::uint64_t alloc_base = alloc_count();
  for (std::uint64_t s = 0; s < slots; ++s) {
    const auto t0 = Clock::now();
    const serve::ServeReport report = service.run(1);
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    total_ns += ns;
    slot_us.push_back(ns * 1e-3);
    served = report.served;
    trajectory = report.trajectory_hash;
  }
  const std::uint64_t allocs = alloc_count() - alloc_base;
  std::sort(slot_us.begin(), slot_us.end());
  out.slots_per_sec = static_cast<double>(slots) / (total_ns * 1e-9);
  out.p50_slot_us = percentile(slot_us, 0.50);
  out.p99_slot_us = percentile(slot_us, 0.99);
  out.max_slot_us = slot_us.back();
  out.p99_over_p50 =
      out.p50_slot_us > 0.0 ? out.p99_slot_us / out.p50_slot_us : 0.0;
  out.served = served;
  out.conservation_ok = service.conservation_holds();
  out.allocs_per_slot =
      static_cast<double>(allocs) / static_cast<double>(slots);

  // Untimed determinism re-run: a fresh service over the same horizon must
  // reproduce the timed run's trajectory hash bit-for-bit.
  serve::Service rerun(make_network(n, 0x5E47E + n), config);
  const serve::ServeReport replay = rerun.run(warmup + slots);
  out.deterministic_ok = replay.trajectory_hash == trajectory;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.add_string("sizes", "256,1024,4096",
                   "comma-separated network sizes to serve");
  flags.add_int("slots", 160, "timed slots per size");
  flags.add_int("warmup", 32, "untimed warmup slots per size");
  flags.add_double("rate", 0.1, "mean Poisson arrivals per link per slot");
  flags.add_double("beta", 2.5, "SINR threshold");
  flags.add_string("out", "BENCH_10.json", "output JSON path");
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
  const auto slots = static_cast<std::uint64_t>(
      std::max(1LL, flags.get_int("slots")));
  const auto warmup =
      static_cast<std::uint64_t>(std::max(0LL, flags.get_int("warmup")));
  const double rate = flags.get_double("rate");
  const double beta = flags.get_double("beta");

  const serve::PolicyKind kPolicies[] = {serve::PolicyKind::MaxWeight,
                                         serve::PolicyKind::Ahm};

  std::vector<std::string> header = {"n",      "policy",  "slots/sec",
                                     "p50_us", "p99_us",  "max_us",
                                     "p99/p50", "served"};
  if (kCountAllocs) header.push_back("allocs/slot");
  util::Table table(std::move(header));
  std::vector<SizeResult> results;
  for (const std::size_t n : sizes) {
    for (const serve::PolicyKind policy : kPolicies) {
      std::cerr << "perf_serve: timing n=" << n << " policy="
                << serve::to_string(policy) << "\n";
      results.push_back(bench_size(n, policy, slots, warmup, rate, beta));
      const SizeResult& r = results.back();
      std::vector<util::Cell> row = {static_cast<long long>(r.n),
                                     std::string(serve::to_string(r.policy)),
                                     r.slots_per_sec,
                                     r.p50_slot_us,
                                     r.p99_slot_us,
                                     r.max_slot_us,
                                     r.p99_over_p50,
                                     static_cast<long long>(r.served)};
      if (kCountAllocs) row.push_back(r.allocs_per_slot);
      table.add_row(std::move(row));
    }
  }
  table.print_text(std::cout);

  // Gate before writing: CI trusts the exit code.
  bool ok = true;
  for (const SizeResult& r : results) {
    ok = ok && std::isfinite(r.slots_per_sec) && r.slots_per_sec > 0.0 &&
         std::isfinite(r.p99_slot_us) && r.p99_slot_us > 0.0 &&
         r.conservation_ok && r.deterministic_ok;
  }
  if (!ok) {
    std::cerr << "perf_serve: non-finite measurement, determinism failure, "
                 "or conservation violation\n";
    return 1;
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"perf_serve\",\n"
       << "  \"beta\": " << json_num_meta(beta) << ",\n"
       << "  \"rate\": " << json_num_meta(rate) << ",\n"
       << "  \"slots\": " << slots << ",\n"
       << "  \"warmup\": " << warmup << ",\n"
       << "  \"sizes\": [\n";
  for (std::size_t k = 0; k < results.size(); ++k) {
    const SizeResult& r = results[k];
    json << "    {\"n\": " << r.n                                    //
         << ", \"policy\": \"" << serve::to_string(r.policy) << "\""  //
         << ", \"slots_per_sec\": " << json_num(r.slots_per_sec)     //
         << ", \"p50_slot_us\": " << json_num(r.p50_slot_us)         //
         << ", \"p99_slot_us\": " << json_num(r.p99_slot_us)         //
         << ", \"max_slot_us\": " << json_num(r.max_slot_us)         //
         << ", \"p99_over_p50\": " << json_num(r.p99_over_p50)       //
         << ", \"served\": " << r.served;
    // Emitted only when measured, so a counting and a plain build's
    // artifacts compare on their common counters (perf_compare
    // intersects keys).
    if (kCountAllocs) {
      json << ", \"allocs_per_slot\": " << json_num(r.allocs_per_slot);
    }
    json << ", \"conservation_ok\": "
         << (r.conservation_ok ? "true" : "false")
         << ", \"deterministic_ok\": "
         << (r.deterministic_ok ? "true" : "false") << "}"
         << (k + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  const std::string path = flags.get_string("out");
  std::ofstream f(path);
  f << json.str();
  if (!f) {
    std::cerr << "perf_serve: failed to write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << "\n";
  return 0;
}
