// Output plumbing: checks, the result line, percentiles, the host probe and
// calm-block selection, peak RSS, the span writer, and a passive counting
// operator new.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>

#include "bench.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// Counting global operator new: forwards to malloc, adds one relaxed atomic
// increment. Plain and nothrow forms only; over-aligned allocations keep the
// library default, which pairs with the default aligned delete.
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

void Checks::require(const std::string& name, bool ok,
                     const std::string& detail) {
  seen_.insert(name);
  std::cerr << "check " << name << ": " << (ok ? "ok" : "FAILED") << " ("
            << detail << ")\n";
  if (!ok) ++failures_;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::print_json(std::uint64_t attempted, std::uint64_t failed,
                        bool correct) const {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics_.size(); ++k) {
    const Metric& m = metrics_[k];
    // %.17g keeps every digit; JSON has no NaN/Inf, so those print null
    // and the harness rejects the run.
    char buf[64];
    if (std::isfinite(m.value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    std::cout << (k ? ", " : "") << "\"" << m.name << "\": {\"value\": " << buf
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

bool Trace::write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\": \"" << s.name << "\", \"request\": " << s.request
        << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}\n";
  }
  out.close();
  return static_cast<bool>(out);
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double host_probe_us() {
  static std::atomic<double> sink{0.0};
  double x = 1e-3;
  double sum = 0.0;
  const auto t0 = Clock::now();
  for (int i = 0; i < 1000; ++i) {
    sum += std::exp(-x);
    x += 1e-12;
  }
  const double us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  sink.store(sum, std::memory_order_relaxed);
  return us;
}

namespace {
/// The median of five probes: one interrupt or one millisecond of
/// contention must not decide where the thread runs.
double probe_median() {
  std::vector<double> probes;
  for (int k = 0; k < 5; ++k) probes.push_back(host_probe_us());
  return median(std::move(probes));
}
}  // namespace

CalmPlacement::CalmPlacement() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CalmPlacement::~CalmPlacement() {
  if (!cpus_.empty()) pin(cpus_);
}

void CalmPlacement::pin(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  // On failure the thread stays where it is; the probes still rate blocks.
  (void)sched_setaffinity(0, sizeof(set), &set);
}

std::vector<std::pair<double, int>> CalmPlacement::survey() {
  std::vector<std::pair<double, int>> by_probe;
  for (int c : cpus_) {
    pin({c});
    by_probe.emplace_back(probe_median(), c);
  }
  std::sort(by_probe.begin(), by_probe.end());
  if (fastest_ == 0.0 || by_probe.front().first < fastest_) {
    fastest_ = by_probe.front().first;
  }
  return by_probe;
}

double CalmPlacement::settle() {
  chosen_.clear();  // no worker pins itself until the next settle_many()
  if (cpus_.size() < 2) return host_probe_us();
  double here = 0.0;
  if (current_ >= 0) {
    here = probe_median();
    if (here <= fastest_ * (1.0 + kCalmTolerance)) {
      fastest_ = std::min(fastest_, here);
      return here;
    }
  }
  const auto by_probe = survey();
  // A move leaves the services' hot data in the old vCPU's caches, so it
  // has to buy more than kCalmTolerance.
  if (current_ >= 0 && by_probe.front().first * (1.0 + kCalmTolerance) >= here) {
    pin({current_});
    return here;
  }
  current_ = by_probe.front().second;
  pin({current_});
  return by_probe.front().first;
}

double CalmPlacement::settle_many(std::size_t k) {
  chosen_.clear();
  if (cpus_.size() <= k) return host_probe_us();
  const auto by_probe = survey();
  for (std::size_t i = 0; i < k; ++i) chosen_.push_back(by_probe[i].second);
  ++generation_;
  next_worker_.store(0, std::memory_order_relaxed);
  current_ = -1;
  pin(chosen_);
  return by_probe[k - 1].first;
}

void CalmPlacement::pin_worker() {
  thread_local std::uint64_t pinned_generation = 0;
  if (chosen_.empty() || pinned_generation == generation_) return;
  pinned_generation = generation_;
  const std::size_t slot =
      next_worker_.fetch_add(1, std::memory_order_relaxed) % chosen_.size();
  pin({chosen_[slot]});
}

std::vector<std::size_t> calm_blocks(const std::vector<double>& probe_us,
                                     const std::vector<std::size_t>& sizes,
                                     std::size_t min_samples) {
  std::vector<std::size_t> order(probe_us.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(),
                   [&probe_us](std::size_t a, std::size_t b) {
                     return probe_us[a] < probe_us[b];
                   });
  std::vector<std::size_t> kept;
  if (order.empty()) return kept;
  const double calm = probe_us[order.front()] * (1.0 + kCalmTolerance);
  std::size_t total = 0;
  for (std::size_t n : sizes) total += n;
  min_samples = std::max(
      min_samples,
      static_cast<std::size_t>(kCalmShare * static_cast<double>(total)));
  std::size_t samples = 0;
  for (std::size_t k : order) {
    if (probe_us[k] > calm && samples >= min_samples) break;
    kept.push_back(k);
    samples += sizes[k];
  }
  return kept;
}

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace perfbench
