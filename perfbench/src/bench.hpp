// raysched benchmark driver: shared plumbing for the workloads.
//
// The driver links the raysched library and measures each layer from
// outside, by timing calls into that layer's public functions. Nothing here
// is compiled into the library; see perfbench/README.md for the method.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced sizes for the benchmark's own tests.
  bool smoke = false;
  /// Name of one output check to feed a deliberately wrong expectation.
  std::string break_check;
  /// Where the traced run writes its spans (empty: keep them in memory).
  std::string trace_out;
};

/// Output checks. A failed check fails the whole run. `wrong(name)` tells a
/// call site to corrupt its expected value, so the benchmark's own tests can
/// prove that every check trips.
class Checks {
 public:
  explicit Checks(std::string broken) : broken_(std::move(broken)) {}

  [[nodiscard]] bool wrong(const std::string& name) {
    seen_.insert(name);
    return name == broken_;
  }
  void require(const std::string& name, bool ok, const std::string& detail);

  [[nodiscard]] bool all_ok() const { return failures_ == 0; }
  /// True if `--break-check` named a check this run never evaluated.
  [[nodiscard]] bool broken_unknown() const {
    return !broken_.empty() && seen_.count(broken_) == 0;
  }

 private:
  std::string broken_;
  std::set<std::string> seen_;
  int failures_ = 0;
};

/// What one run prints as its last line.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void print_json(std::uint64_t attempted, std::uint64_t failed,
                  bool correct) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// One traced interval at a layer boundary. Spans of one request (a slot or
/// a cell) share `request`; `parent` is the index of the causing span, or
/// -1 for a root.
struct Span {
  const char* name;
  std::uint64_t request;
  std::int64_t parent;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// In-memory span store; written once, at exit.
class Trace {
 public:
  Trace() : origin_(Clock::now()) {}
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  std::int64_t add(const char* name, std::uint64_t request,
                   std::int64_t parent, std::int64_t start_ns,
                   std::int64_t end_ns) {
    spans_.push_back({name, request, parent, start_ns, end_ns});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// JSON lines, one span each. Returns false on a write error.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Interpolated percentile, p in [0, 1]. Sorts `v` in place.
[[nodiscard]] double percentile(std::vector<double>& v, double p);
[[nodiscard]] double median(std::vector<double> v);
/// Set-up times: the fastest decile across a run's builds. A build lasts
/// longer than the calm stretches host_probe_us() finds, so the builds are
/// not sorted by probe; the fastest of them ran in the calm ones.
[[nodiscard]] inline double fast_decile_time(std::vector<double> v) {
  return percentile(v, 0.1);
}

// Host contention. On the shared host, floating-point work (libm exp/log,
// the bulk of the traffic draw, the fading draws and the gain matrix) slows
// by up to 1.9x in episodes from a millisecond to minutes, each vCPU on its
// own, while integer-only code barely notices: the mark of a co-tenant on
// the same physical core.
// A median over a run flips between the regimes, and so does a fixed
// quantile once the calm share of a run changes. So every timed block is
// bracketed by host_probe_us(), a fixed libm loop that shares no code with
// raysched and slows with the same episodes, and a run's timings are
// summarised over the blocks the probe calls calm. A code change moves
// every block, calm or not, so it still shows in full.

/// Times a fixed loop of 1000 std::exp calls (about 5 us uncontended). The
/// contention flickers at the millisecond scale, so a block is rated by
/// probes taken no more than about a millisecond from its samples, and by
/// more than one.
[[nodiscard]] double host_probe_us();
/// A calm block's probe is within this share of the run's lowest.
inline constexpr double kCalmTolerance = 0.05;
/// The calm blocks hold at least this share of a run's samples, so a brief
/// dip in contention cannot leave a percentile with a handful of blocks.
inline constexpr double kCalmShare = 0.10;
/// Indices of the calm blocks: those whose rating probe_us[k], from the
/// probes taken around or during block k, is within kCalmTolerance of the
/// lowest. If they hold fewer than kCalmShare of all samples (sizes[k] in
/// block k), or fewer than `min_samples`, the next calmest blocks join, in
/// order of rating, until they do or none are left.
[[nodiscard]] std::vector<std::size_t> calm_blocks(
    const std::vector<double>& probe_us, const std::vector<std::size_t>& sizes,
    std::size_t min_samples);
/// Keeps the measuring thread on calm vCPUs. A co-tenant contends for one
/// physical core at a time, so while one vCPU is slow another is usually
/// calm: on the 4-vCPU host, all four probed slow at once in about one
/// 200 ms window in ten, a single one in about one in two.
class CalmPlacement {
 public:
  /// Remembers the calling thread's CPU set; without one, never moves it.
  CalmPlacement();
  /// Gives the calling thread its original CPU set back.
  ~CalmPlacement();
  CalmPlacement(const CalmPlacement&) = delete;
  CalmPlacement& operator=(const CalmPlacement&) = delete;

  /// Pins the calling thread to one vCPU: the current one while its probe
  /// stays within kCalmTolerance of the fastest probe seen, or while no
  /// other allowed vCPU probes more than kCalmTolerance faster; otherwise
  /// the fastest. Returns the probe where it ends up.
  double settle();
  /// Chooses the `k` allowed vCPUs with the fastest probes for the worker
  /// threads the caller is about to start, and restricts the caller, and so
  /// the threads it creates, to them. Returns the slowest chosen probe.
  double settle_many(std::size_t k);
  /// Called on a worker thread: pins it, on its first call since the last
  /// settle_many(), to the next chosen vCPU, so k workers get k distinct
  /// vCPUs. Left to itself the kernel kept two new workers on one vCPU for
  /// seconds after the other had been idle.
  void pin_worker();

 private:
  /// Probes every allowed vCPU, fastest first: (probe, cpu).
  std::vector<std::pair<double, int>> survey();
  void pin(const std::vector<int>& cpus);

  std::vector<int> cpus_;  ///< the original CPU set
  int current_ = -1;       ///< the single vCPU pinned to, or -1
  double fastest_ = 0.0;   ///< fastest probe seen (0: none yet)
  std::vector<int> chosen_;  ///< settle_many()'s vCPUs
  std::uint64_t generation_ = 0;  ///< settle_many() calls so far
  std::atomic<std::size_t> next_worker_{0};
};
/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mib();
/// Heap allocations made by this process so far (counting operator new).
[[nodiscard]] std::uint64_t alloc_count();

/// Everything a workload hands back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Repeats timed passes until the run's time budget is spent: the first pass
/// always runs, another only if the last one would still fit.
class Budget {
 public:
  explicit Budget(double seconds) : seconds_(seconds), start_(Clock::now()) {}
  [[nodiscard]] bool another(double last_pass_s, int passes_done) const {
    return passes_done == 0 || seconds_since(start_) + last_pass_s <= seconds_;
  }

 private:
  double seconds_;
  Clock::time_point start_;
};

/// A serve workload: one paper-geometry network driven through
/// serve::Service with max-weight scheduling and an inline agent.
struct ServeWorkload {
  std::size_t links = 4096;
  bool rayleigh = false;
  double rate = 0.1;  ///< Poisson arrivals per active link per slot
  double churn_leave = 0.0;
  double churn_join = 0.0;
  std::uint64_t slots = 4096;  ///< timed slots per untraced segment
  std::uint64_t chunk = 64;    ///< slots per run(N) call; divides `slots`
  std::uint64_t traced_slots = 8192;  ///< a multiple of `chunk`
};

/// A Fig-1 Monte-Carlo grid run through sim::run_experiment, at 2 engine
/// threads and serially.
struct McWorkload {
  std::size_t networks = 20;  ///< per pass
  std::size_t trials = 200;  ///< per network; trial t uses q-grid point t % 20
};

// Untraced runs fill `result` with the end-to-end metrics; traced runs with
// per-layer metrics. Every run records its output checks in `checks`.
Outcome serve_untraced(const ServeWorkload& w, const Options& opt,
                       Checks& checks, Result& result);
Outcome serve_traced(const ServeWorkload& w, const Options& opt,
                     Checks& checks, Result& result, Trace& trace);
Outcome mc_untraced(const McWorkload& w, const Options& opt, Checks& checks,
                    Result& result);
Outcome mc_traced(const McWorkload& w, const Options& opt, Checks& checks,
                  Result& result, Trace& trace);

}  // namespace perfbench
