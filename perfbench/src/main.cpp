// raysched_perfbench: the repository benchmark's measuring process.
//
//   raysched_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                      [--smoke] [--break-check <check>] [--trace-out <path>]
//
// Workloads: serve-saturated, serve-stable-rayleigh, mc-fig1. With --trace 0
// the last stdout line is a JSON object with the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics. perfbench/README.md explains
// the workloads, the metrics and the checks.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

struct Workload {
  ServeWorkload serve;
  McWorkload mc;
  bool is_serve = true;  ///< false: the Monte-Carlo grid is the workload
};

/// The workloads. A traced run also measures the other half at a small
/// companion size, so every per-layer metric is present on every workload.
std::map<std::string, Workload> workloads(bool smoke) {
  ServeWorkload saturated;  // n=4096, NonFading, lambda=0.1, no churn
  ServeWorkload stable;
  stable.rayleigh = true;
  stable.rate = 0.001;
  stable.churn_leave = 5e-4;
  stable.churn_join = 0.02;
  ServeWorkload serve_companion = stable;
  serve_companion.links = 100;
  serve_companion.rate = 0.02;
  McWorkload fig1;  // 20 networks x 200 cells per pass
  McWorkload mc_companion;
  mc_companion.networks = 4;
  if (smoke) {
    for (ServeWorkload* s : {&saturated, &stable, &serve_companion}) {
      if (s->links > 256) s->links = 256;
      s->slots = 1024;
      s->chunk = 256;
      s->traced_slots = 1024;
    }
    fig1.networks = 4;
    fig1.trials = 300;  // 1200 serial cells: >= 10 beyond p99
    mc_companion.networks = 2;
    mc_companion.trials = 100;
  }
  return {{"serve-saturated", {saturated, mc_companion, true}},
          {"serve-stable-rayleigh", {stable, mc_companion, true}},
          {"mc-fig1", {serve_companion, fig1, false}}};
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "raysched_perfbench: " << msg
            << "\nusage: raysched_perfbench --workload <serve-saturated|"
               "serve-stable-rayleigh|mc-fig1> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--break-check <check>] "
               "[--trace-out <path>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (eq == std::string::npos) {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      value = argv[++i];
    }
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (arg == "--break-check") {
        opt.break_check = value;
      } else if (arg == "--trace-out") {
        opt.trace_out = value;
      } else {
        usage_error("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + arg + ": " + value);
    }
  }
  if (opt.workload.empty()) usage_error("--workload is required");
  if (!(opt.seconds > 0.0)) usage_error("--seconds must be positive");
  return opt;
}

int run(const Options& opt) {
  const auto all = workloads(opt.smoke);
  const auto it = all.find(opt.workload);
  if (it == all.end()) usage_error("unknown workload " + opt.workload);
  const Workload& w = it->second;

  Checks checks(opt.break_check);
  Result result;
  Outcome total;
  const auto add = [&total](const Outcome& o) {
    total.attempted += o.attempted;
    total.failed += o.failed;
  };
  if (opt.trace) {
    Trace trace;
    add(serve_traced(w.serve, opt, checks, result, trace));
    add(mc_traced(w.mc, opt, checks, result, trace));
    if (!opt.trace_out.empty() && !trace.write(opt.trace_out)) {
      std::cerr << "raysched_perfbench: cannot write " << opt.trace_out
                << "\n";
      return 1;
    }
  } else if (w.is_serve) {
    add(serve_untraced(w.serve, opt, checks, result));
  } else {
    add(mc_untraced(w.mc, opt, checks, result));
  }

  if (checks.broken_unknown()) {
    std::cerr << "raysched_perfbench: --break-check names no check of this "
                 "run: "
              << opt.break_check << "\n";
    return 2;
  }
  const bool correct = checks.all_ok();
  // A failed output check fails the whole run.
  if (!correct) total.failed = total.attempted;
  result.print_json(total.attempted, total.failed, correct);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "raysched_perfbench: " << e.what() << "\n";
    return 1;
  }
}
