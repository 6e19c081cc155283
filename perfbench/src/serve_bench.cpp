// The serve workloads: serve::Service driven in-process, slot by slot.
//
// Untraced run, repeated in segments until the time budget is spent. Each
// segment builds two fresh services and runs kWarmup untimed slots on both,
// then `slots` timed slots in chunks, alternating between them:
//   * one runs each chunk as a single timed run(chunk) call (throughput);
//   * the other runs the chunk as timed run(1) calls (per-slot latency).
// Both must end on the same trajectory hash and served count. Each chunk
// and each build starts on a calm vCPU (CalmPlacement). Host probes around
// each run(chunk) call and after every kProbeSlots run(1) calls rate them;
// throughput is taken over the calm run(chunk) calls and latency
// percentiles over the calm groups of run(1) calls (bench.hpp).
//
// Traced run: three services in lockstep chunks. An untraced run(chunk) one
// and an untraced run(1) one are the baselines for run(1) overhead and
// tracing overhead. The traced one runs run(1) per slot and, between slots
// and outside the timed spans, reads Service::snapshot() to find recompute
// submits and replays each one through SchedulePolicy::compute, draws a
// mirror TrafficGenerator on the same active mask, and evaluates SINR on the
// adopted schedule's live subset.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "model/generator.hpp"
#include "model/network.hpp"
#include "model/rayleigh.hpp"
#include "model/sinr.hpp"
#include "serve/schedule_policy.hpp"
#include "serve/service.hpp"
#include "serve/traffic.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace raysched;

constexpr double kBeta = 2.5;
constexpr std::uint64_t kWarmup = 64;  ///< untimed slots before timing
/// run(1) calls between host probes.
constexpr std::size_t kProbeSlots = 8;
/// The calm run(1) groups hold at least this many slots, the calm run(chunk)
/// calls at least this many calls (bench.hpp).
constexpr std::size_t kCalmSamples = 2048;
constexpr std::size_t kCalmCalls = 32;
// Streams for the benchmark's own inputs, all derived from --seed.
constexpr std::uint64_t kNetworkTag = 0x4E37;
constexpr std::uint64_t kMirrorTrafficTag = 0x3112;
constexpr std::uint64_t kMirrorFadingTag = 0x3113;

model::Network make_network(std::size_t n, std::uint64_t seed) {
  util::RngStream rng = util::RngStream(seed).derive(kNetworkTag);
  model::RandomPlaneParams params;
  params.num_links = n;
  auto links = model::random_plane_links(params, rng);
  return model::Network(std::move(links), model::PowerAssignment::uniform(2.0),
                        2.2, units::Power(4e-7));
}

serve::ServeConfig make_config(const ServeWorkload& w, std::uint64_t seed) {
  serve::ServeConfig c;
  c.master_seed = seed;
  c.beta = units::Threshold(kBeta);
  c.propagation = w.rayleigh ? core::Propagation::Rayleigh
                             : core::Propagation::NonFading;
  c.traffic.model = serve::TrafficModel::Poisson;
  c.traffic.mean_rate = w.rate;
  c.churn_leave = units::Probability(w.churn_leave);
  c.churn_join = units::Probability(w.churn_join);
  c.recompute_period = 8;
  c.agent_threads = 1;  // inline recompute: its cost lands in the slot
  c.policy = serve::PolicyKind::MaxWeight;
  return c;
}

/// Expected packets offered over slots [0, total). Every link starts
/// active; each slot applies churn, then draws Poisson(rate) per active
/// link, so the active fraction relaxes geometrically to join/(leave+join).
double expected_arrivals(const ServeWorkload& w, std::uint64_t total) {
  const double n = static_cast<double>(w.links);
  const double churn = w.churn_leave + w.churn_join;
  double active_slots = 0.0;
  if (churn == 0.0) {
    active_slots = n * static_cast<double>(total);
  } else {
    const double settled = w.churn_join / churn;
    double decay = 1.0 - churn;  // after slot 0's churn draw
    for (std::uint64_t s = 0; s < total; ++s) {
      active_slots += n * (settled + (1.0 - settled) * decay);
      decay *= 1.0 - churn;
    }
  }
  return w.rate * active_slots;
}

struct Built {
  std::unique_ptr<serve::Service> service;
  double network_s = 0.0;
  double service_s = 0.0;
};

Built build(const ServeWorkload& w, std::uint64_t seed) {
  Built b;
  const auto t0 = Clock::now();
  model::Network net = make_network(w.links, seed);
  b.network_s = seconds_since(t0);
  const auto t1 = Clock::now();
  b.service =
      std::make_unique<serve::Service>(std::move(net), make_config(w, seed));
  b.service_s = seconds_since(t1);
  return b;
}

/// What a pass leaves behind for the checks.
struct PassEnd {
  std::uint64_t hash = 0;
  std::uint64_t served = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t submits = 0;
  std::uint64_t failed = 0;
  bool conservation = false;
};

PassEnd pass_end(const serve::ServeReport& r) {
  PassEnd e;
  e.hash = r.trajectory_hash;
  e.served = r.served;
  e.arrivals = r.arrivals;
  e.failed = r.recompute_failures + r.recompute_timeouts;
  e.submits = r.recompute_adoptions + e.failed;
  e.conservation = r.conservation_ok;
  return e;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

/// The checks every pair of passes must pass: both conserve packets, the
/// run(N) and run(1) passes agree, arrivals match the configured load, and
/// every repeat reproduces the first.
void check_passes(Checks& checks, const ServeWorkload& w, const PassEnd& a,
                  const PassEnd& b, std::uint64_t first_hash,
                  std::uint64_t total_slots) {
  const bool want_conserved = !checks.wrong("conservation");
  checks.require("conservation",
                 a.conservation == want_conserved &&
                     b.conservation == want_conserved,
                 "conservation_ok on both passes");

  std::uint64_t want_hash = b.hash;
  if (checks.wrong("trajectory_hash")) want_hash ^= 1;
  checks.require("trajectory_hash", a.hash == want_hash,
                 "run(N) " + hex(a.hash) + " vs run(1) " + hex(b.hash));

  std::uint64_t want_served = b.served;
  if (checks.wrong("served")) ++want_served;
  checks.require("served", a.served == want_served,
                 std::to_string(a.served) + " vs " + std::to_string(b.served));

  std::uint64_t want_repeat = first_hash;
  if (checks.wrong("repeatable")) want_repeat ^= 1;
  checks.require("repeatable", a.hash == want_repeat,
                 "same seed, same trajectory on every repeat");

  // Arrivals are Poisson with the expected mean to well within 5 sigma;
  // churn adds a variance far below the Poisson term at these sizes.
  double expect = expected_arrivals(w, total_slots);
  if (checks.wrong("offered_load")) expect *= 1.5;
  const double z = (static_cast<double>(a.arrivals) - expect) / std::sqrt(expect);
  std::ostringstream detail;
  detail << a.arrivals << " arrivals, expected " << expect << ", z=" << z;
  checks.require("offered_load", std::fabs(z) < 5.0, detail.str());
}

}  // namespace

Outcome serve_untraced(const ServeWorkload& w, const Options& opt,
                       Checks& checks, Result& result) {
  Outcome out;
  struct Chunk {
    double n_seconds;             ///< the run(chunk) call
    std::vector<double> slot_us;  ///< every run(1) call
    /// Host probes: before and after the run(chunk) call, then after every
    /// kProbeSlots run(1) calls. Group g of run(1) calls lies between
    /// probe_us[g + 1] and probe_us[g + 2].
    std::vector<double> probe_us;
  };
  std::vector<Chunk> chunks;
  std::vector<double> setup_s;
  std::uint64_t first_hash = 0;
  std::uint64_t served_window = 0;
  CalmPlacement placement;
  Budget budget(opt.seconds);
  double last_segment_s = 0.0;
  for (int segment = 0; budget.another(last_segment_s, segment); ++segment) {
    const auto t_segment = Clock::now();
    (void)placement.settle();
    Built bn = build(w, opt.seed);
    (void)placement.settle();
    Built b1 = build(w, opt.seed);
    setup_s.push_back(bn.network_s + bn.service_s);
    setup_s.push_back(b1.network_s + b1.service_s);
    serve::Service& by_n = *bn.service;
    serve::Service& by_1 = *b1.service;
    const serve::ServeReport warm = by_n.run(kWarmup);
    (void)by_1.run(kWarmup);
    // The two services advance in lockstep, one chunk at a time, so both
    // passes see the same host conditions.
    serve::ServeReport rep_n, rep_1;
    for (std::uint64_t done = 0; done < w.slots; done += w.chunk) {
      Chunk c;
      c.slot_us.reserve(w.chunk);
      c.probe_us.push_back(placement.settle());
      const auto t0 = Clock::now();
      rep_n = by_n.run(w.chunk);
      c.n_seconds = seconds_since(t0);
      c.probe_us.push_back(host_probe_us());
      for (std::uint64_t s = 0; s < w.chunk; ++s) {
        if (s % kProbeSlots == 0 && s > 0) {
          c.probe_us.push_back(host_probe_us());
        }
        const auto t1 = Clock::now();
        rep_1 = by_1.run(1);
        c.slot_us.push_back(seconds_since(t1) * 1e6);
      }
      c.probe_us.push_back(host_probe_us());
      chunks.push_back(std::move(c));
    }
    const PassEnd a = pass_end(rep_n);
    if (segment == 0) {
      first_hash = a.hash;
      served_window = rep_n.served - warm.served;
    }
    const PassEnd b = pass_end(rep_1);
    check_passes(checks, w, a, b, first_hash, kWarmup + w.slots);
    out.attempted += a.submits + b.submits;
    out.failed += a.failed + b.failed;
    last_segment_s = seconds_since(t_segment);
  }

  // Each run(chunk) call, and each group of kProbeSlots run(1) calls, is
  // rated by the mean of the probes on either side of it.
  std::vector<double> call_probe_us, group_probe_us;
  std::vector<std::size_t> call_size, group_size;
  std::vector<const double*> group_first;
  for (const Chunk& c : chunks) {
    call_probe_us.push_back(0.5 * (c.probe_us[0] + c.probe_us[1]));
    call_size.push_back(1);
    for (std::size_t g = 0; g * kProbeSlots < c.slot_us.size(); ++g) {
      group_probe_us.push_back(0.5 * (c.probe_us[g + 1] + c.probe_us[g + 2]));
      group_size.push_back(
          std::min(kProbeSlots, c.slot_us.size() - g * kProbeSlots));
      group_first.push_back(&c.slot_us[g * kProbeSlots]);
    }
  }
  const std::vector<std::size_t> calm_calls =
      calm_blocks(call_probe_us, call_size, kCalmCalls);
  double calm_n_seconds = 0.0;
  for (std::size_t k : calm_calls) calm_n_seconds += chunks[k].n_seconds;
  const std::vector<std::size_t> calm_groups =
      calm_blocks(group_probe_us, group_size, kCalmSamples);
  std::vector<double> lat;
  for (std::size_t k : calm_groups) {
    lat.insert(lat.end(), group_first[k], group_first[k] + group_size[k]);
  }
  std::cerr << "serve: " << calm_calls.size() << " of " << chunks.size()
            << " run(" << w.chunk << ") calls and " << calm_groups.size()
            << " of " << group_first.size()
            << " run(1) groups calm (lowest probe rating "
            << group_probe_us[calm_groups.front()] << " us)\n";
  const double p99 = percentile(lat, 0.99);
  const auto beyond = static_cast<std::size_t>(
      std::count_if(lat.begin(), lat.end(), [p99](double v) { return v > p99; }));
  const std::size_t want_beyond = checks.wrong("p99_support") ? lat.size() : 10;
  checks.require("p99_support", beyond >= want_beyond,
                 std::to_string(beyond) + " of " + std::to_string(lat.size()) +
                     " slot samples beyond p99");

  result.metric("setup_s", fast_decile_time(setup_s), "s");
  result.metric("throughput_per_s",
                static_cast<double>(calm_calls.size() * w.chunk) /
                    calm_n_seconds,
                "1/s");
  result.metric("latency_p50_us", percentile(lat, 0.50), "us");
  result.metric("latency_p99_us", p99, "us");
  result.metric("successes_per_step",
                static_cast<double>(served_window) /
                    static_cast<double>(w.slots),
                "count");
  result.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  return out;
}

Outcome serve_traced(const ServeWorkload& w, const Options& opt,
                     Checks& checks, Result& result, Trace& trace) {
  Outcome out;
  const std::uint64_t T = w.traced_slots;
  std::vector<double> network_s, service_s;

  // Untraced baselines: a run(chunk) service and a run(1) service, advanced
  // in lockstep with the traced service so all three see the same host.
  Built bn = build(w, opt.seed);
  Built b1 = build(w, opt.seed);
  network_s.push_back(bn.network_s);
  network_s.push_back(b1.network_s);
  service_s.push_back(bn.service_s);
  service_s.push_back(b1.service_s);

  // The traced pass.
  const auto t_net = Clock::now();
  model::Network net = make_network(w.links, opt.seed);
  const auto t_svc = Clock::now();
  serve::Service svc(std::move(net), make_config(w, opt.seed));
  const auto t_done = Clock::now();
  trace.add("model.Network", 0, -1, trace.ns(t_net), trace.ns(t_svc));
  trace.add("serve.Service", 0, -1, trace.ns(t_svc), trace.ns(t_done));
  network_s.push_back(std::chrono::duration<double>(t_svc - t_net).count());
  service_s.push_back(std::chrono::duration<double>(t_done - t_svc).count());

  const serve::ServeConfig& cfg = svc.config();
  const model::Network& snet = svc.network();
  serve::TrafficGenerator mirror(cfg.traffic, snet.size());
  const util::RngStream mirror_traffic =
      util::RngStream(opt.seed).derive(kMirrorTrafficTag);
  const util::RngStream mirror_fading =
      util::RngStream(opt.seed).derive(kMirrorFadingTag);
  const std::unique_ptr<serve::SchedulePolicy> policy =
      serve::make_schedule_policy(serve::PolicyKind::MaxWeight, snet,
                                  cfg.beta);

  const serve::ServeReport warm_n = bn.service->run(kWarmup);
  (void)b1.service->run(kWarmup);
  (void)svc.run(kWarmup);
  serve::ServeReport rep_n, rep_1;
  double n_seconds = 0.0, run1_seconds = 0.0, backlog_sum = 0.0;
  std::vector<double> floor_us, recompute_us, traffic_us, compute_us, sinr_us;
  std::vector<std::uint32_t> arrivals;
  std::vector<double> sinr;
  model::LinkSet live;
  std::uint64_t allocs = 0, overloaded = 0, drawn = 0, arrived = 0;
  std::uint64_t candidates = 0, selected = 0, attempts = 0, successes = 0;
  std::uint64_t replays_checked = 0, replays_equal = 0;
  double min_certified_sinr = INFINITY;
  double traced_run1_s = 0.0;
  struct Pending {
    std::uint64_t due;
    model::LinkSet schedule;
  };
  std::optional<Pending> pending;
  serve::ServeReport last;

  for (std::uint64_t k = 0; k < T; ++k) {
    if (k % w.chunk == 0) {
      const auto t0 = Clock::now();
      rep_n = bn.service->run(w.chunk);
      n_seconds += seconds_since(t0);
      for (const serve::SlotDigest& d : rep_n.digests) {
        backlog_sum += static_cast<double>(d.backlog);
      }
      for (std::uint64_t s = 0; s < w.chunk; ++s) {
        const auto t1 = Clock::now();
        rep_1 = b1.service->run(1);
        run1_seconds += seconds_since(t1);
      }
    }
    const std::uint64_t slot = svc.next_slot();
    const std::uint64_t a0 = alloc_count();
    const auto t0 = Clock::now();
    last = svc.run(1);
    const auto t1 = Clock::now();
    allocs += alloc_count() - a0;
    const double run1_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    traced_run1_s += run1_us * 1e-6;
    const std::int64_t root =
        trace.add("serve.run1", slot, -1, trace.ns(t0), trace.ns(t1));
    if (last.digests.at(0).health == serve::HealthState::Overloaded) {
      ++overloaded;
    }

    // Everything below is outside the slot span.
    const serve::ServeSnapshot snap = svc.snapshot();
    if (pending && slot == pending->due) {
      // The service prunes links that left while the recompute was in
      // flight; the replayed schedule minus those must be what it adopted.
      model::LinkSet expect;
      for (model::LinkId id : pending->schedule) {
        if (snap.departed_flags[id] == 0) expect.push_back(id);
      }
      if (checks.wrong("replay_schedule")) expect.push_back(snet.size());
      ++replays_checked;
      if (expect == snap.schedule) ++replays_equal;
      pending.reset();
    }
    const bool submit =
        snap.recompute.in_flight && snap.recompute.submit_slot == slot;
    (submit ? recompute_us : floor_us).push_back(run1_us);

    util::RngStream trng = mirror_traffic.derive(slot);
    std::int64_t s0 = trace.now_ns();
    mirror.arrivals(trng, snap.active, arrivals);
    std::int64_t s1 = trace.now_ns();
    trace.add("serve.TrafficGenerator::arrivals", slot, root, s0, s1);
    traffic_us.push_back(static_cast<double>(s1 - s0) * 1e-3);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      drawn += snap.active[i] != 0 ? 1 : 0;
      arrived += arrivals[i];
    }

    if (submit) {
      serve::ScheduleRequest request;
      request.slot = slot;
      request.weights = snap.recompute.weights;
      request.departed.assign(snap.recompute.departed.begin(),
                              snap.recompute.departed.end());
      s0 = trace.now_ns();
      serve::PolicyResult r = policy->compute(request);
      s1 = trace.now_ns();
      trace.add("algorithms.SchedulePolicy::compute", slot, root, s0, s1);
      compute_us.push_back(static_cast<double>(s1 - s0) * 1e-3);
      candidates += static_cast<std::uint64_t>(
          std::count_if(request.weights.begin(), request.weights.end(),
                        [](double x) { return x > 0.0; }));
      selected += r.schedule.size();
      pending = Pending{slot + snap.recompute.latency_slots,
                        std::move(r.schedule)};
    }

    // The adopted schedule's live subset: scheduled, active, backlogged.
    live.clear();
    for (std::size_t id : snap.schedule) {
      if (snap.active[id] != 0 && snap.queues[id] > 0) live.push_back(id);
    }
    if (!live.empty()) {
      s0 = trace.now_ns();
      if (w.rayleigh) {
        util::RngStream frng = mirror_fading.derive(slot);
        model::sinr_rayleigh_all(snet, live, frng, sinr);
      } else {
        model::sinr_nonfading_all(snet, live, sinr);
      }
      s1 = trace.now_ns();
      trace.add(w.rayleigh ? "model.sinr_rayleigh_all"
                           : "model.sinr_nonfading_all",
                slot, root, s0, s1);
      sinr_us.push_back(static_cast<double>(s1 - s0) * 1e-3);
      attempts += live.size();
      for (double v : sinr) {
        if (v >= kBeta) ++successes;
        min_certified_sinr = std::min(min_certified_sinr, v);
      }
    }
  }

  const PassEnd base_n = pass_end(rep_n);
  const PassEnd base_1 = pass_end(rep_1);
  check_passes(checks, w, base_n, base_1, base_n.hash, kWarmup + T);
  const PassEnd traced = pass_end(last);
  std::uint64_t want_hash = base_1.hash;
  if (checks.wrong("trace_passive")) want_hash ^= 1;
  checks.require("trace_passive",
                 traced.hash == want_hash && traced.conservation,
                 "traced pass reproduces the untraced trajectory");
  checks.require("replay_schedule",
                 replays_checked > 0 && replays_equal == replays_checked,
                 std::to_string(replays_equal) + " of " +
                     std::to_string(replays_checked) +
                     " replayed schedules equal the adopted ones");
  if (!w.rayleigh) {
    // Max-weight schedules are feasibility-certified: without fading every
    // live link clears beta.
    const double floor = checks.wrong("certified_sinr") ? INFINITY : kBeta;
    std::ostringstream detail;
    detail << "min live SINR " << min_certified_sinr << " vs beta " << kBeta;
    checks.require("certified_sinr", attempts > 0 && min_certified_sinr >= floor,
                   detail.str());
  }
  double mirror_expect = w.rate * static_cast<double>(drawn);
  if (checks.wrong("mirror_offered_load")) mirror_expect *= 1.5;
  const double mirror_z = (static_cast<double>(arrived) - mirror_expect) /
                          std::sqrt(mirror_expect);
  checks.require("mirror_offered_load", std::fabs(mirror_z) < 5.0,
                 "mirror generator z=" + std::to_string(mirror_z));

  out.attempted = traced.submits;
  out.failed = traced.failed;

  const double slots = static_cast<double>(T);
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  result.metric("model.network_build_s", median(network_s), "s");
  result.metric("serve.service_build_s", median(service_s), "s");
  result.metric("serve.slot_floor_p50_us", percentile(floor_us, 0.50), "us");
  result.metric("serve.slot_floor_p99_us", percentile(floor_us, 0.99), "us");
  result.metric("serve.slot_recompute_p50_us",
                percentile(recompute_us, 0.50), "us");
  result.metric("serve.slot_recompute_p99_us",
                percentile(recompute_us, 0.99), "us");
  result.metric("serve.traffic_us", median(traffic_us), "us");
  result.metric("serve.traffic_links_drawn_per_slot",
                static_cast<double>(drawn) / slots, "count");
  result.metric("serve.traffic_arrivals_per_slot",
                static_cast<double>(arrived) / slots, "count");
  result.metric("serve.allocs_per_slot", static_cast<double>(allocs) / slots,
                "count");
  result.metric("serve.overloaded_slot_frac",
                static_cast<double>(overloaded) / slots, "ratio");
  result.metric("serve.recompute_failed", static_cast<double>(traced.failed),
                "count");
  result.metric("serve.run1_overhead_us",
                (run1_seconds - n_seconds) / slots * 1e6, "us");
  // Little's law on the run(chunk) service: mean backlog / admitted per slot.
  result.metric("serve.mean_delay_slots",
                per(backlog_sum / slots,
                    static_cast<double>(rep_n.admitted - warm_n.admitted) /
                        slots),
                "slots");
  result.metric("serve.trace_slowdown", traced_run1_s / run1_seconds,
                "ratio");
  result.metric("algorithms.recompute_p50_us", percentile(compute_us, 0.50),
                "us");
  result.metric("algorithms.recompute_p99_us", percentile(compute_us, 0.99),
                "us");
  const double recomputes = static_cast<double>(compute_us.size());
  result.metric("algorithms.candidates_per_recompute",
                per(static_cast<double>(candidates), recomputes), "count");
  result.metric("algorithms.selected_per_recompute",
                per(static_cast<double>(selected), recomputes), "count");
  result.metric("algorithms.selected_per_candidate",
                per(static_cast<double>(selected),
                    static_cast<double>(candidates)),
                "ratio");
  result.metric("model.sinr_us", median(sinr_us), "us");
  result.metric("model.live_links_per_slot",
                static_cast<double>(attempts) / slots, "count");
  result.metric("model.success_per_attempt",
                per(static_cast<double>(successes),
                    static_cast<double>(attempts)),
                "ratio");
  std::cerr << "traced serve pass: " << slots << " slots, "
            << compute_us.size() << " recomputes replayed, "
            << trace.size() << " spans\n";
  return out;
}

}  // namespace perfbench
