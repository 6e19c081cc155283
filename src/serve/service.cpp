#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/latency_transform.hpp"
#include "model/rayleigh.hpp"
#include "model/sinr.hpp"
#include "util/fp.hpp"
#include "util/rng.hpp"
#include "util/saturate.hpp"

namespace raysched::serve {

namespace {

// Stream tags: every per-slot stream is master.derive(tag).derive(slot), so
// the slot index is the complete RNG position.
constexpr std::uint64_t kTrafficTag = 0x7261FF1C;  // "traffic"
constexpr std::uint64_t kChurnTag = 0xC4012;       // "churn"
constexpr std::uint64_t kFadingTag = 0xFAD1;       // "fading"

}  // namespace

const char* to_string(core::Propagation propagation) {
  switch (propagation) {
    case core::Propagation::NonFading: return "nonfading";
    case core::Propagation::Rayleigh:  return "rayleigh";
  }
  return "unknown";
}

core::Propagation propagation_from_string(const std::string& name) {
  if (name == "nonfading") return core::Propagation::NonFading;
  if (name == "rayleigh") return core::Propagation::Rayleigh;
  throw error("propagation_from_string: unknown propagation '" + name + "'");
}

Service::Service(model::Network net, const ServeConfig& config)
    : net_(std::move(net)),
      config_(config),
      master_(config.master_seed),
      traffic_(config.traffic, net_.size()),
      agent_(net_, config.beta, config.agent_threads, config.policy,
             PolicyOptions{config.ahm, config.master_seed}),
      monitor_(config.health) {
  require(config_.queue_cap >= 1, "Service: queue_cap must be >= 1");
  require(config_.recompute_period >= 1,
          "Service: recompute_period must be >= 1");
  require(config_.recompute_latency >= 1,
          "Service: recompute_latency must be >= 1");
  require(config_.recompute_deadline >= 1,
          "Service: recompute_deadline must be >= 1");
  require(config_.backoff_initial >= 1,
          "Service: backoff_initial must be >= 1");
  require(config_.backoff_max >= config_.backoff_initial,
          "Service: backoff_max must be >= backoff_initial");
  require(std::isfinite(config_.overload_schedule_frac) &&
              config_.overload_schedule_frac > 0.0 &&
              config_.overload_schedule_frac <= 1.0,
          "Service: overload_schedule_frac must be in (0, 1]");
  require(config_.snapshot_period == 0 || !config_.snapshot_path.empty(),
          "Service: snapshot_period needs a snapshot_path");
  state_.master_seed = config_.master_seed;
  state_.num_links = net_.size();
  state_.beta = config_.beta.value();
  state_.propagation = to_string(config_.propagation);
  state_.traffic_model = to_string(config_.traffic.model);
  state_.policy = to_string(agent_.policy().kind());
  state_.queues.assign(net_.size(), 0);
  state_.active.assign(net_.size(), 1);  // every link starts joined
  state_.departed_flags.assign(net_.size(), 0);
  state_.feedback_attempt.assign(net_.size(), 0);
  state_.feedback_success.assign(net_.size(), 0);
}

std::uint64_t Service::total_backlog() const {
  std::uint64_t sum = 0;
  for (std::uint64_t q : state_.queues) sum += q;
  return sum;
}

bool Service::conservation_holds() const {
  return conservation_holds(total_backlog());
}

bool Service::conservation_holds(std::uint64_t backlog) const {
  return state_.arrivals_total ==
         state_.served_total + backlog + state_.drops.total();
}

void Service::bump_backoff(std::uint64_t slot) {
  // Saturating slot algebra: plain `backoff * 2` wraps to 0 after enough
  // consecutive timeout windows and a wrapped `slot + backoff` lands in the
  // past, so the retry loop would spin every slot instead of backing off.
  std::uint64_t& backoff = state_.backoff_slots;
  backoff = backoff == 0
                ? config_.backoff_initial
                : std::min(util::sat_mul(backoff, 2), config_.backoff_max);
  state_.cooldown_until = util::sat_add(slot, backoff);
}

// raysched:hot
void Service::apply_churn(std::uint64_t slot,
                          const std::vector<double>& burst_fracs) {
  const double leave = config_.churn_leave.value();
  const double join = config_.churn_join.value();
  if (burst_fracs.empty() && util::fp::exact_zero(leave) &&
      util::fp::exact_zero(join)) {
    return;
  }
  util::RngStream rng = master_.derive(kChurnTag, slot);

  for (double frac : burst_fracs) {
    std::vector<model::LinkId>& ids = churn_scratch_;
    ids.clear();
    for (model::LinkId i = 0; i < net_.size(); ++i) {
      if (state_.active[i] != 0) ids.push_back(i);
    }
    if (ids.empty()) continue;
    const std::size_t victims = std::min(
        ids.size(),
        static_cast<std::size_t>(
            std::ceil(frac * static_cast<double>(ids.size()))));
    // Partial Fisher-Yates on the active list: the first `victims` entries
    // become a uniform sample without replacement.
    for (std::size_t j = 0; j < victims; ++j) {
      const std::size_t pick =
          j + static_cast<std::size_t>(rng.uniform_index(ids.size() - j));
      std::swap(ids[j], ids[pick]);
      const model::LinkId gone = ids[j];
      state_.active[gone] = 0;
      state_.departed_flags[gone] = 1;
      state_.drops.churn += state_.queues[gone];
      state_.queues[gone] = 0;
    }
  }

  if (util::fp::exact_zero(leave) && util::fp::exact_zero(join)) return;
  for (model::LinkId i = 0; i < net_.size(); ++i) {
    if (state_.active[i] != 0) {
      if (leave > 0.0 && rng.bernoulli(leave)) {
        state_.active[i] = 0;
        state_.departed_flags[i] = 1;
        state_.drops.churn += state_.queues[i];
        state_.queues[i] = 0;
      }
    } else if (join > 0.0 && rng.bernoulli(join)) {
      state_.active[i] = 1;  // rejoins with an empty queue
    }
  }
}

// raysched:hot
std::uint64_t Service::apply_arrivals(std::uint64_t slot) {
  util::RngStream rng = master_.derive(kTrafficTag, slot);
  traffic_.arrivals(rng, state_.active, arrivals_scratch_);

  const HealthState state = monitor_.state();
  const std::uint64_t threshold =
      state == HealthState::Overloaded
          ? std::max<std::uint64_t>(1, config_.queue_cap / 2)
          : config_.queue_cap;
  std::uint64_t offered = 0;
  for (std::size_t i = 0; i < arrivals_scratch_.size(); ++i) {
    const std::uint64_t count = arrivals_scratch_[i];
    if (count == 0) continue;
    offered += count;
    if (state == HealthState::Quarantined) {
      // Quarantine refuses all new work: the network data cannot be
      // trusted, so nothing is promised that might never be served.
      state_.drops.quarantine += count;
      continue;
    }
    const std::uint64_t room =
        state_.queues[i] < threshold ? threshold - state_.queues[i] : 0;
    const std::uint64_t admitted = std::min(count, room);
    state_.queues[i] += admitted;
    state_.admitted_total += admitted;
    const std::uint64_t refused = count - admitted;
    if (state == HealthState::Overloaded) {
      state_.drops.shed += refused;
    } else {
      state_.drops.capacity += refused;
    }
  }
  state_.arrivals_total += offered;
  return offered;
}

void Service::submit_recompute(std::uint64_t slot) {
  const std::size_t n = net_.size();
  const std::vector<std::uint64_t>& queues = state_.queues;
  const std::vector<char>& active = state_.active;
  ScheduleRequest request;
  std::vector<double>& weights = request.weights;
  weights.assign(n, 0.0);
  std::size_t active_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (active[i] != 0) {
      ++active_count;
      weights[i] = static_cast<double>(queues[i]);
    }
  }
  if (monitor_.state() == HealthState::Overloaded && active_count > 0) {
    // Shed load by shrinking the scheduled set: only the heaviest fraction
    // of active queues keeps a nonzero weight (ties broken by link id so
    // the cut is deterministic).
    const std::size_t keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(config_.overload_schedule_frac *
                         static_cast<double>(active_count))));
    heavy_scratch_.clear();
    for (model::LinkId i = 0; i < n; ++i) {
      if (active[i] != 0 && queues[i] > 0) heavy_scratch_.push_back(i);
    }
    if (heavy_scratch_.size() > keep) {
      // Only membership in the top-`keep` matters, not its internal order,
      // and the comparator is a strict total order — so an O(active)
      // nth_element partition keeps exactly the set a full sort would.
      std::nth_element(heavy_scratch_.begin(), heavy_scratch_.begin() + keep,
                       heavy_scratch_.end(),
                       [&queues](model::LinkId a, model::LinkId b) {
                         if (queues[a] != queues[b]) {
                           return queues[a] > queues[b];
                         }
                         return a < b;
                       });
      for (std::size_t r = keep; r < heavy_scratch_.size(); ++r) {
        weights[heavy_scratch_[r]] = 0.0;
      }
    }
  }

  // Churn payload: links gone inactive since the previous submit. The
  // flags reset here to start tracking the new window — while this request
  // is in flight they double as the adoption-time pruning set.
  std::vector<char>& departed = state_.departed_flags;
  for (std::size_t i = 0; i < n; ++i) {
    if (departed[i] != 0) request.departed.push_back(i);
  }
  std::fill(departed.begin(), departed.end(), 0);
  // AHM feedback payload: (id, succeeded) for every link that attempted
  // service since the previous submit.
  std::vector<char>& attempt = state_.feedback_attempt;
  std::vector<char>& success = state_.feedback_success;
  for (std::size_t i = 0; i < n; ++i) {
    if (attempt[i] != 0) {
      request.feedback_schedule.push_back(i);
      request.feedback_success.push_back(success[i]);
    }
  }
  std::fill(attempt.begin(), attempt.end(), 0);
  std::fill(success.begin(), success.end(), 0);

  state_.recompute.poisoned = state_.poison_active;
  state_.recompute.timed_out = false;
  // Captured *before* submit: the exact policy state a kill/restore must
  // replay the resubmitted request onto. Legal here — nothing in flight.
  state_.policy_state = agent_.policy().persisted_state();
  const std::uint64_t latency =
      util::sat_add(config_.recompute_latency, state_.pending_extra_latency);
  state_.pending_extra_latency = 0;
  if (state_.recompute.poisoned) {
    // The scripted poisoned-gain fault: the recompute's weight inputs are
    // corrupted wholesale; the agent's validation boundary must catch it.
    std::fill(weights.begin(), weights.end(),
              std::numeric_limits<double>::quiet_NaN());
  }
  agent_.submit(slot, std::move(request), latency);
}

void Service::manage_recompute(std::uint64_t slot) {
  if (agent_.in_flight()) {
    if (slot >= agent_.due_slot()) {
      RecomputeOutcome outcome = agent_.reap();
      if (state_.recompute.timed_out) {
        // The deadline already passed and was accounted; the overdue result
        // is discarded no matter what it says.
      } else if (outcome.ok) {
        // Stale-weights churn fix: links that departed while the recompute
        // was in flight were weighted by a queue that no longer exists.
        // Prune them from the adopted schedule instead of serving ghosts
        // (or re-serving a rejoined link its stale weight earned).
        std::size_t kept = 0;
        for (std::size_t a = 0; a < outcome.schedule.size(); ++a) {
          const model::LinkId id = outcome.schedule[a];
          if (state_.departed_flags[id] != 0) {
            ++state_.drops.stale_pruned;
          } else {
            outcome.schedule[kept++] = id;
          }
        }
        outcome.schedule.resize(kept);
        state_.schedule = std::move(outcome.schedule);
        expected_rate_ = outcome.expected_rate;
        ++state_.schedule_epoch;
        state_.schedule_stale = false;
        monitor_.on_recompute_ok(slot);
        ++state_.recompute_adoptions;
        state_.backoff_slots = 0;
        state_.cooldown_until = slot;
      } else {
        state_.schedule_stale = true;
        monitor_.on_recompute_error(slot, outcome.code);
        ++state_.recompute_failures;
        bump_backoff(slot);
      }
      state_.recompute.timed_out = false;
      state_.recompute.poisoned = false;
      state_.policy_state.clear();
    } else if (!state_.recompute.timed_out &&
               slot >= util::sat_add(agent_.submit_slot(),
                                     config_.recompute_deadline)) {
      // Deadline overrun: keep serving from the last good schedule, marked
      // stale, and back off before the next attempt.
      state_.recompute.timed_out = true;
      state_.schedule_stale = true;
      monitor_.on_recompute_timeout(slot);
      ++state_.recompute_timeouts;
      bump_backoff(slot);
    }
  }
  if (!agent_.in_flight() && slot >= state_.cooldown_until &&
      (state_.schedule_stale || slot % config_.recompute_period == 0)) {
    submit_recompute(slot);
  }
}

// raysched:hot
std::uint64_t Service::serve_slot(std::uint64_t slot) {
  if (monitor_.state() == HealthState::Quarantined) return 0;
  // The live subset: scheduled links still active with a backlog (links
  // that left after adoption are skipped).
  model::LinkSet& live = live_scratch_;
  live.clear();
  for (model::LinkId i : state_.schedule) {
    if (state_.active[i] != 0 && state_.queues[i] > 0) live.push_back(i);
  }
  if (live.empty()) return 0;
  // Max-weight sets are feasibility-certified, so under non-fading every
  // live service succeeds. AHM samples sets that carry no certificate:
  // evaluate the SINR of the live subset and serve only links that clear
  // beta — the success/failure signal the probabilities feed on.
  const bool certified =
      config_.propagation == core::Propagation::NonFading &&
      agent_.policy().kind() != PolicyKind::Ahm;
  if (config_.propagation == core::Propagation::Rayleigh) {
    util::RngStream rng = master_.derive(kFadingTag, slot);
    model::sinr_rayleigh_all(net_, live, rng, sinr_scratch_);
  } else if (!certified) {
    model::sinr_nonfading_all(net_, live, sinr_scratch_);
  }
  std::uint64_t served = 0;
  for (std::size_t a = 0; a < live.size(); ++a) {
    const model::LinkId i = live[a];
    state_.feedback_attempt[i] = 1;
    if (certified || sinr_scratch_[a] >= config_.beta.value()) {
      state_.feedback_success[i] = 1;
      --state_.queues[i];
      ++served;
    }
  }
  state_.served_total += served;
  return served;
}

void Service::digest_slot(const SlotDigest& digest) {
  const auto mix = [this](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xFF;
      hash_ *= 1099511628211ULL;  // FNV-1a prime
    }
  };
  mix(digest.slot);
  mix(digest.arrivals);
  mix(digest.served);
  mix(digest.dropped);
  mix(digest.backlog);
  mix(digest.schedule_epoch);
  mix(static_cast<std::uint64_t>(digest.health));
}

ServeReport Service::run(std::uint64_t slots) {
  ServeReport report;
  // One up-front reservation per run() segment; the per-slot push_back
  // below then never reallocates, keeping the slot loop allocation-free.
  report.digests.reserve(slots);
  std::vector<double> burst_scratch;

  // raysched:hot(slot-loop)
  for (std::uint64_t step = 0; step < slots; ++step) {
    const std::uint64_t slot = state_.next_slot;
    const std::uint64_t drops_at_start = state_.drops.total();

    slot_events_.clear();
    burst_scratch.clear();
    config_.faults.events_in_slot(slot, slot_events_);
    bool crash = false;
    for (const FaultEvent& event : slot_events_) {
      switch (event.kind) {
        case FaultKind::RecomputeDelay:
          // Saturating: a scripted pile-up of delay faults must push the
          // next submit's latency toward "never", not wrap it into "now".
          state_.pending_extra_latency =
              util::sat_add(state_.pending_extra_latency,
                            static_cast<std::uint64_t>(event.arg));
          break;
        case FaultKind::PoisonOn:
          state_.poison_active = true;
          break;
        case FaultKind::PoisonOff:
          state_.poison_active = false;
          break;
        case FaultKind::ChurnBurst:
          burst_scratch.push_back(event.arg);
          break;
        case FaultKind::Crash:
          crash = true;
          break;
      }
    }
    if (crash) {
      // A scripted kill: stop before executing the slot and WITHOUT a
      // snapshot — restore must come from the last periodic one.
      report.crashed = true;
      report.crash_slot = slot;
      break;
    }

    apply_churn(slot, burst_scratch);
    const std::uint64_t offered = apply_arrivals(slot);
    manage_recompute(slot);
    const std::uint64_t served = serve_slot(slot);

    // One from-scratch backlog pass per slot feeds both the health monitor
    // and the conservation check; run() exit recounts independently.
    const std::uint64_t backlog = total_backlog();
    monitor_.end_slot(slot, backlog, state_.schedule_stale);
    if (!conservation_holds(backlog)) conservation_violated_ = true;

    SlotDigest digest;
    digest.slot = slot;
    digest.arrivals = offered;
    digest.served = served;
    digest.dropped = state_.drops.total() - drops_at_start;
    digest.backlog = backlog;
    digest.schedule_epoch = state_.schedule_epoch;
    digest.health = monitor_.state();
    digest_slot(digest);
    report.digests.push_back(digest);
    ++report.slots_run;
    state_.next_slot = slot + 1;

    if (config_.snapshot_period > 0 &&
        state_.next_slot % config_.snapshot_period == 0) {
      save_snapshot_atomic(config_.snapshot_path, snapshot());
    }
  }

  report.next_slot = state_.next_slot;
  report.arrivals = state_.arrivals_total;
  report.admitted = state_.admitted_total;
  report.served = state_.served_total;
  report.backlog = total_backlog();
  report.drops = state_.drops;
  report.recompute_timeouts = state_.recompute_timeouts;
  report.recompute_failures = state_.recompute_failures;
  report.recompute_adoptions = state_.recompute_adoptions;
  report.schedule_epoch = state_.schedule_epoch;
  report.expected_rate = expected_rate_;
  report.health = monitor_.state();
  report.transitions = monitor_.transitions();
  report.trajectory_hash = hash_;
  report.conservation_ok = !conservation_violated_ && conservation_holds();
  return report;
}

ServeSnapshot Service::snapshot() const {
  ServeSnapshot snap = state_;
  snap.health = monitor_.persisted();
  snap.burst_state = traffic_.burst_state();
  if (!agent_.in_flight()) {
    snap.policy_state = agent_.policy().persisted_state();
    return snap;
  }
  // state_.policy_state already holds the pre-submit capture that restore
  // replays the resubmission onto. The agent's request is loop-owned and
  // immutable while in flight, so it is safe to read here.
  const ScheduleRequest& pending = agent_.pending_request();
  snap.recompute.in_flight = true;
  snap.recompute.submit_slot = agent_.submit_slot();
  snap.recompute.latency_slots = agent_.latency_slots();
  if (snap.recompute.poisoned) {
    // The request holds NaNs; any finite weights replay the same failure.
    snap.recompute.weights.assign(pending.weights.size(), 0.0);
  } else {
    snap.recompute.weights = pending.weights;
  }
  snap.recompute.departed = pending.departed;
  snap.recompute.feedback_schedule = pending.feedback_schedule;
  snap.recompute.feedback_success = pending.feedback_success;
  return snap;
}

void Service::restore(const ServeSnapshot& snap) {
  require(state_.next_slot == 0 && state_.arrivals_total == 0 &&
              !agent_.in_flight(),
          "Service::restore: only a freshly constructed service can restore");
  const auto fingerprint = [](bool same, const char* what) {
    require_code(same, ErrorCode::SnapshotFormat,
                 std::string("Service::restore: ") + what + " mismatch");
  };
  fingerprint(snap.master_seed == state_.master_seed, "master seed");
  fingerprint(snap.num_links == state_.num_links, "link count");
  fingerprint(snap.beta == state_.beta, "beta");
  fingerprint(snap.propagation == state_.propagation, "propagation");
  fingerprint(snap.traffic_model == state_.traffic_model, "traffic model");
  fingerprint(snap.policy == state_.policy, "schedule policy");
  const std::size_t n = state_.num_links;
  require_code(snap.queues.size() == n && snap.active.size() == n &&
                   snap.departed_flags.size() == n &&
                   snap.feedback_attempt.size() == n &&
                   snap.feedback_success.size() == n,
               ErrorCode::SnapshotFormat,
               "Service::restore: per-link vector size mismatch");
  // serve_slot decrements each live link once per schedule entry, so a
  // repeated id would serve one queue twice.
  std::vector<char> scheduled(n, 0);
  for (std::size_t id : snap.schedule) {
    require_code(id < n && std::exchange(scheduled[id], 1) == 0,
                 ErrorCode::SnapshotFormat,
                 "Service::restore: schedule id out of range or repeated");
  }

  state_ = snap;
  // Hand the parts other objects own back to them; state_ keeps only the
  // loop's own fields (and, while in flight, the pre-submit policy state).
  monitor_.restore(std::exchange(state_.health, {}));
  traffic_.set_burst_state(std::exchange(state_.burst_state, {}));
  RecomputeSnapshot inflight = std::exchange(state_.recompute, {});
  state_.recompute.timed_out = inflight.timed_out;
  state_.recompute.poisoned = inflight.poisoned;

  // Rehydrate the policy before any resubmission: the persisted state is
  // the pre-submit capture, so replaying the request below reproduces the
  // exact post-submit policy state of the killed service.
  try {
    agent_.policy().restore_state(state_.policy_state);
  } catch (const error& e) {
    throw coded_error(ErrorCode::SnapshotFormat, e.what());
  }
  if (!inflight.in_flight) {
    state_.policy_state.clear();
    return;
  }
  // Resubmit the interrupted recompute with its original submit slot and
  // latency, so the adoption slot — and thus the trajectory — is
  // preserved. A poisoned request is re-corrupted before submission.
  ScheduleRequest request;
  request.weights = std::move(inflight.weights);
  request.departed = std::move(inflight.departed);
  request.feedback_schedule = std::move(inflight.feedback_schedule);
  request.feedback_success = std::move(inflight.feedback_success);
  if (inflight.poisoned) {
    std::fill(request.weights.begin(), request.weights.end(),
              std::numeric_limits<double>::quiet_NaN());
  }
  agent_.submit(inflight.submit_slot, std::move(request),
                inflight.latency_slots);
}

}  // namespace raysched::serve
