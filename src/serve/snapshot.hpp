// raysched: crash-safe snapshot/restore for the serving loop.
//
// The service periodically writes its full behavior-bearing state to disk
// with the atomic-rename idiom (write path.tmp, fsync-by-close, rename), so
// a kill at any point leaves either the previous snapshot or the new one —
// never a torn file. Restoring from a snapshot and continuing produces a
// bit-identical trajectory to the uninterrupted run, which tests/soak
// enforce. Two design choices make that exactness cheap:
//
//   * RNG position == slot index. Every stream the service consumes is
//     derived per slot from the master seed (master.derive(tag)
//     .derive(slot)), so "RNG stream positions" persist as a single
//     integer: the next slot to run.
//
//   * Doubles round-trip as max_digits10 text (exact for finite values).
//     The one non-finite hazard — NaN-poisoned recompute weights in flight
//     at snapshot time — is stored as finite zeros plus a poisoned flag;
//     restore re-applies the corruption before resubmitting. The weights'
//     values never matter: the agent's validation rejects the NaN-filled
//     request before any policy reads it.
//
//   * The state is held once. Service keeps its loop-owned fields in a
//     ServeSnapshot member, so snapshot() copies that member and fills in
//     only what other objects own (health monitor, burst modulator, policy
//     state, the agent's in-flight request); restore() assigns the member
//     and hands those parts back to their owners.
//
// The header also carries a fingerprint (seed, n, beta, traffic model);
// restore refuses a snapshot whose fingerprint does not match the service
// configuration instead of silently diverging.
//
// Concurrency contract: snapshots are taken and restored only from the
// serving-loop thread, at slot boundaries where no recompute result handoff
// is in progress — the structs below are loop-confined and lock-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "serve/health.hpp"

namespace raysched::serve {

/// Exact drop accounting — nothing is ever lost silently.
struct DropStats {
  std::uint64_t capacity = 0;    ///< queue at cap (normal admission)
  std::uint64_t shed = 0;        ///< overload admission threshold
  std::uint64_t churn = 0;       ///< backlog of links that left
  std::uint64_t quarantine = 0;  ///< arrivals refused while quarantined
  /// Schedule entries pruned at adoption because the link departed while
  /// the recompute was in flight (the stale-weights churn bug). Counts
  /// pruned *links*, not packets — their backlog was already booked under
  /// `churn` when the link left — so it is deliberately NOT in total().
  std::uint64_t stale_pruned = 0;
  [[nodiscard]] std::uint64_t total() const {
    return capacity + shed + churn + quarantine;
  }
};

/// Mid-flight recompute request, captured so restore can resubmit it.
struct RecomputeSnapshot {
  bool in_flight = false;
  std::uint64_t submit_slot = 0;
  std::uint64_t latency_slots = 0;
  /// The loop already declared this request timed out at its deadline; the
  /// eventual result must be discarded, not adopted.
  bool timed_out = false;
  /// Weights were NaN-corrupted at submit (poison fault window).
  bool poisoned = false;
  /// The request's weights; zeros when `poisoned` (the NaN-filled request
  /// fails validation whatever its weights), so they always serialize.
  std::vector<double> weights;
  /// The request's churn payload: links that had departed since the submit
  /// before this one (ScheduleRequest::departed), resubmitted verbatim.
  std::vector<std::size_t> departed;
  /// The request's AHM feedback payload (ScheduleRequest::feedback_*):
  /// parallel id/flag vectors, resubmitted verbatim.
  std::vector<std::size_t> feedback_schedule;
  std::vector<char> feedback_success;
};

/// Complete behavior-bearing service state between two slots.
struct ServeSnapshot {
  // Fingerprint: restore refuses mismatches.
  std::uint64_t master_seed = 0;
  std::size_t num_links = 0;
  double beta = 0.0;
  std::string propagation;
  std::string traffic_model;
  /// Schedule policy name (serve/schedule_policy.hpp); part of the
  /// fingerprint because policy state is not portable across policies.
  std::string policy;

  /// The next slot the restored service will execute.
  std::uint64_t next_slot = 0;

  HealthMonitor::Persisted health;

  // Exact integer counters; the conservation invariant
  //   arrivals == served + backlog + drops
  // is checked across snapshot boundaries.
  std::uint64_t arrivals_total = 0;
  std::uint64_t admitted_total = 0;
  std::uint64_t served_total = 0;
  DropStats drops;
  std::uint64_t recompute_timeouts = 0;
  std::uint64_t recompute_failures = 0;
  std::uint64_t recompute_adoptions = 0;

  /// Monotone count of adopted schedules, and whether the active one is
  /// stale (serving past a timeout/failure).
  std::uint64_t schedule_epoch = 0;
  bool schedule_stale = false;
  std::vector<std::size_t> schedule;  ///< active schedule's link ids

  std::vector<std::uint64_t> queues;  ///< per-link backlog, size n
  std::vector<char> active;           ///< per-link membership, size n
  std::vector<char> burst_state;      ///< traffic modulator (may be empty)

  /// Links that went inactive since the last submit (size n flags): the
  /// source of the next request's departed list, and — while a recompute is
  /// in flight — the adoption-time stale-schedule pruning set.
  std::vector<char> departed_flags;
  /// AHM feedback accumulators since the last submit (size n flags):
  /// attempted = scheduled with demand; succeeded = served >= 1 packet.
  std::vector<char> feedback_attempt;
  std::vector<char> feedback_success;
  /// History-dependent policy state (SchedulePolicy::persisted_state): the
  /// AHM probability vector; empty for the max-weight policies. When a
  /// recompute is in flight this is the *pre-submit* state, so restore can
  /// replay the resubmitted request onto it.
  std::vector<double> policy_state;

  RecomputeSnapshot recompute;

  /// Exponential-backoff state: current delay and the first slot at which
  /// the loop may submit again.
  std::uint64_t backoff_slots = 0;
  std::uint64_t cooldown_until = 0;

  /// Armed fault-injector state that crosses slots: a pending delay:<extra>
  /// that applies to the next submit, and whether the poison window is open.
  std::uint64_t pending_extra_latency = 0;
  bool poison_active = false;
};

/// Writes the text format. Throws coded_error{SnapshotIo} on stream failure
/// and coded_error{SnapshotFormat} on unserializable state (e.g. non-finite
/// weights).
void write_snapshot(std::ostream& os, const ServeSnapshot& snap);

/// Parses write_snapshot's format. Throws coded_error{SnapshotFormat} on
/// any malformed, truncated, or inconsistent input.
[[nodiscard]] ServeSnapshot read_snapshot(std::istream& is);

/// Atomic-rename save: the file at `path` is either the old snapshot or the
/// complete new one, never torn. Throws coded_error{SnapshotIo} on failure.
void save_snapshot_atomic(const std::string& path, const ServeSnapshot& snap);

/// Loads and parses `path`. Throws coded_error{SnapshotIo} if unreadable,
/// coded_error{SnapshotFormat} if malformed.
[[nodiscard]] ServeSnapshot load_snapshot(const std::string& path);

}  // namespace raysched::serve
