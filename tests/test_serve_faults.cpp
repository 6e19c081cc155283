// End-to-end fault scenarios for the serving loop: bit-identical replay
// across thread counts, kill/restore from crash-safe snapshots, graceful
// degradation under scripted faults, and exact drop accounting. These pin
// the determinism contract documented in serve/service.hpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "test_helpers.hpp"

namespace raysched::serve {
namespace {

using raysched::testing::paper_network;

// The network every scenario serves: deterministic, so two Service
// instances built from the same call are identical.
model::Network serve_network() { return paper_network(16, 77); }

ServeConfig base_config() {
  ServeConfig config;
  config.master_seed = 31;
  config.beta = units::Threshold(2.5);
  config.traffic.model = TrafficModel::Poisson;
  config.traffic.mean_rate = 0.3;
  config.queue_cap = 256;
  config.recompute_period = 8;
  config.recompute_latency = 2;
  config.recompute_deadline = 6;
  config.health.recover_after_slots = 16;
  config.health.quarantine_after = 2;
  return config;
}

// The canonical scripted fault schedule (sans crash): a recompute pushed
// past its deadline, a poisoned-gain window long enough to quarantine, and
// a churn burst dropping a fifth of the links.
const char* kFaultSpec =
    "40:delay:10,120:poison-on,170:poison-off,260:churn-burst:0.2";

void expect_same_digests(const std::vector<SlotDigest>& a,
                         const std::vector<SlotDigest>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].slot, b[i].slot) << "digest " << i;
    EXPECT_EQ(a[i].arrivals, b[i].arrivals) << "slot " << a[i].slot;
    EXPECT_EQ(a[i].served, b[i].served) << "slot " << a[i].slot;
    EXPECT_EQ(a[i].dropped, b[i].dropped) << "slot " << a[i].slot;
    EXPECT_EQ(a[i].backlog, b[i].backlog) << "slot " << a[i].slot;
    EXPECT_EQ(a[i].schedule_epoch, b[i].schedule_epoch)
        << "slot " << a[i].slot;
    EXPECT_EQ(a[i].health, b[i].health) << "slot " << a[i].slot;
    if (::testing::Test::HasFailure()) return;  // first divergence is enough
  }
}

TEST(ServeFaults, TrajectoryIsIndependentOfThreadCount) {
  ServeConfig config = base_config();
  config.faults = FaultScript::parse(kFaultSpec);
  std::vector<SlotDigest> reference;
  std::uint64_t reference_hash = 0;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    config.agent_threads = threads;
    Service service(serve_network(), config);
    const ServeReport report = service.run(400);
    EXPECT_TRUE(report.conservation_ok) << "threads=" << threads;
    if (threads == 1) {
      reference = report.digests;
      reference_hash = report.trajectory_hash;
      continue;
    }
    EXPECT_EQ(report.trajectory_hash, reference_hash)
        << "threads=" << threads;
    expect_same_digests(report.digests, reference);
  }
}

TEST(ServeFaults, RepeatedRunsAreBitIdentical) {
  ServeConfig config = base_config();
  config.faults = FaultScript::parse(kFaultSpec);
  Service a(serve_network(), config);
  Service b(serve_network(), config);
  const ServeReport ra = a.run(300);
  const ServeReport rb = b.run(300);
  EXPECT_EQ(ra.trajectory_hash, rb.trajectory_hash);
  EXPECT_EQ(ra.arrivals, rb.arrivals);
  EXPECT_EQ(ra.served, rb.served);
  EXPECT_EQ(ra.drops.total(), rb.drops.total());
}

TEST(ServeFaults, ScriptedCrashStopsBeforeTheSlot) {
  ServeConfig config = base_config();
  config.faults = FaultScript::parse("150:crash");
  Service service(serve_network(), config);
  const ServeReport report = service.run(400);
  EXPECT_TRUE(report.crashed);
  EXPECT_EQ(report.crash_slot, 150u);
  EXPECT_EQ(report.next_slot, 150u);     // the crash slot never executed
  EXPECT_EQ(report.slots_run, 150u);     // slots 0..149 ran
  EXPECT_TRUE(report.conservation_ok);
}

TEST(ServeFaults, KillAndRestoreReplaysBitIdentically) {
  // Run A: the full horizon with the crash-free fault script. Run B: the
  // same script plus a crash, with periodic snapshots. A fresh service then
  // restores B's last snapshot and — per the restart convention — continues
  // under the crash-free script. Its trajectory must be byte-identical to
  // A's over the overlap window, despite the crash landing mid-recompute
  // cadence and after churn/poison faults.
  const std::string path =
      ::testing::TempDir() + "raysched_serve_kill_restore.snap";
  ServeConfig clean = base_config();
  clean.faults = FaultScript::parse(kFaultSpec);

  Service a(serve_network(), clean);
  const ServeReport full = a.run(420);
  ASSERT_FALSE(full.crashed);

  ServeConfig crashing = clean;
  crashing.faults =
      FaultScript::parse(std::string(kFaultSpec) + ",301:crash");
  crashing.snapshot_path = path;
  crashing.snapshot_period = 149;
  Service b(serve_network(), crashing);
  const ServeReport until_crash = b.run(420);
  ASSERT_TRUE(until_crash.crashed);
  ASSERT_EQ(until_crash.crash_slot, 301u);

  // The last periodic snapshot was written at the end of slot 297
  // (next_slot 298) — while the recompute submitted at slot 296 was still
  // in flight, so the restore also resubmits a mid-flight request. The
  // crash at 301 leaves slots 298..419 to replay.
  const ServeSnapshot snap = load_snapshot(path);
  ASSERT_EQ(snap.next_slot, 298u);
  ASSERT_TRUE(snap.recompute.in_flight);
  Service c(serve_network(), clean);
  c.restore(snap);
  ASSERT_EQ(c.next_slot(), 298u);
  const ServeReport replay = c.run(420 - 298);

  ASSERT_EQ(full.digests.size(), 420u);
  const std::vector<SlotDigest> tail(full.digests.begin() + 298,
                                     full.digests.end());
  expect_same_digests(replay.digests, tail);
  EXPECT_EQ(replay.arrivals, full.arrivals);
  EXPECT_EQ(replay.served, full.served);
  EXPECT_EQ(replay.backlog, full.backlog);
  EXPECT_EQ(replay.drops.capacity, full.drops.capacity);
  EXPECT_EQ(replay.drops.shed, full.drops.shed);
  EXPECT_EQ(replay.drops.churn, full.drops.churn);
  EXPECT_EQ(replay.drops.quarantine, full.drops.quarantine);
  EXPECT_EQ(replay.schedule_epoch, full.schedule_epoch);
  EXPECT_EQ(replay.health, full.health);
  EXPECT_TRUE(replay.conservation_ok);
  std::remove(path.c_str());
}

TEST(ServeFaults, MidFlightRecomputeSurvivesSnapshot) {
  // After 9 slots the recompute submitted at slot 8 (period 8, latency 2)
  // is still in flight; snapshotting there must capture and resubmit it so
  // the restored service adopts at the same slot. Bursty traffic makes the
  // modulator state part of the roundtrip too.
  ServeConfig config = base_config();
  config.traffic.model = TrafficModel::Bursty;
  Service a(serve_network(), config);
  (void)a.run(9);
  const ServeSnapshot snap = a.snapshot();
  ASSERT_TRUE(snap.recompute.in_flight);
  ASSERT_EQ(snap.recompute.submit_slot, 8u);
  ASSERT_FALSE(snap.burst_state.empty());

  Service b(serve_network(), config);
  b.restore(snap);
  const ServeReport ra = a.run(120);
  const ServeReport rb = b.run(120);
  expect_same_digests(rb.digests, ra.digests);
  EXPECT_EQ(rb.served, ra.served);
  EXPECT_TRUE(rb.conservation_ok);
}

TEST(ServeFaults, RestoreRefusesFingerprintMismatch) {
  ServeConfig config = base_config();
  Service a(serve_network(), config);
  (void)a.run(20);
  const ServeSnapshot snap = a.snapshot();

  ServeConfig other = config;
  other.master_seed = 32;
  Service wrong_seed(serve_network(), other);
  try {
    wrong_seed.restore(snap);
    FAIL() << "seed mismatch accepted";
  } catch (const coded_error& e) {
    EXPECT_EQ(e.code(), ErrorCode::SnapshotFormat);
  }

  ServeConfig other_beta = config;
  other_beta.beta = units::Threshold(3.0);
  Service wrong_beta(serve_network(), other_beta);
  EXPECT_THROW(wrong_beta.restore(snap), coded_error);

  // A service that already ran cannot restore at all.
  Service used(serve_network(), config);
  (void)used.run(5);
  EXPECT_THROW(used.restore(snap), raysched::error);
}

TEST(ServeFaults, RestoreRefusesMalformedPerLinkState) {
  // serve_slot gathers the live subset before serving it, so a repeated
  // schedule id would decrement one queue twice; a short per-link vector
  // would be indexed out of bounds.
  ServeConfig config = base_config();
  Service a(serve_network(), config);
  (void)a.run(20);
  ServeSnapshot repeated = a.snapshot();
  ASSERT_FALSE(repeated.schedule.empty());
  repeated.schedule.push_back(repeated.schedule.front());
  ServeSnapshot short_queues = a.snapshot();
  short_queues.queues.pop_back();
  for (const ServeSnapshot& snap : {repeated, short_queues}) {
    Service fresh(serve_network(), config);
    try {
      fresh.restore(snap);
      FAIL() << "malformed per-link state accepted";
    } catch (const coded_error& e) {
      EXPECT_EQ(e.code(), ErrorCode::SnapshotFormat);
    }
  }
}

TEST(ServeFaults, TimeoutServesStaleAndRetriesWithBackoff) {
  ServeConfig config = base_config();
  // Push the slot-40 recompute 10 slots past its 6-slot deadline.
  config.faults = FaultScript::parse("40:delay:10");
  Service service(serve_network(), config);
  const ServeReport report = service.run(200);
  EXPECT_EQ(report.recompute_timeouts, 1u);
  EXPECT_TRUE(report.conservation_ok);
  // The loop never stopped serving: packets drained in the stale window
  // (slots 46..51, between the timeout and the overdue reap).
  std::uint64_t stale_served = 0;
  bool saw_degraded = false;
  for (const SlotDigest& d : report.digests) {
    if (d.slot >= 46 && d.slot < 52) stale_served += d.served;
    saw_degraded = saw_degraded || d.health == HealthState::Degraded;
  }
  EXPECT_GT(stale_served, 0u);
  EXPECT_TRUE(saw_degraded);
  // It recovered: fresh adoptions resumed after the backoff.
  EXPECT_GT(report.recompute_adoptions, 10u);
  EXPECT_EQ(report.health, HealthState::Healthy);
}

TEST(ServeFaults, PoisonWindowQuarantinesThenRecovers) {
  ServeConfig config = base_config();
  config.faults = FaultScript::parse("40:poison-on,120:poison-off");
  Service service(serve_network(), config);
  const ServeReport report = service.run(400);
  EXPECT_TRUE(report.conservation_ok);
  EXPECT_GE(report.recompute_failures, config.health.quarantine_after);
  // The poisoned window produced quarantine drops (arrivals refused while
  // the gains could not be trusted)...
  EXPECT_GT(report.drops.quarantine, 0u);
  bool saw_quarantine = false;
  for (const HealthTransition& t : report.transitions) {
    saw_quarantine = saw_quarantine || t.to == HealthState::Quarantined;
  }
  EXPECT_TRUE(saw_quarantine);
  // ...and the first clean recompute after poison-off lifted it for good.
  EXPECT_EQ(report.health, HealthState::Healthy);
  EXPECT_NE(report.digests.back().health, HealthState::Quarantined);
}

TEST(ServeFaults, ChurnBurstDropsAreAccounted) {
  ServeConfig config = base_config();
  // Load heavy enough that queues are certainly backlogged when half the
  // links leave — their queued packets become churn drops.
  config.traffic.mean_rate = 0.8;
  config.faults = FaultScript::parse("100:churn-burst:0.5");
  Service service(serve_network(), config);
  const ServeReport report = service.run(200);
  EXPECT_GT(report.drops.churn, 0u);
  EXPECT_TRUE(report.conservation_ok);
  // Exact integer conservation, spelled out.
  EXPECT_EQ(report.arrivals,
            report.served + report.backlog + report.drops.total());
}

TEST(ServeFaults, OverloadShedsWithAccountedDrops) {
  // Two co-located links can serve ~1 packet/slot combined; offering ~2 per
  // slot drives the backlog over the overload threshold, where admission
  // halves and the excess is shed — counted, never silent.
  ServeConfig config;
  config.master_seed = 9;
  config.beta = units::Threshold(2.0);
  config.traffic.model = TrafficModel::Poisson;
  config.traffic.mean_rate = 1.0;
  config.queue_cap = 50;
  config.health.overload_enter_backlog = 60;
  config.health.overload_exit_backlog = 20;
  Service service(raysched::testing::two_close_links(1e-6), config);
  const ServeReport report = service.run(500);
  EXPECT_TRUE(report.conservation_ok);
  EXPECT_GT(report.drops.shed, 0u);
  bool saw_overload = false;
  for (const HealthTransition& t : report.transitions) {
    saw_overload = saw_overload || t.to == HealthState::Overloaded;
  }
  EXPECT_TRUE(saw_overload);
  // While overloaded the admission threshold halves: no queue may exceed
  // the full cap, and totals still balance exactly.
  EXPECT_EQ(report.arrivals,
            report.served + report.backlog + report.drops.total());
}

TEST(ServeFaults, RayleighServiceIsDeterministicToo) {
  ServeConfig config = base_config();
  config.propagation = core::Propagation::Rayleigh;
  config.faults = FaultScript::parse(kFaultSpec);
  config.agent_threads = 1;
  Service a(serve_network(), config);
  config.agent_threads = 2;
  Service b(serve_network(), config);
  const ServeReport ra = a.run(300);
  const ServeReport rb = b.run(300);
  EXPECT_EQ(ra.trajectory_hash, rb.trajectory_hash);
  EXPECT_TRUE(ra.conservation_ok);
  EXPECT_GT(ra.served, 0u);
}

TEST(ServeFaults, MaxWeightGauntletMatchesGolden) {
  // One max-weight run through the full fault gauntlet (delay, poison,
  // churn burst), pinned to the trajectory recorded when a second,
  // cached-affectance max-weight policy still existed: both variants served
  // exactly this hash and count, so the one remaining policy must too.
  ServeConfig config = base_config();
  config.faults = FaultScript::parse(kFaultSpec);
  config.policy = PolicyKind::MaxWeight;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    config.agent_threads = threads;
    Service service(serve_network(), config);
    const ServeReport report = service.run(400);
    EXPECT_EQ(report.trajectory_hash, 0xdcb15a5dc3e995bcULL);
    EXPECT_EQ(report.served, 1464u);
    EXPECT_TRUE(report.conservation_ok);
    // The Theorem-1 price of the last adopted schedule; it never enters
    // the digests, so the hash above does not depend on it.
    EXPECT_GT(report.expected_rate, 0.0);
  }
}

TEST(ServeFaults, IncrementalKillRestoreReplaysBitIdentically) {
  // A mid-flight max-weight snapshot whose policy line carries the legacy
  // name max-weight-incremental (a retired policy that persisted no state
  // and adopted the same schedules) must load as max-weight and replay
  // byte-identically — at every agent thread count.
  const std::string path =
      ::testing::TempDir() + "raysched_serve_inc_kill_restore.snap";
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ServeConfig clean = base_config();
    clean.faults = FaultScript::parse(kFaultSpec);
    clean.policy = PolicyKind::MaxWeight;
    clean.agent_threads = threads;

    Service a(serve_network(), clean);
    const ServeReport full = a.run(420);
    ASSERT_FALSE(full.crashed);

    ServeConfig crashing = clean;
    crashing.faults =
        FaultScript::parse(std::string(kFaultSpec) + ",301:crash");
    crashing.snapshot_path = path;
    crashing.snapshot_period = 149;
    Service b(serve_network(), crashing);
    const ServeReport until_crash = b.run(420);
    ASSERT_TRUE(until_crash.crashed);

    std::string text;
    {
      std::ifstream in(path);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      text = buffer.str();
    }
    const std::string current = "\npolicy max-weight\n";
    const std::size_t at = text.find(current);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, current.size(), "\npolicy max-weight-incremental\n");
    {
      std::ofstream out(path, std::ios::trunc);
      out << text;
    }

    const ServeSnapshot snap = load_snapshot(path);
    ASSERT_EQ(snap.next_slot, 298u);
    ASSERT_TRUE(snap.recompute.in_flight);
    EXPECT_EQ(snap.policy, "max-weight");
    EXPECT_TRUE(snap.policy_state.empty());
    Service c(serve_network(), clean);
    c.restore(snap);
    const ServeReport replay = c.run(420 - 298);

    ASSERT_EQ(full.digests.size(), 420u);
    const std::vector<SlotDigest> tail(full.digests.begin() + 298,
                                       full.digests.end());
    expect_same_digests(replay.digests, tail);
    EXPECT_EQ(replay.served, full.served);
    EXPECT_EQ(replay.drops.stale_pruned, full.drops.stale_pruned);
    EXPECT_TRUE(replay.conservation_ok);
  }
  std::remove(path.c_str());
}

TEST(ServeFaults, AhmKillRestoreReplaysBitIdentically) {
  // AHM's transmission probabilities are the whole policy state; the
  // snapshot persists the pre-submit capture and the restore replays the
  // resubmitted feedback onto it, so the sampled trajectory must match.
  const std::string path =
      ::testing::TempDir() + "raysched_serve_ahm_kill_restore.snap";
  ServeConfig clean = base_config();
  clean.faults = FaultScript::parse(kFaultSpec);
  clean.policy = PolicyKind::Ahm;

  Service a(serve_network(), clean);
  const ServeReport full = a.run(420);
  ASSERT_FALSE(full.crashed);
  EXPECT_GT(full.served, 0u);

  ServeConfig crashing = clean;
  crashing.faults =
      FaultScript::parse(std::string(kFaultSpec) + ",301:crash");
  crashing.snapshot_path = path;
  crashing.snapshot_period = 149;
  Service b(serve_network(), crashing);
  const ServeReport until_crash = b.run(420);
  ASSERT_TRUE(until_crash.crashed);

  const ServeSnapshot snap = load_snapshot(path);
  ASSERT_EQ(snap.next_slot, 298u);
  EXPECT_EQ(snap.policy, "ahm");
  ASSERT_EQ(snap.policy_state.size(), serve_network().size());
  Service c(serve_network(), clean);
  c.restore(snap);
  const ServeReport replay = c.run(420 - 298);

  const std::vector<SlotDigest> tail(full.digests.begin() + 298,
                                     full.digests.end());
  expect_same_digests(replay.digests, tail);
  EXPECT_EQ(replay.served, full.served);
  EXPECT_TRUE(replay.conservation_ok);
  std::remove(path.c_str());
}

TEST(ServeFaults, ChurnDuringInflightRecomputePrunesStaleLinks) {
  // Satellite-1 regression: a delay fault stretches the slot-40 recompute
  // to latency 5 (due slot 45, inside the 6-slot deadline), and a churn
  // burst at slot 42 removes half the links mid-flight. The adopted
  // schedule was weighted against queues that no longer exist; adoption
  // must prune the departed links and account each in the drop taxonomy.
  ServeConfig config = base_config();
  config.traffic.mean_rate = 0.8;  // backlog everywhere → wide schedule
  config.faults = FaultScript::parse("40:delay:3,42:churn-burst:0.5");
  std::uint64_t reference_hash = 0;
  std::uint64_t reference_pruned = 0;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    config.agent_threads = threads;
    Service service(serve_network(), config);
    const ServeReport report = service.run(200);
    EXPECT_TRUE(report.conservation_ok) << "threads=" << threads;
    EXPECT_GT(report.drops.stale_pruned, 0u);
    // Pruned entries count links, not packets: conservation stays exact
    // without them.
    EXPECT_EQ(report.arrivals,
              report.served + report.backlog + report.drops.total());
    if (threads == 1) {
      reference_hash = report.trajectory_hash;
      reference_pruned = report.drops.stale_pruned;
      continue;
    }
    EXPECT_EQ(report.trajectory_hash, reference_hash);
    EXPECT_EQ(report.drops.stale_pruned, reference_pruned);
  }
}

TEST(ServeFaults, DelayPileUpSaturatesInsteadOfWrapping) {
  // Satellite-2 regression: two scripted 1e19-slot delays sum past 2^64.
  // Wrapping arithmetic would alias the pile-up to a *small* latency and
  // quietly adopt the result; saturation pins it at the "never" horizon,
  // where the deadline machinery takes over.
  ServeConfig config = base_config();
  config.faults = FaultScript::parse("9:delay:1e19,10:delay:1e19");
  Service service(serve_network(), config);
  (void)service.run(15);  // both delay events applied, next submit at 16
  const std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  ServeSnapshot snap = service.snapshot();
  EXPECT_EQ(snap.pending_extra_latency, kMax);

  // Slot 16 submits with saturated latency; the deadline trips at 22 and
  // the loop keeps serving the stale schedule indefinitely.
  const ServeReport report = service.run(185);
  EXPECT_EQ(report.recompute_timeouts, 1u);
  EXPECT_TRUE(report.conservation_ok);
  std::uint64_t late_served = 0;
  for (const SlotDigest& d : report.digests) {
    if (d.slot >= 100) late_served += d.served;
  }
  EXPECT_GT(late_served, 0u);

  // The saturated in-flight request survives a snapshot roundtrip: codec
  // and restore handle the UINT64_MAX latency, and the restored service
  // replays the stale-serving trajectory byte-for-byte.
  snap = service.snapshot();
  ASSERT_TRUE(snap.recompute.in_flight);
  EXPECT_EQ(snap.recompute.latency_slots, kMax);
  const std::string path =
      ::testing::TempDir() + "raysched_serve_saturated.snap";
  save_snapshot_atomic(path, snap);
  const ServeSnapshot loaded = load_snapshot(path);
  EXPECT_EQ(loaded.recompute.latency_slots, kMax);
  Service restored(serve_network(), config);
  restored.restore(loaded);
  const ServeReport ra = service.run(50);
  const ServeReport rb = restored.run(50);
  expect_same_digests(rb.digests, ra.digests);
  EXPECT_EQ(rb.served, ra.served);
  std::remove(path.c_str());
}

TEST(ServeFaults, RunResumesAcrossCalls) {
  // Two run() segments must equal one long run: next_slot is the complete
  // loop position.
  ServeConfig config = base_config();
  config.faults = FaultScript::parse(kFaultSpec);
  Service split(serve_network(), config);
  (void)split.run(150);
  const ServeReport second = split.run(150);
  Service whole(serve_network(), config);
  const ServeReport full = whole.run(300);
  EXPECT_EQ(second.trajectory_hash, full.trajectory_hash);
  EXPECT_EQ(second.served, full.served);
  EXPECT_EQ(second.next_slot, full.next_slot);
}

// ---- snapshot state ownership ---------------------------------------------

void expect_same_snapshot(const ServeSnapshot& a, const ServeSnapshot& b) {
  EXPECT_EQ(a.master_seed, b.master_seed);
  EXPECT_EQ(a.num_links, b.num_links);
  EXPECT_EQ(a.beta, b.beta);
  EXPECT_EQ(a.propagation, b.propagation);
  EXPECT_EQ(a.traffic_model, b.traffic_model);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.next_slot, b.next_slot);
  EXPECT_EQ(a.health.state, b.health.state);
  EXPECT_EQ(a.health.poison_streak, b.health.poison_streak);
  EXPECT_EQ(a.health.clean_slots, b.health.clean_slots);
  EXPECT_EQ(a.health.quarantine_latch, b.health.quarantine_latch);
  EXPECT_EQ(a.health.overload_latch, b.health.overload_latch);
  EXPECT_EQ(a.arrivals_total, b.arrivals_total);
  EXPECT_EQ(a.admitted_total, b.admitted_total);
  EXPECT_EQ(a.served_total, b.served_total);
  EXPECT_EQ(a.drops.capacity, b.drops.capacity);
  EXPECT_EQ(a.drops.shed, b.drops.shed);
  EXPECT_EQ(a.drops.churn, b.drops.churn);
  EXPECT_EQ(a.drops.quarantine, b.drops.quarantine);
  EXPECT_EQ(a.drops.stale_pruned, b.drops.stale_pruned);
  EXPECT_EQ(a.recompute_timeouts, b.recompute_timeouts);
  EXPECT_EQ(a.recompute_failures, b.recompute_failures);
  EXPECT_EQ(a.recompute_adoptions, b.recompute_adoptions);
  EXPECT_EQ(a.schedule_epoch, b.schedule_epoch);
  EXPECT_EQ(a.schedule_stale, b.schedule_stale);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.queues, b.queues);
  EXPECT_EQ(a.active, b.active);
  EXPECT_EQ(a.burst_state, b.burst_state);
  EXPECT_EQ(a.departed_flags, b.departed_flags);
  EXPECT_EQ(a.feedback_attempt, b.feedback_attempt);
  EXPECT_EQ(a.feedback_success, b.feedback_success);
  EXPECT_EQ(a.policy_state, b.policy_state);
  EXPECT_EQ(a.recompute.in_flight, b.recompute.in_flight);
  EXPECT_EQ(a.recompute.submit_slot, b.recompute.submit_slot);
  EXPECT_EQ(a.recompute.latency_slots, b.recompute.latency_slots);
  EXPECT_EQ(a.recompute.timed_out, b.recompute.timed_out);
  EXPECT_EQ(a.recompute.poisoned, b.recompute.poisoned);
  EXPECT_EQ(a.recompute.weights, b.recompute.weights);
  EXPECT_EQ(a.recompute.departed, b.recompute.departed);
  EXPECT_EQ(a.recompute.feedback_schedule, b.recompute.feedback_schedule);
  EXPECT_EQ(a.recompute.feedback_success, b.recompute.feedback_success);
  EXPECT_EQ(a.backoff_slots, b.backoff_slots);
  EXPECT_EQ(a.cooldown_until, b.cooldown_until);
  EXPECT_EQ(a.pending_extra_latency, b.pending_extra_latency);
  EXPECT_EQ(a.poison_active, b.poison_active);
}

TEST(ServeSnapshot, RestoreThenSnapshotIsFieldForFieldEqual) {
  // snapshot -> restore on a fresh service -> snapshot must reproduce every
  // field: idle, mid-flight after the deadline, and mid-flight poisoned
  // (stored as zero weights). Both policies; bursty traffic puts the
  // modulator state in play too.
  struct Point {
    const char* faults;
    std::uint64_t slots;  // run this many slots, then snapshot
    bool in_flight, timed_out, poisoned;
  };
  // The slot-8 submit is adopted at 10 (idle at 12); a delay stretches it
  // past its slot-14 deadline; a poison window corrupts it.
  const Point points[] = {{"", 12, false, false, false},
                          {"7:delay:10", 15, true, true, false},
                          {"7:poison-on", 9, true, false, true}};
  for (PolicyKind policy : {PolicyKind::MaxWeight, PolicyKind::Ahm}) {
    for (const Point& point : points) {
      SCOPED_TRACE(std::string(to_string(policy)) + " '" + point.faults +
                   "'");
      ServeConfig config = base_config();
      config.policy = policy;
      config.traffic.model = TrafficModel::Bursty;
      config.faults = FaultScript::parse(point.faults);
      Service a(serve_network(), config);
      (void)a.run(point.slots);
      const ServeSnapshot first = a.snapshot();
      ASSERT_EQ(first.recompute.in_flight, point.in_flight);
      EXPECT_EQ(first.recompute.timed_out, point.timed_out);
      EXPECT_EQ(first.recompute.poisoned, point.poisoned);
      if (point.poisoned) {
        EXPECT_EQ(first.recompute.weights,
                  std::vector<double>(serve_network().size(), 0.0));
      }

      Service b(serve_network(), config);
      b.restore(first);
      expect_same_snapshot(b.snapshot(), first);
      expect_same_digests(b.run(40).digests, a.run(40).digests);
    }
  }
}

// Mid-flight snapshots in the `raysched-serve-snapshot 2` format, each
// written by the service before it held its state in one snapshot member,
// with the trajectory hash of the 120 slots it then ran after a restore:
// an AHM request past its deadline, and a poisoned max-weight request that
// still carries the pre-poison weights that service wrote.
struct SnapshotFixture {
  const char* text;
  std::uint64_t continuation_hash;
};

ServeConfig fixture_config(PolicyKind policy) {
  ServeConfig config = base_config();
  config.policy = policy;
  if (policy == PolicyKind::Ahm) {
    config.traffic.model = TrafficModel::Bursty;
    config.churn_leave = units::Probability(0.01);
    config.churn_join = units::Probability(0.05);
    config.faults =
        FaultScript::parse("40:delay:10,260:churn-burst:0.2,290:delay:10");
  } else {
    config.faults = FaultScript::parse("118:poison-on,140:poison-off");
  }
  return config;
}

const SnapshotFixture kAhmFixture = {
    R"(raysched-serve-snapshot 2
seed 31
links 16
beta 2.5
propagation nonfading
traffic bursty
policy ahm
slot 303
health degraded 0 0 0 0
counters 465 465 373
drops 0 0 77 0 5
recompute-stats 2 0 36
epoch 36 stale 1
schedule 5 : 0 4 11 12 15
queues 16 : 0 3 5 0 0 1 0 1 1 0 3 0 0 0 0 1
active 16 : 1 1 1 0 1 1 1 1 1 1 1 1 1 1 0 1
departed 16 : 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
attempt 16 : 1 0 0 0 0 0 0 0 0 0 0 1 0 0 0 1
success 16 : 1 0 0 0 0 0 0 0 0 0 0 1 0 0 0 1
burst 16 : 0 0 1 0 0 0 0 0 1 0 0 0 0 0 0 0
inflight 1 296 12 1 0
weights 16 : 1 3 0 0 0 1 0 1 1 0 3 0 0 0 0 4
inflight-departed 1 : 14
inflight-feedback 6 : 0 1 1 1 4 1 11 1 12 1 15 1
backoff 4 306
faultstate 0 0
policy-state 16 : 1 1 1 1 1 1 1 1 1 0.5 1 1 1 1 1 1
end
)",
    0xd4ae47fd6600fb94ULL};

const SnapshotFixture kPoisonedFixture = {
    R"(raysched-serve-snapshot 2
seed 31
links 16
beta 2.5
propagation nonfading
traffic poisson
policy max-weight
slot 121
health healthy 0 137 0 0
counters 606 606 581
drops 0 0 0 0 0
recompute-stats 0 0 15
epoch 15 stale 0
schedule 6 : 2 6 12 13 14 15
queues 16 : 1 2 4 2 2 2 0 1 1 2 2 3 0 0 0 3
active 16 : 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1
departed 16 : 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
attempt 16 : 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 1
success 16 : 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 1
burst 0 :
inflight 1 120 2 0 1
weights 16 : 1 2 5 2 2 2 0 1 1 2 2 3 0 0 0 4
inflight-departed 0 :
inflight-feedback 7 : 2 1 6 1 9 1 12 1 13 1 14 1 15 1
backoff 0 114
faultstate 0 1
policy-state 0 :
end
)",
    0x3e872dbdc2db2778ULL};

TEST(ServeSnapshot, EarlierFormatFixturesReplayToRecordedHashes) {
  for (PolicyKind policy : {PolicyKind::Ahm, PolicyKind::MaxWeight}) {
    SCOPED_TRACE(to_string(policy));
    const SnapshotFixture& fixture =
        policy == PolicyKind::Ahm ? kAhmFixture : kPoisonedFixture;
    std::istringstream is(fixture.text);
    const ServeSnapshot snap = read_snapshot(is);
    ASSERT_TRUE(snap.recompute.in_flight);
    Service service(serve_network(), fixture_config(policy));
    service.restore(snap);
    const ServeReport report = service.run(120);
    EXPECT_EQ(report.trajectory_hash, fixture.continuation_hash);
    EXPECT_TRUE(report.conservation_ok);
  }
}

}  // namespace
}  // namespace raysched::serve
