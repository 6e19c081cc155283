#include "serve/snapshot.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>

#include "util/error.hpp"

namespace raysched::serve {

namespace {

// Version 2 (PR 10): policy fingerprint line, the stale_pruned drop
// counter, the departed/attempt/success flag vectors, the in-flight
// request's departed + feedback payloads, and the policy-state vector.
constexpr int kVersion = 2;

// Bound every size field against corrupted/hostile input: no deployment
// serves more links than this, and schedules/weights are <= n.
constexpr std::size_t kMaxLinks = 100'000'000;

void expect_token(std::istream& is, const std::string& expected) {
  std::string token;
  is >> token;
  require_code(static_cast<bool>(is) && token == expected,
               ErrorCode::SnapshotFormat,
               "read_snapshot: expected token '" + expected + "', got '" +
                   token + "'");
}

std::uint64_t read_u64(std::istream& is, const char* what) {
  std::uint64_t v = 0;
  is >> v;
  require_code(static_cast<bool>(is), ErrorCode::SnapshotFormat,
               std::string("read_snapshot: bad ") + what);
  return v;
}

double read_double(std::istream& is, const char* what) {
  double v = 0.0;
  is >> v;
  require_code(static_cast<bool>(is) && std::isfinite(v),
               ErrorCode::SnapshotFormat,
               std::string("read_snapshot: bad ") + what);
  return v;
}

bool read_flag(std::istream& is, const char* what) {
  const std::uint64_t v = read_u64(is, what);
  require_code(v <= 1, ErrorCode::SnapshotFormat,
               std::string("read_snapshot: flag out of range: ") + what);
  return v == 1;
}

}  // namespace

void write_snapshot(std::ostream& os, const ServeSnapshot& snap) {
  const std::size_t n = snap.num_links;
  require_code(snap.queues.size() == n && snap.active.size() == n,
               ErrorCode::SnapshotFormat,
               "write_snapshot: per-link vectors must have size n");
  require_code(snap.burst_state.empty() || snap.burst_state.size() == n,
               ErrorCode::SnapshotFormat,
               "write_snapshot: burst state must be empty or size n");
  require_code(snap.departed_flags.size() == n &&
                   snap.feedback_attempt.size() == n &&
                   snap.feedback_success.size() == n,
               ErrorCode::SnapshotFormat,
               "write_snapshot: flag vectors must have size n");
  require_code(std::isfinite(snap.beta), ErrorCode::SnapshotFormat,
               "write_snapshot: beta must be finite");
  require_code(!snap.policy.empty(), ErrorCode::SnapshotFormat,
               "write_snapshot: policy name must be set");

  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "raysched-serve-snapshot " << kVersion << "\n";
  os << "seed " << snap.master_seed << "\n";
  os << "links " << n << "\n";
  os << "beta " << snap.beta << "\n";
  os << "propagation " << snap.propagation << "\n";
  os << "traffic " << snap.traffic_model << "\n";
  os << "policy " << snap.policy << "\n";
  os << "slot " << snap.next_slot << "\n";
  os << "health " << to_string(snap.health.state) << " "
     << snap.health.poison_streak << " " << snap.health.clean_slots << " "
     << (snap.health.quarantine_latch ? 1 : 0) << " "
     << (snap.health.overload_latch ? 1 : 0) << "\n";
  os << "counters " << snap.arrivals_total << " " << snap.admitted_total
     << " " << snap.served_total << "\n";
  os << "drops " << snap.drops.capacity << " " << snap.drops.shed << " "
     << snap.drops.churn << " " << snap.drops.quarantine << " "
     << snap.drops.stale_pruned << "\n";
  os << "recompute-stats " << snap.recompute_timeouts << " "
     << snap.recompute_failures << " " << snap.recompute_adoptions << "\n";
  os << "epoch " << snap.schedule_epoch << " stale "
     << (snap.schedule_stale ? 1 : 0) << "\n";
  os << "schedule " << snap.schedule.size() << " :";
  for (std::size_t id : snap.schedule) {
    require_code(id < n, ErrorCode::SnapshotFormat,
                 "write_snapshot: schedule id out of range");
    os << " " << id;
  }
  os << "\n";
  os << "queues " << n << " :";
  for (std::uint64_t q : snap.queues) os << " " << q;
  os << "\n";
  os << "active " << n << " :";
  for (char a : snap.active) os << " " << (a ? 1 : 0);
  os << "\n";
  os << "departed " << n << " :";
  for (char d : snap.departed_flags) os << " " << (d ? 1 : 0);
  os << "\n";
  os << "attempt " << n << " :";
  for (char a : snap.feedback_attempt) os << " " << (a ? 1 : 0);
  os << "\n";
  os << "success " << n << " :";
  for (char s : snap.feedback_success) os << " " << (s ? 1 : 0);
  os << "\n";
  os << "burst " << snap.burst_state.size() << " :";
  for (char b : snap.burst_state) os << " " << (b ? 1 : 0);
  os << "\n";
  if (snap.recompute.in_flight) {
    require_code(snap.recompute.weights.size() == n,
                 ErrorCode::SnapshotFormat,
                 "write_snapshot: in-flight weights must have size n");
    require_code(snap.recompute.feedback_success.size() ==
                     snap.recompute.feedback_schedule.size(),
                 ErrorCode::SnapshotFormat,
                 "write_snapshot: in-flight feedback flags must align");
    os << "inflight 1 " << snap.recompute.submit_slot << " "
       << snap.recompute.latency_slots << " "
       << (snap.recompute.timed_out ? 1 : 0) << " "
       << (snap.recompute.poisoned ? 1 : 0) << "\n";
    os << "weights " << n << " :";
    for (double w : snap.recompute.weights) {
      // A poisoned request is stored as zeros + the flag above; a
      // non-finite value here is a service bug, not a serializable state.
      require_code(std::isfinite(w), ErrorCode::SnapshotFormat,
                   "write_snapshot: in-flight weights must be finite");
      os << " " << w;
    }
    os << "\n";
    os << "inflight-departed " << snap.recompute.departed.size() << " :";
    for (std::size_t id : snap.recompute.departed) {
      require_code(id < n, ErrorCode::SnapshotFormat,
                   "write_snapshot: in-flight departed id out of range");
      os << " " << id;
    }
    os << "\n";
    // Feedback as (id, success) pairs, aligned by construction.
    os << "inflight-feedback " << snap.recompute.feedback_schedule.size()
       << " :";
    for (std::size_t k = 0; k < snap.recompute.feedback_schedule.size();
         ++k) {
      const std::size_t id = snap.recompute.feedback_schedule[k];
      require_code(id < n, ErrorCode::SnapshotFormat,
                   "write_snapshot: in-flight feedback id out of range");
      os << " " << id << " " << (snap.recompute.feedback_success[k] ? 1 : 0);
    }
    os << "\n";
  } else {
    os << "inflight 0\n";
  }
  os << "backoff " << snap.backoff_slots << " " << snap.cooldown_until
     << "\n";
  os << "faultstate " << snap.pending_extra_latency << " "
     << (snap.poison_active ? 1 : 0) << "\n";
  os << "policy-state " << snap.policy_state.size() << " :";
  for (double v : snap.policy_state) {
    require_code(std::isfinite(v), ErrorCode::SnapshotFormat,
                 "write_snapshot: policy state must be finite");
    os << " " << v;
  }
  os << "\n";
  os << "end\n";
  require_code(static_cast<bool>(os), ErrorCode::SnapshotIo,
               "write_snapshot: stream write failed");
}

ServeSnapshot read_snapshot(std::istream& is) {
  expect_token(is, "raysched-serve-snapshot");
  int version = 0;
  is >> version;
  require_code(static_cast<bool>(is) && version == kVersion,
               ErrorCode::SnapshotFormat,
               "read_snapshot: unsupported version");
  ServeSnapshot snap;
  expect_token(is, "seed");
  snap.master_seed = read_u64(is, "seed");
  expect_token(is, "links");
  snap.num_links = static_cast<std::size_t>(read_u64(is, "link count"));
  require_code(snap.num_links >= 1 && snap.num_links <= kMaxLinks,
               ErrorCode::SnapshotFormat,
               "read_snapshot: implausible link count");
  const std::size_t n = snap.num_links;
  expect_token(is, "beta");
  snap.beta = read_double(is, "beta");
  expect_token(is, "propagation");
  is >> snap.propagation;
  require_code(static_cast<bool>(is) && !snap.propagation.empty(),
               ErrorCode::SnapshotFormat, "read_snapshot: bad propagation");
  expect_token(is, "traffic");
  is >> snap.traffic_model;
  require_code(static_cast<bool>(is) && !snap.traffic_model.empty(),
               ErrorCode::SnapshotFormat, "read_snapshot: bad traffic model");
  expect_token(is, "policy");
  is >> snap.policy;
  require_code(static_cast<bool>(is) && !snap.policy.empty(),
               ErrorCode::SnapshotFormat, "read_snapshot: bad policy name");
  // Legacy alias: the retired max-weight-incremental policy persisted no
  // state and adopted the same schedules as max-weight, so its snapshots
  // replay bit-identically under max-weight.
  if (snap.policy == "max-weight-incremental") snap.policy = "max-weight";
  expect_token(is, "slot");
  snap.next_slot = read_u64(is, "slot");
  expect_token(is, "health");
  {
    std::string name;
    is >> name;
    require_code(static_cast<bool>(is), ErrorCode::SnapshotFormat,
                 "read_snapshot: bad health state");
    try {
      snap.health.state = health_state_from_string(name);
    } catch (const error& e) {
      throw coded_error(ErrorCode::SnapshotFormat, e.what());
    }
    snap.health.poison_streak =
        static_cast<std::size_t>(read_u64(is, "poison streak"));
    snap.health.clean_slots = read_u64(is, "clean slots");
    snap.health.quarantine_latch = read_flag(is, "quarantine latch");
    snap.health.overload_latch = read_flag(is, "overload latch");
  }
  expect_token(is, "counters");
  snap.arrivals_total = read_u64(is, "arrivals");
  snap.admitted_total = read_u64(is, "admitted");
  snap.served_total = read_u64(is, "served");
  expect_token(is, "drops");
  snap.drops.capacity = read_u64(is, "capacity drops");
  snap.drops.shed = read_u64(is, "shed drops");
  snap.drops.churn = read_u64(is, "churn drops");
  snap.drops.quarantine = read_u64(is, "quarantine drops");
  snap.drops.stale_pruned = read_u64(is, "stale-pruned count");
  expect_token(is, "recompute-stats");
  snap.recompute_timeouts = read_u64(is, "recompute timeouts");
  snap.recompute_failures = read_u64(is, "recompute failures");
  snap.recompute_adoptions = read_u64(is, "recompute adoptions");
  expect_token(is, "epoch");
  snap.schedule_epoch = read_u64(is, "epoch");
  expect_token(is, "stale");
  snap.schedule_stale = read_flag(is, "stale flag");
  expect_token(is, "schedule");
  {
    const std::uint64_t k = read_u64(is, "schedule size");
    require_code(k <= n, ErrorCode::SnapshotFormat,
                 "read_snapshot: schedule larger than n");
    expect_token(is, ":");
    snap.schedule.reserve(static_cast<std::size_t>(k));
    for (std::uint64_t i = 0; i < k; ++i) {
      const std::uint64_t id = read_u64(is, "schedule id");
      require_code(id < n, ErrorCode::SnapshotFormat,
                   "read_snapshot: schedule id out of range");
      snap.schedule.push_back(static_cast<std::size_t>(id));
    }
  }
  expect_token(is, "queues");
  require_code(read_u64(is, "queue count") == n, ErrorCode::SnapshotFormat,
               "read_snapshot: queue count != n");
  expect_token(is, ":");
  snap.queues.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    snap.queues.push_back(read_u64(is, "queue length"));
  }
  expect_token(is, "active");
  require_code(read_u64(is, "active count") == n, ErrorCode::SnapshotFormat,
               "read_snapshot: active count != n");
  expect_token(is, ":");
  snap.active.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    snap.active.push_back(read_flag(is, "active flag") ? 1 : 0);
  }
  expect_token(is, "departed");
  require_code(read_u64(is, "departed count") == n,
               ErrorCode::SnapshotFormat,
               "read_snapshot: departed count != n");
  expect_token(is, ":");
  snap.departed_flags.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    snap.departed_flags.push_back(read_flag(is, "departed flag") ? 1 : 0);
  }
  expect_token(is, "attempt");
  require_code(read_u64(is, "attempt count") == n, ErrorCode::SnapshotFormat,
               "read_snapshot: attempt count != n");
  expect_token(is, ":");
  snap.feedback_attempt.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    snap.feedback_attempt.push_back(read_flag(is, "attempt flag") ? 1 : 0);
  }
  expect_token(is, "success");
  require_code(read_u64(is, "success count") == n, ErrorCode::SnapshotFormat,
               "read_snapshot: success count != n");
  expect_token(is, ":");
  snap.feedback_success.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    snap.feedback_success.push_back(read_flag(is, "success flag") ? 1 : 0);
  }
  expect_token(is, "burst");
  {
    const std::uint64_t m = read_u64(is, "burst count");
    require_code(m == 0 || m == n, ErrorCode::SnapshotFormat,
                 "read_snapshot: burst count must be 0 or n");
    expect_token(is, ":");
    snap.burst_state.reserve(static_cast<std::size_t>(m));
    for (std::uint64_t i = 0; i < m; ++i) {
      snap.burst_state.push_back(read_flag(is, "burst flag") ? 1 : 0);
    }
  }
  expect_token(is, "inflight");
  snap.recompute.in_flight = read_flag(is, "inflight flag");
  if (snap.recompute.in_flight) {
    snap.recompute.submit_slot = read_u64(is, "inflight submit slot");
    snap.recompute.latency_slots = read_u64(is, "inflight latency");
    require_code(snap.recompute.latency_slots >= 1,
                 ErrorCode::SnapshotFormat,
                 "read_snapshot: inflight latency must be >= 1");
    snap.recompute.timed_out = read_flag(is, "inflight timeout flag");
    snap.recompute.poisoned = read_flag(is, "inflight poison flag");
    expect_token(is, "weights");
    require_code(read_u64(is, "weight count") == n,
                 ErrorCode::SnapshotFormat,
                 "read_snapshot: weight count != n");
    expect_token(is, ":");
    snap.recompute.weights.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double w = read_double(is, "weight");
      require_code(w >= 0.0, ErrorCode::SnapshotFormat,
                   "read_snapshot: weights must be non-negative");
      snap.recompute.weights.push_back(w);
    }
    expect_token(is, "inflight-departed");
    {
      const std::uint64_t k = read_u64(is, "inflight departed count");
      require_code(k <= n, ErrorCode::SnapshotFormat,
                   "read_snapshot: inflight departed larger than n");
      expect_token(is, ":");
      snap.recompute.departed.reserve(static_cast<std::size_t>(k));
      for (std::uint64_t i = 0; i < k; ++i) {
        const std::uint64_t id = read_u64(is, "inflight departed id");
        require_code(id < n, ErrorCode::SnapshotFormat,
                     "read_snapshot: inflight departed id out of range");
        snap.recompute.departed.push_back(static_cast<std::size_t>(id));
      }
    }
    expect_token(is, "inflight-feedback");
    {
      const std::uint64_t k = read_u64(is, "inflight feedback count");
      require_code(k <= n, ErrorCode::SnapshotFormat,
                   "read_snapshot: inflight feedback larger than n");
      expect_token(is, ":");
      snap.recompute.feedback_schedule.reserve(static_cast<std::size_t>(k));
      snap.recompute.feedback_success.reserve(static_cast<std::size_t>(k));
      for (std::uint64_t i = 0; i < k; ++i) {
        const std::uint64_t id = read_u64(is, "inflight feedback id");
        require_code(id < n, ErrorCode::SnapshotFormat,
                     "read_snapshot: inflight feedback id out of range");
        snap.recompute.feedback_schedule.push_back(
            static_cast<std::size_t>(id));
        snap.recompute.feedback_success.push_back(
            read_flag(is, "inflight feedback flag") ? 1 : 0);
      }
    }
  }
  expect_token(is, "backoff");
  snap.backoff_slots = read_u64(is, "backoff slots");
  snap.cooldown_until = read_u64(is, "cooldown slot");
  expect_token(is, "faultstate");
  snap.pending_extra_latency = read_u64(is, "pending extra latency");
  snap.poison_active = read_flag(is, "poison active flag");
  expect_token(is, "policy-state");
  {
    const std::uint64_t m = read_u64(is, "policy state size");
    require_code(m <= kMaxLinks, ErrorCode::SnapshotFormat,
                 "read_snapshot: implausible policy state size");
    expect_token(is, ":");
    snap.policy_state.reserve(static_cast<std::size_t>(m));
    for (std::uint64_t i = 0; i < m; ++i) {
      snap.policy_state.push_back(read_double(is, "policy state value"));
    }
  }
  expect_token(is, "end");
  return snap;
}

void save_snapshot_atomic(const std::string& path, const ServeSnapshot& snap) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    require_code(f.good(), ErrorCode::SnapshotIo,
                 "save_snapshot_atomic: cannot open " + tmp);
    write_snapshot(f, snap);
    f.flush();
    require_code(f.good(), ErrorCode::SnapshotIo,
                 "save_snapshot_atomic: write failed for " + tmp);
  }
  require_code(std::rename(tmp.c_str(), path.c_str()) == 0,
               ErrorCode::SnapshotIo,
               "save_snapshot_atomic: rename to " + path + " failed");
}

ServeSnapshot load_snapshot(const std::string& path) {
  std::ifstream f(path);
  require_code(f.good(), ErrorCode::SnapshotIo,
               "load_snapshot: cannot open " + path);
  return read_snapshot(f);
}

}  // namespace raysched::serve
