// Runtime pin for the hot-path memory discipline that tools/raysched_mem
// checks lexically: after warm-up, the steady-state serving slot loop, the
// out-buffer conditional Theorem-1 batch, the two expected-successes
// aggregates, and the out-buffer sinr_rayleigh_all perform ZERO heap
// allocations. The counting operator new below is program-wide for this
// binary but purely passive (it forwards to malloc and only bumps an
// atomic), so coexisting tests are unaffected; ctest runs each test in its
// own process, so the counter sees only this file's work during its
// assertions.
//
// Measurement technique for the slot loop: Service::run(slots) has a small
// constant per-run allocation overhead (one digests.reserve, the report
// handoff) plus `slots` iterations of the slot loop. Comparing the
// allocation deltas of run(256) and run(512) cancels the constant: equal
// deltas prove the per-slot cost is exactly zero.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "test_helpers.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

std::uint64_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

}  // namespace

// Counting global operator new/delete. Replacing the plain (unaligned)
// forms is enough: every container in the hot paths holds scalar types.
// Over-aligned allocations keep the library default, which pairs with the
// default aligned delete, so the two families never mix.
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

namespace raysched {
namespace {

using raysched::testing::paper_network;

serve::ServeConfig steady_config(core::Propagation propagation) {
  serve::ServeConfig config;
  config.master_seed = 31;
  config.beta = units::Threshold(2.5);
  config.propagation = propagation;
  config.traffic.model = serve::TrafficModel::Poisson;
  config.traffic.mean_rate = 0.3;
  config.queue_cap = 256;
  // One recompute during warm-up, then quiescent: the steady-state loop is
  // pure serving. The async submit path allocates by design and is
  // measured separately (bench/perf_serve.cpp allocs_per_slot).
  config.recompute_period = 1'000'000;
  config.agent_threads = 1;
  return config;
}

void expect_zero_alloc_slots(core::Propagation propagation) {
  serve::Service service(paper_network(16, 77), steady_config(propagation));

  // Warm-up: scratch buffers reach their fixed capacities, the first
  // recompute is adopted, every queue has seen traffic.
  (void)service.run(64);

  const std::uint64_t base = alloc_count();
  (void)service.run(256);
  const std::uint64_t delta_short = alloc_count() - base;
  const std::uint64_t mid = alloc_count();
  (void)service.run(512);
  const std::uint64_t delta_long = alloc_count() - mid;

  // Equal deltas across different slot counts: zero allocations per slot.
  EXPECT_EQ(delta_short, delta_long)
      << "slot loop allocates per slot: " << delta_short << " allocs over "
      << "256 slots vs " << delta_long << " over 512";
  // And the per-run constant itself stays tiny (reserve + report handoff).
  EXPECT_LE(delta_short, 8u);
}

TEST(HotPathAllocs, SteadyStateSlotLoopNonFading) {
  expect_zero_alloc_slots(core::Propagation::NonFading);
}

TEST(HotPathAllocs, SteadyStateSlotLoopRayleigh) {
  expect_zero_alloc_slots(core::Propagation::Rayleigh);
}

TEST(HotPathAllocs, ConditionalBatchAllocatesNothing) {
  const model::Network net = paper_network(32, 5);
  const units::Threshold beta(2.0);
  std::vector<double> q_raw(net.size(), 0.5);
  q_raw[3] = 0.0;  // an exact zero exercises the skip branches
  const units::ProbabilityVector q = units::probabilities(q_raw);
  const model::LinkSet active = {0, 4, 9, 17, 30};
  std::vector<double> out;
  // Warm-up: out reaches its final capacity.
  core::batch_rayleigh_conditional_success_probabilities(net, q, beta, out);

  const auto expect_no_allocs = [](const char* what, auto&& call) {
    const std::uint64_t base = alloc_count();
    for (int rep = 0; rep < 100; ++rep) call();
    EXPECT_EQ(alloc_count() - base, 0u) << what << " allocated";
  };
  double sink = 0.0;
  expect_no_allocs("batch_rayleigh_conditional_success_probabilities", [&] {
    core::batch_rayleigh_conditional_success_probabilities(net, q, beta, out);
  });
  sink += out[1];
  expect_no_allocs("expected_rayleigh_successes", [&] {
    sink += core::expected_rayleigh_successes(net, q, beta);
  });
  expect_no_allocs("expected_successes_rayleigh", [&] {
    sink += model::expected_successes_rayleigh(net, active, beta);
  });
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(HotPathAllocs, SinrOutBufferReusesCapacity) {
  const model::Network net = paper_network(16, 9);
  util::RngStream rng(123);
  model::LinkSet active;
  for (model::LinkId i = 0; i < 8; ++i) active.push_back(i);

  std::vector<double> out;
  model::sinr_rayleigh_all(net, active, rng, out);  // warm: one allocation

  const std::uint64_t base = alloc_count();
  for (int i = 0; i < 100; ++i) {
    model::sinr_rayleigh_all(net, active, rng, out);
  }
  EXPECT_EQ(alloc_count(), base)
      << "out-buffer sinr_rayleigh_all allocated after warm-up";
  EXPECT_EQ(out.size(), active.size());
}

// The out-buffer overload must stay bit-identical to the returning form:
// same RNG draw order, same arithmetic.
TEST(HotPathAllocs, SinrOutBufferBitIdenticalToReturningForm) {
  const model::Network net = paper_network(12, 21);
  model::LinkSet active;
  for (model::LinkId i = 0; i < 12; i += 2) active.push_back(i);

  util::RngStream rng_a(7);
  util::RngStream rng_b(7);
  const std::vector<double> returned =
      model::sinr_rayleigh_all(net, active, rng_a);
  std::vector<double> reused(99, -1.0);  // dirty, wrong-sized buffer
  model::sinr_rayleigh_all(net, active, rng_b, reused);

  ASSERT_EQ(returned.size(), reused.size());
  for (std::size_t a = 0; a < returned.size(); ++a) {
    EXPECT_EQ(returned[a], reused[a]) << "entry " << a;
  }
}

}  // namespace
}  // namespace raysched
