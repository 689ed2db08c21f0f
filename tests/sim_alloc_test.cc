// Proves the engines' zero-allocation steady state: after warm-up, a
// sustained schedule / fire / cancel / reschedule churn must perform no
// heap allocations at all, a simulation's allocation count must not grow
// with its horizon, and its allocated bytes must follow the queue depths a
// run reaches rather than the queue bounds. Counts allocations and bytes by
// replacing the global operator new family for this binary; the counters
// only run inside the measured region so gtest and runtime setup noise is
// excluded. They are atomic because the windowed engine allocates on its
// shard workers too.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "laar/appgen/app_generator.h"
#include "laar/dsps/stream_simulation.h"
#include "laar/dsps/trace.h"
#include "laar/sim/simulator.h"
#include "laar/strategy/baselines.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_bytes{0};
std::atomic<bool> g_counting{false};

void Count(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

void* CountedAlloc(std::size_t size) {
  Count(size);
  void* ptr = std::malloc(size != 0 ? size : 1);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  Count(size);
  void* ptr = nullptr;
  if (posix_memalign(&ptr, align, size != 0 ? size : align) != 0) {
    throw std::bad_alloc();
  }
  return ptr;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}

namespace laar::sim {
namespace {

constexpr int kWorkingSet = 128;

// One churn round at a fixed working-set size: schedule kWorkingSet
// events, reschedule a quarter, cancel a quarter, fire the rest. All
// lambdas are small and trivially copyable, so they ride the inline path.
void ChurnRound(Simulator* simulator, std::vector<EventId>* ids,
                uint64_t* fired) {
  ids->clear();
  for (int i = 0; i < kWorkingSet; ++i) {
    ids->push_back(simulator->ScheduleAfter(0.001 * (i + 1),
                                            [fired] { ++*fired; }));
  }
  for (size_t i = 0; i < ids->size(); i += 4) {
    simulator->Reschedule((*ids)[i], simulator->now() + 0.5);
  }
  for (size_t i = 1; i < ids->size(); i += 4) {
    simulator->Cancel((*ids)[i]);
  }
  simulator->Run();
}

TEST(SimAllocTest, SteadyStateChurnPerformsZeroHeapAllocations) {
  Simulator simulator;
  uint64_t fired = 0;
  std::vector<EventId> ids;
  ids.reserve(kWorkingSet);

  // Warm-up: grow the slot pool and heap array to the peak working set.
  for (int round = 0; round < 4; ++round) {
    ChurnRound(&simulator, &ids, &fired);
  }

  const size_t pool_before = simulator.pool_slots();
  g_allocations = 0;
  g_counting = true;
  for (int round = 0; round < 800; ++round) {  // ~100k engine operations
    ChurnRound(&simulator, &ids, &fired);
  }
  g_counting = false;

  EXPECT_EQ(g_allocations.load(), 0u);
  EXPECT_EQ(simulator.pool_slots(), pool_before);
  EXPECT_EQ(simulator.stats().boxed_callbacks, 0u);
  EXPECT_GT(fired, 0u);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

// The boxing fallback must still allocate exactly one box per oversize
// payload — the counter sees it, which doubles as a self-test that the
// instrumentation is live.
TEST(SimAllocTest, OversizePayloadsAllocateExactlyTheirBox) {
  Simulator simulator;
  struct Big {
    char bytes[EventCallback::kInlineBytes + 8] = {};
  };
  Big big;
  // Warm up the slot pool and heap array so only the box itself counts.
  simulator.ScheduleAt(0.5, [] {});
  simulator.Run();
  g_allocations = 0;
  g_counting = true;
  simulator.ScheduleAt(1.0, [big] { (void)big; });
  g_counting = false;
  EXPECT_EQ(g_allocations.load(), 1u);
  EXPECT_EQ(simulator.stats().boxed_callbacks, 1u);
  simulator.Run();
}

}  // namespace
}  // namespace laar::sim

namespace laar::dsps {
namespace {

struct RunAllocations {
  uint64_t count = 0;
  uint64_t bytes = 0;
};

/// Heap allocations performed by one failure-free run (build and run) of a
/// fixed generated application under static replication over `seconds` of
/// the all-low input configuration. `link_latency` > 0 selects the windowed
/// engine at 4 shards; 0 the synchronous engine.
RunAllocations RunAllocationsOf(double seconds, double link_latency,
                                double queue_seconds = 2.0) {
  appgen::GeneratorOptions generator;
  generator.num_pes = 12;
  generator.num_hosts = 6;
  auto app = appgen::GenerateApplication(generator, 6);
  EXPECT_TRUE(app.ok()) << app.status().ToString();
  strategy::ActivationStrategy sr = strategy::MakeStaticReplication(
      app->descriptor.graph, app->descriptor.input_space, 2);
  InputTrace trace;
  EXPECT_TRUE(trace.Append(seconds, 0).ok());
  RuntimeOptions options;
  options.queue_seconds = queue_seconds;
  if (link_latency > 0.0) {
    options.link_latency_seconds = link_latency;
    options.shards = 4;
  }
  StreamSimulation simulation(app->descriptor, app->cluster, app->placement, sr,
                              trace, options);
  g_allocations.store(0);
  g_bytes.store(0);
  g_counting.store(true);
  EXPECT_TRUE(simulation.Run().ok());
  g_counting.store(false);
  EXPECT_GT(simulation.metrics().sink_tuples, 0u);
  EXPECT_EQ(simulation.metrics().dropped_tuples, 0u);
  return RunAllocations{g_allocations.load(), g_bytes.load()};
}

/// Doubling the horizon adds 400 windows (and 1,600 shard-windows); a
/// windowed engine whose per-window bookkeeping recycles its storage adds
/// only the few reallocations of run-length series (per-bucket metrics,
/// amortized vector growth), far fewer than one per window.
TEST(SimAllocTest, WindowedSteadyStateAllocatesNothingPerWindow) {
  const uint64_t base = RunAllocationsOf(20.0, 0.05).count;
  const uint64_t doubled = RunAllocationsOf(40.0, 0.05).count;
  const uint64_t extra_windows = 400;
  ASSERT_GE(doubled, base);
  EXPECT_LT(doubled - base, extra_windows / 10)
      << "base run " << base << ", doubled run " << doubled;
}

/// The synchronous engine's counterpart: 20 more simulated seconds are
/// thousands more tuples and events, but once the queue rings have reached
/// their run's depth only the amortized growth of run-length series
/// allocates.
TEST(SimAllocTest, InlineSteadyStateAllocatesNothingPerTuple) {
  const RunAllocations base = RunAllocationsOf(20.0, 0.0);
  const RunAllocations doubled = RunAllocationsOf(40.0, 0.0);
  ASSERT_GE(doubled.count, base.count);
  EXPECT_LT(doubled.count - base.count, 16u)
      << "base run " << base.count << ", doubled run " << doubled.count;
}

/// Queue rings are sized to the depth a queue reaches, not to its bound: a
/// run whose queues never fill allocates about the same bytes whether its
/// queues may hold 2 s or 200 s of peak input. A ring allocated at its
/// bound would allocate about 100x the ring bytes at 200 s.
TEST(SimAllocTest, QueueMemoryFollowsDepthNotBound) {
  const RunAllocations short_queues = RunAllocationsOf(20.0, 0.0, 2.0);
  const RunAllocations long_queues = RunAllocationsOf(20.0, 0.0, 200.0);
  EXPECT_LT(long_queues.bytes, 2 * short_queues.bytes)
      << "queue_seconds 2: " << short_queues.bytes << " B, 200: " << long_queues.bytes
      << " B";
}

}  // namespace
}  // namespace laar::dsps
