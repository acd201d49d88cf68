// Scale-out hardening (PR 10): the pooled fiber-stack allocator
// (kernel/stack_pool.h), eager stack reclamation across process
// death/rebirth and snapshot forks, the elaboration arena, and O(100)
// domains / O(10k) processes elaboration -- the bench_scale regime, at
// test size. Platform sizes scale down under sanitizers (fiber
// instrumentation makes 10k fibers needlessly slow there; the full size
// runs in the plain jobs and in bench_scale).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/fiber_sanitizer.h"
#include "kernel/kernel.h"
#include "kernel/kernel_config.h"
#include "kernel/snapshot.h"
#include "kernel/stack_pool.h"
#include "kernel/sync_domain.h"
#include "kernel/time.h"

namespace tdsim {
namespace {

using namespace tdsim::time_literals;

#if defined(TDSIM_ASAN_FIBERS) || defined(TDSIM_TSAN_FIBERS)
constexpr std::size_t kScaleDomains = 25;
constexpr std::size_t kScaleProcs = 1'000;
#else
constexpr std::size_t kScaleDomains = 100;
constexpr std::size_t kScaleProcs = 10'000;
#endif

struct PlatformResult {
  std::uint64_t final_date_ps = 0;
  std::uint64_t checksum = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t delta_cycles = 0;
  std::uint64_t processes_spawned = 0;
  std::uint64_t stack_acquires = 0;
  std::uint64_t stack_releases = 0;
  std::uint64_t arena_reserved_bytes = 0;
};

/// The bench_scale platform, miniaturized: `domains` concurrent clusters,
/// `procs` short-lived workers per generation, `lives` generations
/// respawned by per-cluster managers.
PlatformResult run_platform(std::size_t domains, std::size_t procs,
                            std::uint64_t lives, std::uint64_t steps,
                            std::size_t workers, bool pooled = true) {
  Kernel kernel(KernelConfig{.workers = workers, .pooled_stacks = pooled});
  struct Cluster {
    SyncDomain* domain = nullptr;
    std::uint64_t sink = 0;
  };
  std::vector<Cluster> clusters(domains);
  const Time step = 10_ns;
  const Time life_span = Time::from_ps(steps * step.ps());
  for (std::size_t c = 0; c < domains; ++c) {
    clusters[c].domain =
        &kernel.create_domain({.name = "cl" + std::to_string(c),
                               .quantum = 100_ns,
                               .concurrent = true});
  }
  const auto spawn_worker = [&kernel, &clusters, steps, step](
                                std::size_t c, std::size_t slot,
                                std::uint64_t gen) {
    Cluster& cluster = clusters[c];
    ThreadOptions opts;
    opts.domain = cluster.domain;
    opts.stack_size = 64 * 1024;
    kernel.spawn_thread(
        "c" + std::to_string(c) + "_w" + std::to_string(slot) + "_g" +
            std::to_string(gen),
        [&kernel, &cluster, steps, step, c, slot, gen] {
          std::uint64_t acc = (c * 131 + slot) * 31 + gen;
          for (std::uint64_t s = 0; s < steps; ++s) {
            acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
            kernel.current_domain().inc_and_sync_if_needed(step);
          }
          cluster.sink = cluster.sink * 31 + acc;
        },
        opts);
  };
  for (std::size_t c = 0; c < domains; ++c) {
    const std::size_t slots = procs / domains + (c < procs % domains);
    for (std::size_t slot = 0; slot < slots; ++slot) {
      spawn_worker(c, slot, 0);
    }
    if (lives > 1 && slots > 0) {
      ThreadOptions opts;
      opts.domain = clusters[c].domain;
      kernel.spawn_thread(
          "mgr" + std::to_string(c),
          [&kernel, &spawn_worker, c, slots, lives, life_span] {
            for (std::uint64_t gen = 1; gen < lives; ++gen) {
              kernel.wait(life_span);
              for (std::size_t slot = 0; slot < slots; ++slot) {
                spawn_worker(c, slot, gen);
              }
            }
          },
          opts);
    }
  }
  kernel.run();
  PlatformResult result;
  result.final_date_ps = kernel.now().ps();
  for (const Cluster& cluster : clusters) {
    result.checksum = result.checksum * 1099511628211ULL + cluster.sink;
  }
  const KernelStats& stats = kernel.stats();
  result.context_switches = stats.context_switches;
  result.delta_cycles = stats.delta_cycles;
  result.processes_spawned = stats.processes_spawned;
  result.stack_acquires = stats.stack_acquires;
  result.stack_releases = stats.stack_releases;
  result.arena_reserved_bytes = stats.arena_reserved_bytes;
  return result;
}

TEST(Scale, ElaboratesAndRunsLargePlatform) {
  const PlatformResult r =
      run_platform(kScaleDomains, kScaleProcs, /*lives=*/2, /*steps=*/20,
                   /*workers=*/0);
  // procs workers x 2 generations, plus one manager per cluster.
  EXPECT_EQ(r.processes_spawned, kScaleProcs * 2 + kScaleDomains);
  // Every thread got a stack...
  EXPECT_EQ(r.stack_acquires, r.processes_spawned);
  // ...and every one terminated, so every stack was eagerly reclaimed
  // (before PR 10, dead processes kept their stacks until kernel
  // destruction -- churn leaked the whole first generation).
  EXPECT_EQ(r.stack_releases, r.processes_spawned);
  // The elaboration arena pre-sized the scheduler containers.
  EXPECT_GT(r.arena_reserved_bytes, 0u);
}

TEST(Scale, BitExactAcrossWorkersAndAllocModes) {
  const PlatformResult reference =
      run_platform(8, 200, /*lives=*/3, /*steps=*/20, /*workers=*/0);
  const PlatformResult parallel =
      run_platform(8, 200, /*lives=*/3, /*steps=*/20, /*workers=*/2);
  const PlatformResult heap =
      run_platform(8, 200, /*lives=*/3, /*steps=*/20, /*workers=*/2,
                   /*pooled=*/false);
  for (const PlatformResult* r : {&parallel, &heap}) {
    EXPECT_EQ(r->final_date_ps, reference.final_date_ps);
    EXPECT_EQ(r->checksum, reference.checksum);
    EXPECT_EQ(r->context_switches, reference.context_switches);
    EXPECT_EQ(r->delta_cycles, reference.delta_cycles);
    EXPECT_EQ(r->processes_spawned, reference.processes_spawned);
    EXPECT_EQ(r->stack_acquires, reference.stack_acquires);
    EXPECT_EQ(r->arena_reserved_bytes, reference.arena_reserved_bytes);
  }
}

TEST(Scale, StackPoolAlignsAndSizes) {
  StackPool& pool = StackPool::instance();
  // An undersized request rounds up to the minimum class.
  StackPool::Acquired small = pool.acquire(100, /*guard=*/false);
  ASSERT_TRUE(static_cast<bool>(small.block));
  EXPECT_GE(small.block.size, kMinStackClass);
  // The SysV ABI needs the stack top (sp + size) that fiber::make_stack
  // builds under to be 16-byte aligned. Pool blocks are page-aligned on
  // both ends.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(small.block.sp) % 4096, 0u);
  EXPECT_EQ((reinterpret_cast<std::uintptr_t>(small.block.sp) +
             small.block.size) %
                16,
            0u);
  // Size classes are powers of two.
  EXPECT_EQ(small.block.size & (small.block.size - 1), 0u);
  StackPool::Acquired big = pool.acquire(200 * 1024, /*guard=*/true);
  ASSERT_TRUE(static_cast<bool>(big.block));
  EXPECT_GE(big.block.size, 200u * 1024);
  EXPECT_TRUE(big.block.guarded);
  pool.release(small.block);
  pool.release(big.block);
  // Releasing parks the blocks for reuse; an acquire of the same class
  // must recycle rather than map fresh.
  const std::uint64_t mapped = pool.mapped_bytes();
  StackPool::Acquired again = pool.acquire(100, /*guard=*/false);
  EXPECT_TRUE(again.recycled);
  EXPECT_EQ(pool.mapped_bytes(), mapped);
  pool.release(again.block);
}

TEST(Scale, RecyclesStacksAcrossChurn) {
  const std::uint64_t recycled_before = StackPool::instance().recycled_count();
  const PlatformResult r =
      run_platform(4, 100, /*lives=*/3, /*steps=*/10, /*workers=*/0);
  // Generations 2 and 3 respawn into the blocks generation 1 (and 2)
  // released: sequentially, at least one whole generation's worth of
  // acquisitions must have been recycled.
  EXPECT_EQ(r.stack_acquires, 100u * 3 + 4);
  EXPECT_GE(StackPool::instance().recycled_count() - recycled_before, 100u);
}

TEST(Scale, ForkRespawnsIntoReleasedStacks) {
  auto source = std::make_unique<Kernel>(KernelConfig{.workers = 0});
  source->build([](Kernel& k) {
    Kernel* kp = &k;
    for (int i = 0; i < 50; ++i) {
      k.spawn_thread("t" + std::to_string(i), [kp] {
        for (int s = 0; s < 5; ++s) {
          kp->wait(10_ns);
        }
      });
    }
  });
  source->run();
  // All 50 threads terminated; their stacks went back to the pool.
  EXPECT_EQ(source->stats().stack_releases, 50u);
  const Snapshot snap = source->snapshot();
  source.reset();
  // The fork's replay respawns the same 50 threads -- into the blocks
  // the source's processes vacated (the pool is process-wide).
  std::unique_ptr<Kernel> fork = Kernel::fork(snap);
  EXPECT_EQ(fork->stats().stack_acquires, 50u);
  EXPECT_GE(fork->stats().stack_recycles, 50u);
  fork->run();
  EXPECT_EQ(fork->stats().stack_releases, 50u);
}

#if !defined(TDSIM_TSAN_FIBERS)
// A fiber blowing through its stack must fault on the guard page
// instead of silently corrupting the adjacent allocation -- the
// overflow-detection bugfix. (Skipped under TSan: death tests re-execute
// through fork, which TSan's runtime does not support reliably.)
TEST(ScaleDeathTest, StackOverflowHitsGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Kernel kernel(KernelConfig{.workers = 0});
        ThreadOptions opts;
        opts.stack_size = 16 * 1024;  // minimum class: overflows quickly
        struct Recurse {
          static std::uint64_t deep(std::uint64_t depth) {
            volatile char frame[512];
            frame[0] = static_cast<char>(depth);
            frame[511] = frame[0];
            if (depth == 0) {
              return frame[511];
            }
            return deep(depth - 1) + frame[0];
          }
        };
        kernel.spawn_thread("overflower", [] {
          // 4096 frames x ~0.5 KiB >> 16 KiB of stack.
          Recurse::deep(4096);
        });
        kernel.run();
      },
      ".*");
}
#endif

}  // namespace
}  // namespace tdsim
