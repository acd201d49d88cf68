// The register-only fiber switch (kernel/fiber_switch.h): exceptions
// unwind a fiber's frames and surface from run() with the process named;
// the MXCSR and x87 control word travel with each fiber; a fresh fiber's
// first frame is 16-byte aligned; fibers resume correctly on a different
// worker than the one they suspended on, and still resolve themselves
// through the inline fast path (current process and domain, clock
// annotations, Smart FIFO accesses) there; and short-lived fibers hand
// every pooled stack back.
#include <gtest/gtest.h>
#include <xmmintrin.h>

#include <cfenv>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/smart_fifo.h"
#include "kernel/kernel.h"
#include "kernel/stack_pool.h"
#include "kernel/sync_domain.h"

namespace tdsim {
namespace {

int g_destroyed = 0;

struct CountsDestruction {
  ~CountsDestruction() { ++g_destroyed; }
};

[[gnu::noinline]] int throw_deep(int depth) {
  CountsDestruction guard;
  if (depth == 0) {
    throw std::runtime_error("thrown five frames down");
  }
  return throw_deep(depth - 1) + 1;
}

TEST(Fiber, ExceptionDeepInFiberSurfacesFromRunWithProcessNamed) {
  g_destroyed = 0;
  Kernel k(KernelConfig{.workers = 0});
  k.spawn_thread("bystander", [&k] { k.wait(100_ns); });
  k.spawn_thread("thrower", [&k] {
    CountsDestruction outer;
    k.wait(10_ns);  // throw after a suspension, not on the first entry
    throw_deep(4);
  });
  try {
    k.run();
    FAIL() << "run() should have rethrown the fiber's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "thrown five frames down");
  }
  // Five throw_deep frames plus the body's own local were unwound.
  EXPECT_EQ(g_destroyed, 6);
  ASSERT_NE(k.failure(), nullptr);
  EXPECT_EQ(k.failure()->process, "thrower");
  EXPECT_EQ(k.now(), 10_ns);
}

unsigned mxcsr_rounding() { return _MM_GET_ROUNDING_MODE(); }

TEST(Fiber, FloatingPointControlStateStaysWithItsFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  Kernel k(KernelConfig{.workers = 0});
  std::map<std::string, std::vector<unsigned>> mxcsr;
  std::map<std::string, std::vector<int>> x87;
  const auto record = [&](const std::string& who) {
    mxcsr[who].push_back(mxcsr_rounding());
    x87[who].push_back(std::fegetround());
  };
  k.spawn_thread("rounder", [&] {
    std::fesetround(FE_UPWARD);  // sets both the MXCSR and the x87 mode
    record("rounder");
    // Spawned while this fiber rounds upward: a fresh fiber starts from
    // the scheduler's state, not its spawner's.
    k.spawn_thread("late", [&] { record("late"); });
    k.wait(10_ns);
    record("rounder");
    k.wait_delta();
    record("rounder");
    k.wait(10_ns);
    record("rounder");
  });
  k.spawn_thread("sibling", [&] {
    k.wait(5_ns);
    record("sibling");
    k.wait(10_ns);
    record("sibling");
  });
  // A method runs on the scheduler's stack, so it sees the scheduler's
  // state between fiber switches.
  k.spawn_method("observer", [&] {
    record("scheduler");
    if (k.now() < 30_ns) {
      k.next_trigger(7_ns);
    }
  });
  k.run();

  EXPECT_EQ(mxcsr["rounder"], std::vector<unsigned>(4, _MM_ROUND_UP));
  EXPECT_EQ(x87["rounder"], std::vector<int>(4, FE_UPWARD));
  for (const char* who : {"late", "sibling", "scheduler"}) {
    ASSERT_FALSE(mxcsr[who].empty()) << who;
    EXPECT_EQ(mxcsr[who],
              std::vector<unsigned>(mxcsr[who].size(), _MM_ROUND_NEAREST))
        << who;
    EXPECT_EQ(x87[who], std::vector<int>(x87[who].size(), FE_TONEAREST))
        << who;
  }
  EXPECT_EQ(mxcsr_rounding(), _MM_ROUND_NEAREST);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

// Each probe is its own noinline function: a frame holding an alignas(32)
// local realigns its own stack pointer, which would hide a misaligned
// caller from every probe called after it.

/// With frame pointers the frame address sits 16 bytes below the caller's
/// call-site stack pointer, so it is 16-byte aligned exactly when every
/// frame above it -- down to the entry stub's call -- kept the ABI's
/// alignment.
[[gnu::noinline]] std::uintptr_t frame_address() {
  return reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
}

/// The compiler places this without realigning, trusting the entry
/// alignment.
[[gnu::noinline]] std::uintptr_t sixteen_aligned_local() {
  alignas(16) volatile char local[16];
  local[0] = 1;
  return reinterpret_cast<std::uintptr_t>(local);
}

[[gnu::noinline]] std::uintptr_t thirty_two_aligned_local() {
  alignas(32) volatile double local[4];
  local[0] = 1.0;
  return reinterpret_cast<std::uintptr_t>(local);
}

TEST(Fiber, FreshFiberStackIsAligned) {
  Kernel k(KernelConfig{.workers = 0});
  std::vector<std::uintptr_t> frames;
  std::vector<std::uintptr_t> addresses16;
  std::vector<std::uintptr_t> addresses32;
  for (int i = 0; i < 4; ++i) {
    k.spawn_thread("aligned" + std::to_string(i), [&] {
      for (int round = 0; round < 2; ++round) {
        frames.push_back(frame_address());
        addresses16.push_back(sixteen_aligned_local());
        addresses32.push_back(thirty_two_aligned_local());
        k.wait(1_ns);
      }
    });
  }
  k.run();
  ASSERT_EQ(frames.size(), 8u);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i] % 16, 0u) << i;
    EXPECT_EQ(addresses16[i] % 16, 0u) << i;
    EXPECT_EQ(addresses32[i] % 32, 0u) << i;
  }
}

/// pthread_self() is declared const, so inlined reads of the thread id may
/// be merged across a suspension -- the same hazard Kernel::thread_exec()
/// guards against. noipa keeps every call a fresh read.
[[gnu::noipa]] std::thread::id current_thread() {
  return std::this_thread::get_id();
}

struct MigrationResult {
  std::vector<std::uint64_t> checksums;
  std::vector<Time> end_dates;
  std::uint64_t context_switches = 0;
  /// Resumptions that happened on a different OS thread than the
  /// suspension that preceded them.
  std::uint64_t migrations = 0;
  /// Resumptions after which the kernel named another process or domain
  /// as the caller's, or a private FIFO handed back the wrong word.
  std::uint64_t misresolved = 0;
};

MigrationResult run_migration(std::size_t workers) {
  constexpr int kFibers = 8;
  constexpr int kSteps = 2000;
  // No free-running: every timed wave is a barrier round whose group
  // tasks the pool and the driving thread share out afresh.
  Kernel k(KernelConfig{.workers = workers, .lookahead_limit = 0});
  MigrationResult result;
  result.checksums.resize(kFibers);
  result.end_dates.resize(kFibers);
  std::vector<std::uint64_t> migrations(kFibers);
  std::vector<std::uint64_t> misresolved(kFibers);
  // One private FIFO per migrant: only its own domain touches it, so it
  // links no groups.
  std::vector<std::unique_ptr<SmartFifo<std::uint64_t>>> fifos;
  for (int f = 0; f < kFibers; ++f) {
    fifos.push_back(std::make_unique<SmartFifo<std::uint64_t>>(
        k, "private" + std::to_string(f), 2));
  }
  for (int f = 0; f < kFibers; ++f) {
    // Unlinked concurrent domains: every fiber is its own group, so with
    // workers the groups spread over the pool round by round.
    SyncDomain& domain = k.create_domain({.name = "d" + std::to_string(f),
                                          .quantum = 1_ns,
                                          .concurrent = true});
    ThreadOptions opts;
    opts.domain = &domain;
    k.spawn_thread("migrant" + std::to_string(f), [&, f] {
      // Several values live across every suspension, so the callee-saved
      // registers carry them through the switch.
      std::uint64_t a = 0x9e3779b97f4a7c15ull * (f + 1);
      std::uint64_t b = f + 3;
      std::uint64_t c = 1;
      double d = 0.5 * f;
      const Process* self = k.current_process();
      SmartFifo<std::uint64_t>& fifo = *fifos[f];
      for (int i = 0; i < kSteps; ++i) {
        const std::thread::id before = current_thread();
        k.wait(Time::from_ps(1000 + ((i * 7 + f) % 3) * 1000));
        if (current_thread() != before) {
          migrations[f]++;
        }
        // The same body, after the resume, runs every inline thread-local
        // resolution: a TLS address cached across the switch would name
        // the original worker's process here.
        if (k.current_process() != self || &k.current_domain() != &domain) {
          misresolved[f]++;
        }
        domain.inc(Time::from_ps(100));
        domain.inc_and_sync_if_needed(Time::from_ps(100));
        fifo.write(a);
        if (fifo.read() != a) {
          misresolved[f]++;
        }
        a = a * 6364136223846793005ull + b;
        b ^= a >> 17;
        c += (a & 0xff) + i;
        d += static_cast<double>(c % 13) * 0.25;
      }
      result.checksums[f] = a ^ b ^ c ^ static_cast<std::uint64_t>(d);
      result.end_dates[f] = k.now();
    }, opts);
  }
  k.run();
  result.context_switches = k.stats().context_switches;
  for (std::uint64_t m : migrations) {
    result.migrations += m;
  }
  for (std::uint64_t m : misresolved) {
    result.misresolved += m;
  }
  return result;
}

TEST(Fiber, ResumesCorrectlyOnAnotherWorker) {
  const MigrationResult reference = run_migration(0);
  EXPECT_EQ(reference.migrations, 0u);
  EXPECT_EQ(reference.misresolved, 0u);
  // The driving thread works off group tasks alongside the pool worker,
  // so some resumptions (hundreds of the 16000 on a 4-core x86-64 host)
  // land on the other thread. Which ones is up to the OS scheduler: on a
  // loaded host a run can keep every fiber on one thread, so repeat until
  // one migrates. Every run must match the sequential reference.
  std::uint64_t migrations = 0;
  for (int attempt = 0; attempt < 10 && migrations == 0; ++attempt) {
    const MigrationResult parallel = run_migration(2);
    EXPECT_EQ(parallel.checksums, reference.checksums);
    EXPECT_EQ(parallel.end_dates, reference.end_dates);
    EXPECT_EQ(parallel.context_switches, reference.context_switches);
    EXPECT_EQ(parallel.misresolved, 0u);
    migrations = parallel.migrations;
  }
  EXPECT_GT(migrations, 0u);
}

TEST(Fiber, ShortLivedFibersReturnEveryStack) {
  constexpr int kWaves = 100;
  constexpr int kPerWave = 100;
  const std::uint64_t recycled_before = StackPool::instance().recycled_count();
  Kernel k(KernelConfig{.workers = 0});
  int finished = 0;
  k.spawn_thread("spawner", [&] {
    ThreadOptions opts;
    opts.stack_size = 16 * 1024;
    for (int wave = 0; wave < kWaves; ++wave) {
      for (int i = 0; i < kPerWave; ++i) {
        k.spawn_thread("short" + std::to_string(wave * kPerWave + i), [&] {
          k.wait(1_ns);
          ++finished;
        }, opts);
      }
      k.wait(2_ns);
    }
  });
  k.run();
  EXPECT_EQ(finished, kWaves * kPerWave);
  // Every fiber (the spawner included) terminated, so every stack went
  // back to the pool; later waves reused the earlier waves' blocks.
  EXPECT_EQ(k.stats().stack_acquires, kWaves * kPerWave + 1u);
  EXPECT_EQ(k.stats().stack_releases, k.stats().stack_acquires);
  EXPECT_GE(StackPool::instance().recycled_count() - recycled_before,
            static_cast<std::uint64_t>((kWaves - 1) * kPerWave));
}

}  // namespace
}  // namespace tdsim
