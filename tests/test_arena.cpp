// The scheduler arena survives the run: elaboration pre-sizes the delta
// buffers (Kernel::reserve_scheduler_arena), and draining them cycle after
// cycle must not give that memory back. A global operator new counts every
// heap allocation made inside run(); a sequential Smart FIFO pipeline that
// runs tens of thousands of delta cycles must stay far below one
// allocation per cycle.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/smart_fifo.h"
#include "kernel/kernel.h"
#include "kernel/sync_domain.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

/// free() behind a call of its own: inside a replaced operator delete,
/// GCC takes the parameter for operator new's memory and would flag a
/// direct free() as mismatched, although this operator new used malloc().
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size != 0 ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace tdsim {
namespace {

TEST(Arena, SteadyStateDeltaCyclesDoNotAllocate) {
  // The fifo_narrow shape: source -> transmitter -> sink over depth-4
  // Smart FIFOs, so nearly every word blocks one side and costs delta
  // cycles. Sequential on purpose: the buffers under test are the
  // kernel's own, not a parallel round's.
  constexpr std::uint64_t kWords = 20000;
  Kernel k(KernelConfig{.workers = 0});
  SmartFifo<std::uint32_t> a(k, "a", 4);
  SmartFifo<std::uint32_t> b(k, "b", 4);
  std::uint32_t checksum = 0;
  k.spawn_thread("source", [&] {
    for (std::uint64_t i = 0; i < kWords; ++i) {
      k.current_domain().inc(Time::from_ps(3000 * (1 + i % 3)));
      a.write(static_cast<std::uint32_t>(i));
    }
  });
  k.spawn_thread("transmit", [&] {
    for (std::uint64_t i = 0; i < kWords; ++i) {
      const std::uint32_t word = a.read();
      k.current_domain().inc(Time::from_ps(2000));
      b.write(word);
    }
  });
  k.spawn_thread("sink", [&] {
    for (std::uint64_t i = 0; i < kWords; ++i) {
      checksum = checksum * 31 + b.read();
      k.current_domain().inc(Time::from_ps(3000 * (3 - i % 3)));
    }
  });

  g_allocations.store(0);
  g_counting.store(true);
  k.run();
  g_counting.store(false);
  const std::uint64_t allocations = g_allocations.load();

  std::uint32_t expected = 0;
  for (std::uint64_t i = 0; i < kWords; ++i) {
    expected = expected * 31 + static_cast<std::uint32_t>(i);
  }
  EXPECT_EQ(checksum, expected);
  const std::uint64_t deltas = k.stats().delta_cycles;
  ASSERT_GT(deltas, kWords);
  // What remains is the runnable deque's node churn and the buffers'
  // first growth; a buffer freed per cascade would cost about one
  // allocation per delta cycle.
  EXPECT_LT(allocations, deltas / 16)
      << allocations << " allocations over " << deltas << " delta cycles";
}

}  // namespace
}  // namespace tdsim
