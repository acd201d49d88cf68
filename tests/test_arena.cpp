// The scheduler arena survives the run: elaboration pre-sizes the delta
// buffers (Kernel::reserve_scheduler_arena), and draining them cycle after
// cycle must not give that memory back. A global operator new counts every
// heap allocation made inside run(); a sequential Smart FIFO pipeline that
// runs tens of thousands of delta cycles must stay far below one
// allocation per cycle, and so must a parallel run whose groups free-run
// tens of thousands of lookahead waves (the extension's scratch and the
// prepaid-wave ledger are retained across extensions).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

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

TEST(Arena, SteadyStateLookaheadExtensionsDoNotAllocate) {
  // Four writer -> reader clusters over depth-4 Smart FIFOs. Each cluster
  // is one concurrency group (the FIFO links its two domains), and the
  // writer domains are chained by 1 us decoupled links, so every group
  // free-runs bounded lookahead extensions beside the others. Per-element
  // publication is pinned, so the wave count does not depend on
  // TDSIM_CHUNKED.
  constexpr std::size_t kClusters = 4;
  constexpr std::uint64_t kWords = 8000;
  Kernel k(KernelConfig{.workers = 2, .default_chunk_capacity = 1});
  std::vector<SyncDomain*> writers;
  std::vector<std::unique_ptr<SmartFifo<std::uint32_t>>> fifos;
  std::vector<std::uint32_t> checksums(kClusters, 0);
  for (std::size_t c = 0; c < kClusters; ++c) {
    const std::string suffix = std::to_string(c);
    SyncDomain& writer = k.create_domain(
        {.name = "writer" + suffix, .quantum = 50_ns, .concurrent = true});
    SyncDomain& reader = k.create_domain(
        {.name = "reader" + suffix, .quantum = 50_ns, .concurrent = true});
    if (!writers.empty()) {
      k.link_domains(*writers.back(), writer, 1_us, "chain" + suffix);
    }
    writers.push_back(&writer);
    fifos.push_back(
        std::make_unique<SmartFifo<std::uint32_t>>(k, "f" + suffix, 4));
    SmartFifo<std::uint32_t>* fifo = fifos.back().get();
    k.spawn_thread("writer" + suffix, [&k, fifo, c] {
      for (std::uint64_t i = 0; i < kWords; ++i) {
        k.current_domain().inc(Time::from_ps(3000 * (1 + (i + c) % 3)));
        fifo->write(static_cast<std::uint32_t>(i));
      }
    }, {.domain = &writer});
    std::uint32_t* checksum = &checksums[c];
    k.spawn_thread("reader" + suffix, [&k, fifo, checksum, c] {
      for (std::uint64_t i = 0; i < kWords; ++i) {
        *checksum = *checksum * 31 + fifo->read();
        k.current_domain().inc(Time::from_ps(2000 * (1 + (i + c) % 3)));
      }
    }, {.domain = &reader});
  }

  g_allocations.store(0);
  g_counting.store(true);
  k.run();
  g_counting.store(false);
  const std::uint64_t allocations = g_allocations.load();

  std::uint32_t expected = 0;
  for (std::uint64_t i = 0; i < kWords; ++i) {
    expected = expected * 31 + static_cast<std::uint32_t>(i);
  }
  for (std::uint32_t checksum : checksums) {
    EXPECT_EQ(checksum, expected);
  }
  const std::uint64_t advances = k.stats().lookahead_advances;
  ASSERT_GT(advances, 20000u) << allocations;
  EXPECT_LT(allocations, advances / 16)
      << allocations << " allocations over " << advances
      << " lookahead advances";
}

}  // namespace
}  // namespace tdsim
