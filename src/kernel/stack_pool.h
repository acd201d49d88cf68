// Process-wide pooled allocator for fiber stacks.
//
// Before PR 10 every thread process allocated its stack with
// std::make_unique<char[]> -- a value-initializing heap allocation that
// (a) memsets the whole stack (256 KiB by default) at spawn, (b) carries
// no alignment guarantee beyond malloc's, and (c) detects nothing when a
// fiber overflows into the adjacent allocation. At O(10k) processes the
// zeroing alone dominates elaboration, and process churn (kill/respawn,
// snapshot-fork fan-out) pays it again per rebirth.
//
// The StackPool replaces that with mmap-backed, size-classed, recycled
// blocks:
//
//   * Size classes are powers of two (>= kMinStackClass); a released
//     block goes on its class's free list and the next acquire of a
//     compatible size reuses it without touching its pages -- no zeroing,
//     no page faults beyond what the fiber actually used.
//   * The usable region is page-aligned on both ends, so the stack top
//     (sp + size) under which fiber::make_stack lays the first frame is
//     16-byte aligned as the SysV ABI expects.
//   * One guard page sits below the stack (stacks grow down). With
//     guarding enabled (the default; KernelConfig::stack_guard /
//     TDSIM_STACK_GUARD=0 to disable) the page is PROT_NONE, so a fiber
//     stack overflow faults loudly instead of silently corrupting a
//     neighbouring stack. The page is reserved even when unguarded, so
//     a block can be upgraded with one mprotect when a guarding kernel
//     recycles it.
//   * The pool is process-wide, like the Scheduler: stacks released by
//     one kernel (process termination, kernel destruction) are recycled
//     by the next -- snapshot forks replaying a platform re-spawn into
//     the blocks their source's processes vacated.
//
// Sanitizer discipline (the teardown-ordering audit of PR 10): a block
// may only be released once the fiber's sanitizer state is gone -- the
// ASan fake stack is freed by the trampoline's final null-save switch,
// the TSan fiber is destroyed by Process::release_stack() *before* the
// pool reclaims the block, and release() unpoisons the region's ASan
// shadow so a recycled block starts clean for its next fiber. A fiber
// that never terminated (a process that survived a kill request) must
// NOT be released; retire() accounts for the block without ever handing
// it out again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace tdsim {

/// Smallest size class (bytes of usable stack). Requests below are
/// rounded up; every class is a power of two.
inline constexpr std::size_t kMinStackClass = 16 * 1024;

/// One pooled fiber stack. `sp`/`size` are what fiber::make_stack and the
/// sanitizer switches receive: the usable region, page-aligned on both ends
/// (so the stack top is 16-byte aligned). `map_base`/`map_size` cover the
/// whole mapping including the guard page below `sp`.
struct StackBlock {
  char* sp = nullptr;
  std::size_t size = 0;
  void* map_base = nullptr;
  std::size_t map_size = 0;
  /// The guard page below sp is PROT_NONE.
  bool guarded = false;

  explicit operator bool() const { return sp != nullptr; }
};

class StackPool {
 public:
  /// The process-wide instance (kernels share recycled stacks, like they
  /// share the Scheduler's workers).
  static StackPool& instance();

  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  struct Acquired {
    StackBlock block;
    /// Served from a free list (no fresh mapping, no page zeroing).
    bool recycled = false;
  };

  /// Returns a block of at least `min_size` usable bytes, guard page
  /// armed when `guard`. Reports an error (throws SimulationError) when
  /// the system is out of mappings/memory. Thread-safe: spawns from
  /// parallel rounds of several kernels may race here.
  Acquired acquire(std::size_t min_size, bool guard);

  /// Returns `block` to its class's free list for reuse. The caller must
  /// have released every sanitizer handle referring to the block first
  /// (see the header comment); release() unpoisons the ASan shadow.
  void release(const StackBlock& block);

  /// Accounts for a block whose fiber never terminated: the suspended
  /// context may still reference the pages, so the block is neither
  /// recycled nor unmapped -- deliberately leaked, matching the kernel's
  /// "abandoning its stack" warning.
  void retire(const StackBlock& block);

  // --- diagnostics (tests, bench reporting) ---

  /// Blocks currently parked on free lists.
  std::size_t free_blocks() const;
  /// Bytes currently mapped by the pool (free + live + retired).
  std::uint64_t mapped_bytes() const;
  /// Lifetime count of acquire() calls served from a free list.
  std::uint64_t recycled_count() const;

 private:
  StackPool() = default;
  ~StackPool();

  static std::size_t class_index(std::size_t min_size);

  mutable std::mutex mutex_;
  /// Free lists indexed by size class (log2(size) - log2(kMinStackClass)).
  std::vector<std::vector<StackBlock>> free_;
  std::uint64_t mapped_bytes_ = 0;
  std::uint64_t retired_blocks_ = 0;
  std::uint64_t recycled_count_ = 0;
};

}  // namespace tdsim
