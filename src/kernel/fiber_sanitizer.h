// Sanitizer fiber annotations for the stackful processes.
//
// AddressSanitizer tracks one stack per OS thread; every tdsim_fiber_switch
// (kernel/fiber_switch.h) between a scheduler stack and a process stack
// must be bracketed with __sanitizer_start_switch_fiber /
// __sanitizer_finish_switch_fiber or ASan corrupts its shadow on the first
// throw/no-return inside a fiber.
//
// ThreadSanitizer likewise keeps per-"fiber" shadow state: each process
// stack owns a __tsan_create_fiber handle, and every switch announces the
// destination with __tsan_switch_to_fiber immediately before the switch.
// This matters doubly since parallel per-domain execution: a fiber may
// suspend on one worker thread and resume on another, and the annotations
// (with the default synchronizing flags) both keep TSan's stacks straight
// and establish the happens-before edge for that migration.
//
// The helpers compile to nothing outside sanitizer builds.
//
// Switch protocol (all tdsim switches are scheduler <-> fiber, never
// fiber <-> fiber):
//   * before tdsim_fiber_switch: start_switch(&save, dest_bottom, dest_size,
//     dest_tsan_fiber); pass save == nullptr when the departing stack is
//     about to die (the trampoline's final switch), so ASan frees its fake
//     stack. dest_tsan_fiber is the destination's TSan handle: the
//     process's Process::tsan_fiber_ when entering a fiber, the execution
//     context's ExecContext::tsan_fiber when yielding back to a scheduler.
//   * right after resuming on the destination stack:
//     finish_switch(save_of_that_stack, &old_bottom, &old_size); the old
//     bounds are those of the stack we came from -- the fiber side uses
//     them to learn the scheduler stack's bounds.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define TDSIM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TDSIM_ASAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define TDSIM_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TDSIM_TSAN_FIBERS 1
#endif
#endif

#ifdef TDSIM_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef TDSIM_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace tdsim::fiber {

/// TSan shadow state for one fiber stack; null outside TSan builds (and a
/// valid "do nothing" value for start_switch).
inline void* tsan_create_fiber() {
#ifdef TDSIM_TSAN_FIBERS
  return __tsan_create_fiber(0);
#else
  return nullptr;
#endif
}

inline void tsan_destroy_fiber(void* fiber) {
#ifdef TDSIM_TSAN_FIBERS
  if (fiber != nullptr) {
    __tsan_destroy_fiber(fiber);
  }
#else
  (void)fiber;
#endif
}

/// The implicit TSan fiber of the calling OS thread -- what a scheduler
/// context switches back to.
inline void* tsan_current_fiber() {
#ifdef TDSIM_TSAN_FIBERS
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}

inline void start_switch(void** fake_stack_save, const void* dest_bottom,
                         std::size_t dest_size, void* dest_tsan_fiber) {
#ifdef TDSIM_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake_stack_save, dest_bottom, dest_size);
#else
  (void)fake_stack_save;
  (void)dest_bottom;
  (void)dest_size;
#endif
#ifdef TDSIM_TSAN_FIBERS
  // Flag 0 = synchronize on the switch: scheduler->fiber->scheduler edges
  // then order fiber memory accesses across worker-thread migrations.
  if (dest_tsan_fiber != nullptr) {
    __tsan_switch_to_fiber(dest_tsan_fiber, 0);
  }
#else
  (void)dest_tsan_fiber;
#endif
}

inline void finish_switch(void* fake_stack_save, const void** old_bottom,
                          std::size_t* old_size) {
#ifdef TDSIM_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack_save, old_bottom, old_size);
#else
  (void)fake_stack_save;
  (void)old_bottom;
  (void)old_size;
#endif
}

/// Clears ASan shadow poison left on a dead fiber's stack region so the
/// StackPool can hand the block to a new fiber. The trampoline's final
/// null-save switch frees the fake stack, but red zones painted onto the
/// real stack's shadow by the dead frames stay behind; a recycled stack
/// must start with clean shadow or the next fiber's first frames read as
/// poisoned.
inline void unpoison_stack(void* bottom, std::size_t size) {
#ifdef TDSIM_ASAN_FIBERS
  __asan_unpoison_memory_region(bottom, size);
#else
  (void)bottom;
  (void)size;
#endif
}

}  // namespace tdsim::fiber
