// Simulation processes: stackful threads (SC_THREAD analog) and
// run-to-completion methods (SC_METHOD analog).
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kernel/local_clock.h"
#include "kernel/stack_pool.h"
#include "kernel/time.h"

namespace tdsim {

class Kernel;
class Event;
class SyncDomain;

enum class ProcessKind {
  /// Stackful coroutine; may call Kernel::wait(). Resuming one costs a
  /// machine context switch.
  Thread,
  /// Plain function invoked by the scheduler; must return, may call
  /// Kernel::next_trigger(). No stack of its own, so no context switch.
  Method,
};

enum class ProcessState { Ready, Running, Waiting, Terminated };

/// Internal exception thrown at a thread's suspension point when the kernel
/// tears down, so the thread's stack unwinds and RAII cleanup runs. User
/// code should not catch it (catch(...) handlers should rethrow).
struct ProcessKilled {};

/// A simulation process. Created only through Kernel::spawn_thread /
/// Kernel::spawn_method; identified by a stable pointer (the "process
/// handle" that the paper's local-time map is keyed by).
class Process {
 public:
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process();

  const std::string& name() const { return name_; }
  ProcessKind kind() const { return kind_; }
  ProcessState state() const { return state_; }
  bool terminated() const { return state_ == ProcessState::Terminated; }
  std::uint64_t id() const { return id_; }
  Kernel& kernel() const { return kernel_; }

  /// Number of times this process has been dispatched. Used by the
  /// temporal-decoupling layer to reset a method's local-time offset at the
  /// start of each activation.
  std::uint64_t activation_count() const { return activation_count_; }

  /// The process's temporal-decoupling clock: its local date is
  /// kernel.now() + clock().offset(). The paper keeps this association in a
  /// map keyed by the process handle; owning our kernel, we store it in the
  /// process itself for O(1) access (see DESIGN.md). Methods have their
  /// offset reset to zero at each activation.
  LocalClock& clock() { return clock_; }
  const LocalClock& clock() const { return clock_; }

  /// The synchronization domain this process belongs to: quantum policy
  /// and sync accounting for this process go through it. Fixed at spawn
  /// (ThreadOptions/MethodOptions::domain, module default, or the kernel
  /// default domain); reassignable via Kernel::assign_domain() only before
  /// elaboration.
  SyncDomain& domain() const { return *domain_; }

 private:
  friend class Kernel;
  friend class Event;

  Process(Kernel& kernel, std::string name, ProcessKind kind,
          std::function<void()> body, std::size_t stack_size,
          std::uint64_t id);

  void start_thread_context();
  static void trampoline(void* self);

  /// Bottom of this thread's fiber stack (pooled block or legacy heap
  /// allocation), as handed to fiber::make_stack and the sanitizer
  /// switches.
  char* stack_bottom() const {
    return stack_block_ ? stack_block_.sp : heap_stack_.get();
  }

  /// Usable stack bytes: the pool rounds the requested size up to its
  /// size class, the heap path allocates exactly what was asked.
  std::size_t stack_usable_size() const {
    return stack_block_ ? stack_block_.size : stack_size_;
  }

  /// Frees the fiber's stack and sanitizer state, in the order the
  /// teardown audit requires: TSan fiber destroyed first (the ASan fake
  /// stack was already freed by the trampoline's final null-save switch),
  /// then the block returned to the StackPool -- or retired when
  /// `abandoned` (a fiber that survived a kill request still references
  /// its pages). Idempotent; must only be called while a scheduler
  /// context is current, never from the fiber itself.
  void release_stack(bool abandoned);

  Kernel& kernel_;
  std::string name_;
  ProcessKind kind_;
  std::function<void()> body_;
  std::uint64_t id_;

  ProcessState state_ = ProcessState::Ready;
  bool in_runnable_ = false;
  bool dont_initialize_ = false;
  std::uint64_t activation_count_ = 0;

  /// Bumped whenever the process is woken or re-armed; invalidates stale
  /// timed queue entries referring to it.
  std::uint64_t wake_generation_ = 0;

  /// True while a timed-queue resume entry for the current wake generation
  /// exists (a process has at most one). Lets the kernel keep an exact
  /// count of stale entries for queue compaction.
  bool has_live_resume_entry_ = false;

  /// See domain(). Set by Kernel::spawn_* before anything can observe it.
  SyncDomain* domain_ = nullptr;

  /// See clock().
  LocalClock clock_{*this, kernel_};

  /// Event this process is dynamically waiting on (thread wait(event) or
  /// method next_trigger(event)), for removal on cancellation/timeout.
  Event* waiting_event_ = nullptr;

  /// Set by Event when the process is woken by an event (vs a timeout);
  /// consumed by Kernel::wait(Event&, Time).
  bool woke_by_event_ = false;

  // --- thread-only state ---
  std::size_t stack_size_ = 0;
  /// Pooled stack block (KernelConfig::pooled_stacks, the default).
  StackBlock stack_block_;
  /// Legacy per-process heap stack (TDSIM_STACK_POOL=0); see
  /// Kernel::acquire_fiber_stack for why it remains.
  std::unique_ptr<char[]> heap_stack_;
  /// Saved stack pointer while this fiber is switched away from (see
  /// kernel/fiber_switch.h).
  void* context_ = nullptr;
  bool thread_started_ = false;
  bool kill_requested_ = false;
  std::exception_ptr pending_exception_;
  /// ASan fake-stack handle saved while this fiber is switched away from
  /// (see kernel/fiber_sanitizer.h).
  void* fake_stack_ = nullptr;
  /// TSan fiber handle for this stack (see kernel/fiber_sanitizer.h);
  /// null outside TSan builds.
  void* tsan_fiber_ = nullptr;

  // --- method-only state ---
  std::vector<Event*> static_sensitivity_;
  /// True while a next_trigger() override is armed; static sensitivity is
  /// ignored until the dynamic trigger fires.
  bool trigger_override_ = false;
};

}  // namespace tdsim
