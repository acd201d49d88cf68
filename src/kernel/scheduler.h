// The process-wide worker-thread scheduler behind every kernel's parallel
// execution (see README "Fleet / scheduler").
//
// Before PR 8 each Kernel owned a private ThreadPool, so N concurrently
// constructed kernels meant N pools' worth of OS threads -- untenable for
// the simulation-as-a-service model where thousands of cheap Kernel
// instances (scenario forks, parameter sweeps) multiplex over one machine.
// The Scheduler is the lifted pool: one process-wide singleton that every
// kernel registers with as a *client*, holding
//
//   * a per-client task queue (one task per runnable concurrency group,
//     submitted by that kernel's phase driver),
//   * a per-client worker *quota* -- the kernel's configured worker count
//     (KernelConfig::workers). At most quota-1 pool workers execute a
//     client's tasks at any moment; the client's own driving thread is the
//     quota's remaining slot (it steals its own tasks inside
//     help_until_done, exactly like the old pool's help_until_idle), so a
//     kernel configured for n workers never occupies more than n threads
//     even when the shared pool is larger;
//   * fair round-robin dispatch: idle workers scan clients starting after
//     the last client served, so a burst from one kernel cannot starve
//     the others' queues.
//
// The pool grows lazily to the largest quota any live client has declared
// (max over clients of quota-1 threads) and never shrinks; threads park on
// a condition variable when no client has eligible work, so an idle pool
// costs nothing but the parked threads.
//
// Determinism is unchanged from the per-kernel pool: which OS thread runs
// a task is timing-dependent, but tasks only touch their concurrency
// group's exclusive state and each kernel merges side effects in
// deterministic group order on its own driving thread at the horizon.
// That per-kernel guarantee composes: kernels share no simulation state,
// so N kernels multiplexed over one pool each produce bit-identical
// results to their solo runs (tests/test_scheduler.cpp enforces it;
// fleet::Supervisor relies on it).
//
// Tasks must not throw. Kernels uphold this by construction: the one
// group body (Kernel::run_group, for barrier rounds and lookahead
// extensions alike) wraps its entire body in a catch-all that captures
// into GroupTask::exception, and the horizon merge drains every task's
// buffers before rethrowing the first captured exception on the driving
// thread -- where it transitions that kernel (and only that kernel) to
// Health::Failed (see kernel/failure.h). A throwing task would otherwise
// unwind a worker every sibling kernel depends on.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace tdsim {

class Scheduler {
 public:
  /// A scheduler task: `fn(arg)`. A raw pair, not a std::function --
  /// kernels submit every runnable group on every evaluation round, and a
  /// bare pair never allocates on that path.
  using TaskFn = void (*)(void*);

  /// Client handle; returned by register_client, passed to everything
  /// else.
  using ClientId = std::size_t;

  /// The process-wide instance. Constructed on first use, joined at
  /// process exit.
  static Scheduler& instance();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Registers a client (one per Kernel) with the given worker quota.
  /// Slots are recycled, so churning kernels do not grow the table.
  ClientId register_client(std::size_t quota);

  /// Drops the client. Must not be called with tasks still queued or
  /// running (the owning kernel's horizons guarantee quiescence).
  void unregister_client(ClientId id);

  /// Updates the client's worker quota; the pool grows to match at the
  /// client's next dispatch. Kernels call this from set_workers during
  /// elaboration -- the quota is fixed while the client has work in
  /// flight.
  void set_client_quota(ClientId id, std::size_t quota);

  /// Enqueues `fn(arg)` on the client's queue. With a zero effective
  /// allowance (quota <= 1) pool workers never pick the task up; the
  /// client's own help_until_done runs it -- degenerate but legal, and
  /// how a sequential kernel would behave if it ever submitted.
  void submit(ClientId id, TaskFn fn, void* arg);

  /// Blocks until every task the client submitted has finished -- the
  /// barrier each kernel's synchronization horizons are made of. While
  /// tasks of *this client* are still queued, the calling thread pulls
  /// them off and runs them itself instead of sleeping (it never runs
  /// another client's tasks: its stack carries kernel-specific fiber
  /// state, and blocking semantics must not couple kernels). Returns the
  /// number of tasks the caller ran this way (the kernel's steal
  /// counter).
  std::uint64_t help_until_done(ClientId id);

  /// Current pool thread count (diagnostics/tests).
  std::size_t threads() const;

  /// Live registered clients (diagnostics/tests).
  std::size_t clients() const;

 private:
  struct Client {
    std::deque<std::pair<TaskFn, void*>> queue;
    /// Tasks of this client currently executing on pool workers (not
    /// counting the client's own helping thread).
    std::size_t pool_running = 0;
    /// Tasks the client's own thread is executing inside help_until_done.
    std::size_t self_running = 0;
    /// Pool-worker concurrency allowance: quota-1 (the driving thread is
    /// the last quota slot).
    std::size_t allowance = 0;
    bool in_use = false;
  };

  Scheduler() = default;
  ~Scheduler();

  /// Grows the pool to `want` threads. Caller holds mutex_.
  void ensure_threads_locked(std::size_t want);

  /// Round-robin pick: the first client at or after rr_cursor_ with
  /// queued work and pool_running < allowance. Caller holds mutex_.
  /// Returns false when no client has eligible work.
  bool pick_task_locked(ClientId& id, TaskFn& fn, void*& arg);

  void worker_main();

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  /// Broadcast whenever any task completes; help_until_done waits on it.
  std::condition_variable done_cv_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<ClientId> free_slots_;
  std::size_t live_clients_ = 0;
  /// One past the last client served; workers scan from here.
  std::size_t rr_cursor_ = 0;
  std::vector<std::thread> threads_;
  bool shutdown_ = false;
};

}  // namespace tdsim
