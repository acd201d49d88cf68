// The discrete-event scheduler: evaluate -> update -> delta-notify phases,
// timed notification queue, process dispatch. This is the SystemC-kernel
// substrate the paper's techniques run on.
//
// Since PR 3 the evaluation phase can run in parallel: independent
// *concurrency groups* of SyncDomains are dispatched onto a worker-thread
// pool between synchronization horizons (see "Parallel execution" in the
// README). Parallel mode is opt-in (set_workers), n <= 1 keeps the
// sequential scheduler bit-exact, and n >= 2 produces bit-identical dates,
// delta counts and per-cause sync counts by construction: each group
// executes its processes in kernel schedule order on one worker, and all
// scheduler side effects are buffered per group and merged in group order
// at the horizon.
//
// Since PR 6, conservative per-group lookahead (Chandy-Misra-Bryant
// style) sits on top: link_domains(a, b, min_latency) records a *weighted*
// inter-group edge instead of merging the groups, the kernel derives per
// group the earliest date any inbound edge could affect it, and a group
// whose bound exceeds the next global horizon free-runs whole timed waves
// on its worker without rendezvousing the others -- with the wave/delta
// accounting reconstructed at the merge so results stay bit-identical.
// Zero-latency links keep merging, i.e. fall back to the barrier.
//
// All three modes run one engine. The kernel and every group task own the
// same buffer set (Cascade), and the sequential loop and a free-running
// wave drive it through the same evaluate loop, delta step and timed-entry
// firing. Barrier rounds and lookahead extensions share one group body
// (run_group), one dispatch and one horizon merge; they differ only in how
// far a group may run -- one evaluation phase, or whole timed waves up to
// its lookahead window.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "kernel/cacheline.h"
#include "kernel/event.h"
#include "kernel/failure.h"
#include "kernel/fault_plan.h"
#include "kernel/kernel_config.h"
#include "kernel/process.h"
#include "kernel/snapshot.h"
#include "kernel/stats.h"
#include "kernel/sync_domain.h"
#include "kernel/time.h"

namespace tdsim {

class QuantumController;
struct QuantumDecision;

/// Implemented by primitive channels (e.g. Signal) that need the SystemC
/// evaluate/update two-phase protocol.
class UpdateListener {
 public:
  virtual ~UpdateListener() = default;
  virtual void update() = 0;
};

/// Implemented by the Smart FIFO, the one chunked channel, which
/// registers while it publishes in chunks (chunk capacity >= 2; see
/// core/smart_fifo.h). The scheduler calls flush_chunks() at every
/// cascade-drained point *before* simulated time advances -- the global
/// horizon in run(), and each group-local wave boundary inside a
/// lookahead free-run extension -- so a partially filled chunk is never
/// outrun by the date its stamps were made at. That invariant is what
/// keeps chunked data-path dates bit-exact with per-element publication.
class ChunkFlushListener {
 public:
  virtual ~ChunkFlushListener() = default;
  /// Publishes any partially filled chunk on either side. Returns true
  /// when something was published (publishing queues delta notifications,
  /// so the scheduler re-enters the cascade).
  virtual bool flush_chunks() = 0;
  /// A domain identifying the channel's concurrency group (a channel's
  /// sides are always merged into one group), or null before any traffic
  /// touched the channel -- there is nothing to flush then. Free-running
  /// extension workers use this to flush their own group's channels
  /// without touching a foreign group's.
  virtual SyncDomain* chunk_home_domain() const = 0;
};

/// Options for spawning a thread process.
struct ThreadOptions {
  std::size_t stack_size = 256 * 1024;
  bool dont_initialize = false;
  /// Synchronization domain the process joins; null resolves to the
  /// spawning module's default domain (Module::set_default_domain) or the
  /// kernel default domain.
  SyncDomain* domain = nullptr;
};

/// Per-call options of Kernel::run(). The plain run(Time) overload is
/// equivalent to RunOptions{.until = t}.
struct RunOptions {
  /// Run until no activity remains or this date is reached.
  Time until = Time::max();
  /// Wall-clock watchdog budget for this call, in milliseconds; overrides
  /// KernelConfig::wall_limit_ms (0 = explicitly disabled for this call,
  /// nullopt = inherit the config). See kernel_config.h.
  std::optional<std::uint64_t> wall_limit_ms{};
};

/// Options for spawning a method process.
struct MethodOptions {
  std::vector<Event*> sensitivity;
  bool dont_initialize = false;
  /// See ThreadOptions::domain.
  SyncDomain* domain = nullptr;
};

/// One simulation: owns processes, time, and the scheduler queues. Multiple
/// kernels may coexist (each test builds its own); the one currently inside
/// run() is reachable via Kernel::current() for SystemC-style free functions.
class Kernel {
 public:
  /// Equivalent to Kernel(KernelConfig{}): every knob resolves from the
  /// environment, then from the built-in defaults.
  Kernel();

  /// Constructs a kernel with the given execution config. Unset fields
  /// resolve environment > default -- see kernel_config.h for the full
  /// precedence contract and the TDSIM_* variable list. This constructor
  /// is the *only* point where the environment is consulted.
  explicit Kernel(const KernelConfig& config);

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;
  ~Kernel();

  /// The fully resolved execution config this kernel runs under: every
  /// field is set (explicit > environment > default), and the setters
  /// below (set_workers, set_lookahead_limit, ...) keep it current.
  const KernelConfig& config() const { return config_; }

  // --- elaboration ---

  /// Spawns a stackful thread process. Runs at initialization unless
  /// opts.dont_initialize.
  Process* spawn_thread(std::string name, std::function<void()> body,
                        ThreadOptions opts = {});

  /// Spawns a run-to-completion method process with the given static
  /// sensitivity. Runs once at initialization unless opts.dont_initialize.
  Process* spawn_method(std::string name, std::function<void()> body,
                        MethodOptions opts = {});

  /// Adds an event to a method's static sensitivity list.
  void add_static_sensitivity(Process* method, Event& event);

  // --- simulation control ---

  /// Runs until no activity remains or `until` is reached (time is then
  /// left at `until`). May be called repeatedly to advance further.
  ///
  /// Failure semantics: any exception leaving run() transitions the kernel
  /// to Health::Failed with a structured FailureReport (see failure.h and
  /// health()/failure() below). The failing kernel's fibers are terminated
  /// and its Scheduler worker slots released before the exception
  /// propagates, so a Failed kernel is inert, leak-free to destroy, and
  /// cannot affect sibling kernels on the shared scheduler. Failed is
  /// terminal: further run() calls report an error.
  void run(Time until = Time::max());

  /// run() with per-call options (deadline + wall-clock watchdog). The
  /// watchdog is checked at synchronization horizons; a trip raises
  /// WatchdogError and fails the kernel with the lagging domain and the
  /// lookahead bound in the report, instead of hanging.
  void run(const RunOptions& options);

  // --- failure semantics (see kernel/failure.h) ---

  /// Idle before/between runs, Running inside run(), Failed (terminal)
  /// once an exception has escaped run().
  Health health() const { return health_; }

  /// The post-mortem of a Failed kernel, or null while health() is not
  /// Failed. Valid until the kernel is destroyed.
  const FailureReport* failure() const {
    return health_ == Health::Failed ? &failure_report_ : nullptr;
  }

  /// Arms a deterministic fault plan (chaos harness; see
  /// kernel/fault_plan.h). Actions trigger on (process name, activation
  /// number) -- deterministic points of the schedule, identical across
  /// worker counts. Replaces any previously armed plan; fired-state is
  /// reset. Faults are a test-harness overlay, not modeled elaboration:
  /// arming does not affect snapshot capability, and snapshots do not
  /// record armed plans.
  void arm_faults(FaultPlan plan);
  const FaultPlan& armed_faults() const { return fault_plan_; }

  /// Marks this kernel as the product of a supervised sequential retry
  /// (fleet::Supervisor bumps KernelStats::retries through this, so the
  /// counter rides the same stats plumbing as every other one).
  void note_retry() { stats_.retries++; }

  /// Requests the current run() to return after the current delta cycle.
  /// Callable from inside a process. In parallel mode a stop only takes
  /// effect at the next synchronization horizon: the stopping group breaks
  /// out of its queue immediately (sequential semantics), other groups
  /// finish their current round deterministically first.
  void stop();

  /// Current simulated date (sc_time_stamp analog). From a process of a
  /// group that is free-running inside a conservative-lookahead extension
  /// this is the group's *local* date -- the date the sequential scheduler
  /// would show the process -- so delay arithmetic (Event::notify,
  /// LocalClock, PEQs) is oblivious to free-running. Everywhere else it is
  /// the global horizon date. The extra branch is only taken while an
  /// extension is in flight.
  Time now() const { return free_run_live_ ? resolve_now() : now_; }

  std::uint64_t delta_count() const { return stats_.delta_cycles; }

  /// Kernel counters. In sequential contexts this is the live aggregate.
  /// From inside a parallel evaluation round, the returned view merges the
  /// calling group's own in-flight counters into the last-horizon
  /// aggregate: the caller's group is exact, foreign groups are as of the
  /// previous synchronization horizon (race-free by construction). The
  /// reference stays valid until the caller's next stats() call.
  ///
  /// The aggregate sync fields are a derived cache over the per-domain
  /// entries (the hot path books only into its owning domain) and are
  /// refolded lazily: mid-run calls refresh them when stale, and run()
  /// folds on exit, so stats() on a quiescent kernel is a pure read --
  /// safe from concurrent threads, exactly as before the aggregates
  /// became derived. Mid-run, the supported readers remain simulation
  /// processes and the thread driving run().
  const KernelStats& stats() const;

  // --- snapshot forking (see kernel/snapshot.h) ---

  /// Runs `step(*this)` immediately AND records it in the construction
  /// log, so snapshot() can later capture a replayable recipe for this
  /// kernel. All elaboration of a snapshot-capable kernel goes through
  /// build(); run() calls are recorded automatically once the log is
  /// non-empty. Nested build() calls execute inline (the outer step is
  /// the recorded unit). Elaboration performed outside any build step
  /// marks the kernel snapshot-incapable.
  void build(std::function<void(Kernel&)> step);

  /// Captures a replayable checkpoint: the resolved config, the recorded
  /// construction/run log, and the warm-state fingerprint (date + delta
  /// cycles). Cheap -- no simulation state is copied. Only callable from
  /// outside a running simulation, and only when every piece of
  /// elaboration went through build() (reports an error otherwise).
  Snapshot snapshot() const;

  /// Builds a fresh kernel from `snapshot`: resolves options.config over
  /// the snapshot's config (execution-only knobs -- workers, chunking,
  /// adaptive control -- may vary per fork without affecting dates),
  /// replays the recorded log, verifies the warm-state fingerprint, then
  /// applies options.diverge through build() so the fork is itself
  /// snapshot-capable. The returned kernel is bit-identical to the
  /// snapshot source at its warm point and diverges from there.
  static std::unique_ptr<Kernel> fork(const Snapshot& snapshot,
                                      ForkOptions options = {});

  // --- parallel execution ---

  /// Enables parallel per-domain execution: evaluation phases dispatch
  /// each runnable concurrency group (domains transitively linked by
  /// channels or link_domains; see DomainOptions::concurrent) onto up to
  /// `n` threads of the process-wide Scheduler between synchronization
  /// horizons. 0 and 1 keep the sequential scheduler; n >= 2 is opt-in
  /// and yields bit-identical dates, delta counts and per-cause sync
  /// counts. The resolved initial value comes from KernelConfig::workers
  /// (explicit > $TDSIM_WORKERS > 0; CI forces the suite parallel through
  /// the environment).
  ///
  /// Elaboration-only: `n` is this kernel's worker *quota* on the shared
  /// Scheduler, and the quota is fixed once the first run() has
  /// initialized processes -- resizing a warm kernel would let one client
  /// of the shared pool re-negotiate capacity mid-flight under other
  /// kernels. Calling it after the first run() (or from inside one)
  /// reports an error. Prefer KernelConfig{.workers = n} at construction.
  void set_workers(std::size_t n);
  std::size_t workers() const { return workers_; }

  /// Declares an ordering dependency between two domains: they join the
  /// same concurrency group and always execute serialized, in kernel
  /// schedule order, on one worker. Channels declare the domains they
  /// carry traffic between automatically (DomainLink); call this for
  /// couplings no channel can see, e.g. a plain variable shared across
  /// concurrent domains. Idempotent and cheap when already linked. `via`
  /// names the channel (or reason) behind the link for explain_group().
  /// `min_latency` annotates the link with the channel's declared minimum
  /// modeling latency (shown by explain_group; see DomainLink).
  void link_domains(SyncDomain& a, SyncDomain& b,
                    const std::string& via = std::string(),
                    Time min_latency = Time{});

  /// Declares a *decoupled* weighted ordering between two domains: nothing
  /// either side does can affect the other sooner than `min_latency` of
  /// simulated time. The groups stay separate, and the conservative-
  /// lookahead scheduler uses the latency to let each side free-run ahead
  /// of the other (see README "Parallel execution" for the safety
  /// contract: the coupling itself must be horizon-mediated, e.g. the
  /// relay-event pattern with Event::set_cross_group_notified). A zero
  /// `min_latency` degenerates to the merging overload above -- zero
  /// lookahead means barrier. Callable mid-run; a tighter redeclaration
  /// takes effect at the next horizon.
  void link_domains(SyncDomain& a, SyncDomain& b, Time min_latency,
                    const std::string& via = std::string());

  /// Caps how many timed waves one group may execute inside a single
  /// free-running lookahead extension (bounds divergence windows and the
  /// prepaid-wave ledger). 0 disables free-running entirely -- every
  /// group then rendezvouses at every global horizon. Default 64.
  void set_lookahead_limit(std::size_t max_waves) {
    lookahead_max_waves_ = max_waves;
    config_.lookahead_limit = max_waves;
  }
  std::size_t lookahead_limit() const { return lookahead_max_waves_; }

  /// The derived conservative-lookahead bound of `domain`'s concurrency
  /// group given the current timed queue and the recorded decoupled
  /// links: no inbound edge can affect the group before the returned
  /// date. nullopt = unbounded (no inbound decoupled edge; the group
  /// free-runs to its wave cap). bench_multidomain_soc --explain prints
  /// this.
  std::optional<Time> lookahead_bound(const SyncDomain& domain) const;

  /// Answers "why is my model not parallel": the chain of recorded links
  /// (channel names and explicit link_domains calls) that merged
  /// `domain`'s concurrency group, one human-readable line per
  /// load-bearing merge, in discovery order. Empty when the domain is
  /// alone in its group. bench_multidomain_soc --explain prints this.
  std::vector<std::string> explain_group(const SyncDomain& domain) const;

  /// The concurrency group `domain` belongs to, as the id of the group's
  /// representative domain. Two domains may execute concurrently iff their
  /// groups differ. Mainly for tests and diagnostics.
  std::size_t domain_group(const SyncDomain& domain) const;

  // --- chunked channels (see core/smart_fifo.h) ---

  /// Registers a Smart FIFO that publishes in chunks; the scheduler
  /// flushes it at every cascade-drained point before time advances. The
  /// FIFO calls this when its capacity rises to 2 or more and unregisters
  /// when it drops back to per-element publication, or on destruction.
  /// Registration order is the deterministic flush order. Safe from
  /// inside a parallel round.
  void register_chunk_flush(ChunkFlushListener* listener);
  void unregister_chunk_flush(ChunkFlushListener* listener);

  /// Chunk capacity every SmartFifo adopts at construction
  /// (SmartFifo::set_chunk_capacity): 0 or 1 publishes per element (the
  /// default -- the capacity-1 case of the one publication path, so
  /// existing models and baselines are bit-identical), >= 2 batches
  /// publication per chunk of that many accesses. The resolved
  /// KernelConfig::default_chunk_capacity ($TDSIM_CHUNKED: "1" or a
  /// non-numeric truthy value picks the default capacity of 16, a number
  /// >= 2 is the capacity, unset/"0" stays per-element); a SmartFifo's
  /// own set_chunk_capacity overrides either way. The reference channels
  /// (Fifo, SyncFifo, UntimedFifo) have no capacity.
  std::size_t default_chunk_capacity() const {
    return *config_.default_chunk_capacity;
  }

  // --- synchronization domains ---

  /// Creates a new synchronization domain with its own quantum policy and
  /// per-cause sync statistics -- the one canonical way to make a domain
  /// (see DomainOptions in kernel_config.h for every knob). Names must be
  /// unique within the kernel. Domains live as long as the kernel;
  /// processes join one at spawn time (ThreadOptions/MethodOptions::domain,
  /// Module::set_default_domain).
  SyncDomain& create_domain(const DomainOptions& options);

  // --- adaptive quantum control (see kernel/quantum_controller.h) ---

  /// Opts `domain` into adaptive quantum control: the kernel re-evaluates
  /// its quantum at every synchronization horizon from the domain's
  /// per-cause sync deltas and the deterministic parallel cost signal,
  /// within the policy's clamps. Attaching immediately clamps the domain's
  /// current quantum into [min_quantum, max_quantum]. Replaces any earlier
  /// policy. Only callable with no parallel round in flight. The
  /// TDSIM_ADAPTIVE_QUANTUM environment variable (any value but "0") seeds
  /// a default QuantumPolicy on every domain at creation.
  void set_quantum_policy(SyncDomain& domain, const QuantumPolicy& policy);

  /// The policy attached to `domain`, or null when the domain is not
  /// adaptive.
  const QuantumPolicy* quantum_policy(const SyncDomain& domain) const;

  /// The domain's most recent adaptive decision (applied, clamped or
  /// held), or null before the first one. This is the decision trace:
  /// serial number, horizon date, old/new quantum, direction, reason and
  /// the per-cause input window behind it.
  const QuantumDecision* last_quantum_decision(const SyncDomain& domain) const;

  /// The domain's recent adaptive decisions, oldest first -- the last
  /// KernelConfig::quantum_trace_depth of them (see
  /// kernel/quantum_controller.h). Empty before the first decision or
  /// when the domain never had a policy.
  std::vector<QuantumDecision> decision_trace(const SyncDomain& domain) const;

  /// The kernel's default synchronization domain: quantum policy,
  /// current-process temporal-decoupling operations, and per-cause sync
  /// statistics. Processes spawned without an explicit domain belong to it,
  /// so a kernel that never calls create_domain() behaves exactly as a
  /// single-domain kernel.
  SyncDomain& sync_domain() { return *domains_.front(); }
  const SyncDomain& sync_domain() const { return *domains_.front(); }

  /// The domain of the currently executing process; from scheduler or
  /// elaboration context (no current process) it degenerates to the
  /// default domain. This is how channel code shared between domains
  /// (Smart FIFOs, gates, sockets) resolves the right policy for whoever
  /// is calling.
  SyncDomain& current_domain() {
    Process* p = current_process();
    return p != nullptr ? p->domain() : sync_domain();
  }

  /// All domains, in creation order; index 0 is the default domain.
  const std::vector<std::unique_ptr<SyncDomain>>& domains() const {
    return domains_;
  }

  /// The domain named `name`, or null.
  SyncDomain* find_domain(const std::string& name) const;

  /// The domain gating global progress: the one whose execution front
  /// (max local date over its live processes) is furthest behind. Null
  /// when no domain has a live process. run() names it in livelock
  /// diagnostics; benches read it to see which subsystem to relax. Safe
  /// to call mid-run from a probe even in parallel mode: foreign groups
  /// are then reported as of the last synchronization horizon.
  SyncDomain* lagging_domain() const;

  /// Moves `process` to `domain`. Only legal during elaboration (before
  /// the first run() initializes processes); reassigning later would
  /// tear a decoupled process away from the policy its offset was
  /// accumulated under.
  void assign_domain(Process& process, SyncDomain& domain);

  /// Convenience delegates for the *default* domain's quantum (TLM-2.0
  /// tlm_global_quantum analog). Zero disables quantum-driven decoupling.
  Time global_quantum() const { return sync_domain().quantum(); }
  void set_global_quantum(Time quantum) { sync_domain().set_quantum(quantum); }

  /// Safety valve against delta-cycle livelock (processes endlessly
  /// re-triggering each other without time advancing): when non-zero,
  /// run() raises a SimulationError after this many consecutive delta
  /// cycles at the same simulated date.
  void set_delta_cycle_limit(std::uint64_t limit) {
    delta_limit_ = limit;
    config_.delta_cycle_limit = limit;
  }

  /// The kernel currently executing run() on this OS thread, or null.
  static Kernel* current();

  /// The simulation process currently executing on this OS thread within
  /// this kernel, or null (e.g. during elaboration, from the scheduler
  /// itself, or from a process of another kernel). Per OS thread: in
  /// parallel mode each worker sees its own group's process. Inline, so a
  /// channel access pays no call for it, but the thread-local read itself
  /// stays behind the noinline thread_exec(): a fiber may resume on another
  /// worker, and only a fresh read finds that worker's slot.
  Process* current_process() const {
    ExecContext* e = thread_exec();
    return (e != nullptr && e->kernel == this) ? e->current_process : nullptr;
  }

  // --- process-facing API (called from inside processes) ---

  /// Suspends the current thread process for `duration` of simulated time.
  void wait(Time duration);

  /// Suspends the current thread process until `event` is notified.
  void wait(Event& event);

  /// Suspends until `event` or until `timeout` elapses; returns true when
  /// woken by the event, false on timeout.
  bool wait(Event& event, Time timeout);

  /// Yields the current thread process for one delta cycle.
  void wait_delta();

  /// Arms a one-shot dynamic trigger for the current method process,
  /// overriding its static sensitivity for the next activation.
  void next_trigger(Event& event);
  void next_trigger(Time delay);

  // --- channel-facing API ---

  /// Requests listener->update() at the end of the current evaluation
  /// phase. Deduplication is the caller's responsibility.
  void request_update(UpdateListener* listener);

  /// All processes, in spawn order.
  const std::vector<std::unique_ptr<Process>>& processes() const {
    return processes_;
  }

 private:
  friend class Event;
  friend class Process;
  friend class SyncDomain;  // keeps the sync books in stats_

  struct TimedEntry {
    Time when;
    /// Order among same-date entries; a group task's buffered entries get
    /// theirs at the merge.
    std::uint64_t seq = 0;
    enum class Kind { EventFire, ProcessResume } kind;
    Event* event = nullptr;
    std::uint64_t event_generation = 0;
    Process* process = nullptr;
    std::uint64_t process_generation = 0;

    bool operator>(const TimedEntry& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
    bool operator<(const TimedEntry& o) const { return o > *this; }
  };

  /// The buffers one evaluate -> update -> delta cascade drains. The
  /// kernel owns one (cascade_, driven by run()) and so does every group
  /// task; the evaluate loop and the delta step take either, and the
  /// channel-facing calls (queue_delta_notification, request_update,
  /// wait_delta) write to the calling thread's, found through its
  /// ExecContext.
  struct Cascade {
    std::deque<Process*> runnable;
    std::vector<std::pair<Event*, std::uint64_t>> delta_notifications;
    std::vector<Process*> delta_resume;
    std::vector<UpdateListener*> update_requests;
    /// Each delta step drains one of the three buffers above by swapping
    /// it with its retained spare, so neither ever frees its capacity and
    /// the arena reserve_scheduler_arena() pre-sized survives the first
    /// delta cycle. The spares grow once, on first use.
    std::vector<std::pair<Event*, std::uint64_t>> delta_notifications_spare;
    std::vector<Process*> delta_resume_spare;
    std::vector<UpdateListener*> update_requests_spare;
    /// Set by stop(); the evaluate loop breaks right after the dispatch
    /// that requested it. A group's stop reaches the kernel's at the
    /// horizon.
    bool stop = false;
  };

  /// Per-OS-thread fiber dispatch state: the scheduler's saved stack
  /// pointer plus the sanitizer bookkeeping for that stack. The
  /// sequential scheduler owns one (main_exec_); in parallel mode each
  /// group execution gets its own, so fibers can suspend under one worker
  /// and resume under another with a consistent stack discipline (the
  /// suspension always swaps to the *current* thread's ExecContext, found
  /// through the thread-local t_exec_).
  struct ExecContext {
    Kernel* kernel = nullptr;
    Process* current_process = nullptr;
    /// Where this execution context's counters go: the owning group's
    /// stat_delta inside a parallel round, the kernel aggregate otherwise.
    /// Bundled here so the synchronization hot path resolves process and
    /// stats in a single thread-local read (sync_context()).
    KernelStats* stats = nullptr;
    /// The scheduler stack's saved stack pointer while a fiber runs (see
    /// kernel/fiber_switch.h).
    void* scheduler_context = nullptr;
    /// Scheduler (OS thread) stack bounds, learned each time a fiber
    /// resumes and reports where it came from; used when switching back.
    const void* scheduler_stack_bottom = nullptr;
    std::size_t scheduler_stack_size = 0;
    /// ASan fake-stack handle saved while the scheduler stack is switched
    /// away from.
    void* scheduler_fake_stack = nullptr;
    /// TSan fiber handle of the hosting OS thread (refreshed per group
    /// execution -- the same ExecContext may move between workers).
    void* tsan_fiber = nullptr;
    /// The cascade this context's processes feed: the group task's inside
    /// a parallel round, the kernel's otherwise.
    Cascade* cascade = nullptr;
  };

  /// One concurrency group's work and side-effect buffers between two
  /// synchronization horizons: one barrier round, or one free-running
  /// lookahead extension. Everything a group's processes do to
  /// kernel-global structures lands here and is merged -- in group order,
  /// hence deterministically -- at the horizon. Cache-line aligned: the
  /// tasks of one phase run on different workers.
  struct alignas(64) GroupTask {
    Kernel* kernel = nullptr;
    /// Group representative (union-find root domain id) this phase.
    std::size_t group = 0;
    /// The group's own cascade. Its runnable deque holds the group's
    /// runnable processes in kernel schedule order; wakes of same-group
    /// processes append there and run within the same round.
    Cascade cascade;
    ExecContext exec;
    /// Wakes targeting processes of *other* groups (dynamic spawns,
    /// foreign-group event notifies); routed at the horizon.
    std::vector<Process*> cross_wakes;
    /// Timed-queue insertions; sequence numbers are assigned at the merge
    /// so per-group relative order (the only order that can matter --
    /// groups share no state) matches the sequential schedule.
    std::vector<TimedEntry> timed;
    /// Buffered timed_stale_count_ increments.
    std::size_t stale_notes = 0;
    /// Worker-local counter deltas (aggregate + per-domain), folded into
    /// stats_ at the horizon.
    KernelStats stat_delta;
    /// Lazily built merged view for mid-round stats() calls.
    std::unique_ptr<KernelStats> stats_view;
    std::exception_ptr exception;
    /// Failure attribution riding alongside `exception`: the process whose
    /// dispatch raised it and that process's domain (empty when the raise
    /// was not attributable to a process). Copied into the kernel's
    /// failure report when the horizon rethrows, together with local_now
    /// when the task was free-running.
    std::string failed_process;
    std::string failed_domain;

    // --- conservative-lookahead free-running (run_lookahead_extension) ---

    /// True while this task executes a free-running extension: after its
    /// runnable deque, run_group() then executes the private agenda wave
    /// by wave, and the group's processes see local_now through
    /// Kernel::now().
    bool free_running = false;
    /// The group's local date inside the extension.
    Time local_now;
    /// Exclusive date cap of this extension (the group's lookahead
    /// window: inbound-edge bound, clamps, wave cap, run limit).
    Time window_cap;
    /// The group's extracted timed entries, sorted by (when, seq) -- the
    /// extension's private agenda. Locally-born entries are spliced in
    /// with synthetic sequence numbers (compared only within the agenda).
    std::vector<TimedEntry> agenda;
    std::size_t agenda_pos = 0;
    /// Synthetic sequence numbers for locally-born agenda entries; they
    /// sort after every extracted entry of the same date, exactly where
    /// the sequential scheduler would have queued them.
    std::uint64_t local_seq = 0;
    /// Prefix of `timed` already examined by absorb_local_timed(); 0
    /// outside extensions (the merge resets it with `timed`).
    std::size_t timed_scan_pos = 0;
    /// One record per executed local wave, in order: (date ps, number of
    /// delta iterations after the wave). Source of the merge-time prepaid
    /// accounting (book_prepaid_waves) that keeps delta_cycles /
    /// timed_waves bit-identical to the sequential schedule.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> wave_log;
  };

  /// create_domain minus the TDSIM_ADAPTIVE_QUANTUM default-policy hook
  /// (the policy-taking overload attaches its own policy instead).
  SyncDomain& create_domain_impl(std::string name, Time quantum,
                                 bool concurrent);

  /// See SyncContext (sync_domain.h): process + stats sink in one
  /// thread-local read. The synchronization hot path's entry point.
  SyncContext sync_context() {
    ExecContext* e = thread_exec();
    if (e != nullptr && e->kernel == this) {
      return {e->current_process, e->stats};
    }
    return {nullptr, &stats_};
  }

  bool is_stale(const TimedEntry& entry) const;
  /// Bumps the process's wake generation, keeping the stale-entry count
  /// exact when a live timed resume entry gets invalidated.
  void bump_wake_generation(Process& p);
  /// Called by Event when a pending timed notification is superseded or
  /// cancelled, leaving its queue entry stale.
  void note_timed_event_stale();
  /// Called by ~Event while the event is still valid: removes every queue
  /// entry referring to it, so no is_stale() call can ever dereference a
  /// destroyed event.
  void purge_timed_event_entries(Event& e);
  /// Rebuilds timed_queue_ without stale entries once they outnumber the
  /// live ones (lazy deletion would otherwise grow the queue unboundedly
  /// under cancel/supersede-heavy workloads).
  void maybe_compact_timed_queue();
  void timed_push(const TimedEntry& entry);
  void timed_pop();
  /// Re-heapifies timed_queue_ after an in-place filter.
  void timed_reheap();
  void initialize_processes();
  void dispatch(Process* p);
  void dispatch_thread(Process* p);
  void dispatch_method(Process* p);
  void make_runnable(Process* p);
  /// Marks `p` runnable and appends it to `cascade`'s runnable deque
  /// (no-op when it already is runnable or has terminated).
  void enqueue_runnable(Process* p, Cascade& cascade);
  void trigger_event(Event& e);
  void yield_current_thread();
  /// wait(duration) for an already-validated thread process -- the
  /// synchronization hot path (SyncDomain::perform_sync) resolved and
  /// checked the process once and must not pay a second resolution here.
  void wait_for(Process& p, Time duration);
  Process* require_thread(const char* what) const;
  Process* require_method(const char* what) const;
  void schedule_event_fire(Event& e, Time at);
  void schedule_process_resume(Process& p, Time at);
  /// Queues a timed entry in the kernel's timed queue, or buffers it in
  /// the active group task (sequenced at the merge). Forced inline like
  /// the cascade steps below.
  __attribute__((always_inline)) inline void schedule_timed(
      Time when, TimedEntry::Kind kind, Event* event,
      std::uint64_t event_generation, Process* process,
      std::uint64_t process_generation);
  void queue_delta_notification(Event& e);
  void cancel_dynamic_wait(Process& p);
  void kill_all_threads();

  // --- the cascade: one of each step, for run() and group tasks alike ---
  //
  // The steps that run once per delta cycle or timed entry are forced
  // inline into both loops (run() and run_group()): a switch-bound
  // sequential model spends about 100 ns per event in the kernel, and a
  // call per step measurably slowed fifo_narrow.

  /// The calling thread's cascade for this kernel: its group task's inside
  /// a parallel round, the kernel's otherwise.
  Cascade& active_cascade();
  /// The evaluate loop: dispatches `cascade`'s runnable processes in
  /// order until none is left or one of them requests a stop.
  __attribute__((always_inline)) inline void evaluate(Cascade& cascade);
  /// One delta step of `cascade`: update phase, chunk flush, then -- if
  /// any delta notification or resume is pending -- the delta cycle with
  /// its kernel-wide and per-domain livelock checks. Returns false when
  /// nothing was pending (the cascade is drained). `task` is the
  /// free-running group the cascade belongs to, or null for the kernel's.
  __attribute__((always_inline)) inline bool delta_step(Cascade& cascade,
                                                        GroupTask* task);
  /// Fires one timed entry popped at its date (event trigger or process
  /// resume). A stale entry is consumed instead and decrements
  /// `stale_count`, the count its cancel was booked into.
  __attribute__((always_inline)) inline void fire_timed_entry(
      const TimedEntry& entry, std::size_t& stale_count);
  /// Per-domain delta-livelock books over `task`'s domains (every domain
  /// when null): each domain with runnable processes counts one more
  /// consecutive delta activation and trips its limit; the others reset.
  /// `wave_start` resets every counter first (a timed wave begins).
  __attribute__((always_inline)) inline void check_domain_delta_limits(
      const GroupTask* task, bool wave_start);

  // --- fiber-stack pool + scheduler arena (see kernel/stack_pool.h) ---

  /// Allocates `p`'s fiber stack: a pooled StackBlock when
  /// KernelConfig::pooled_stacks (the default), the legacy value-initialized
  /// heap allocation otherwise. Books stack_acquires / stack_recycles into
  /// active_stats(). Called from the Process constructor.
  void acquire_fiber_stack(Process& p);
  /// Counter hook for Process::release_stack (the pool itself is
  /// process-wide; the kernel only keeps the books).
  void note_fiber_stack_released();
  /// Pre-sizes the scheduler's per-event containers (timed queue,
  /// delta-notification and delta-resume buffers) to the elaborated
  /// process count, so steady state never grows them. Runs once, at
  /// initialize_processes(); booked as KernelStats::arena_reserved_bytes.
  void reserve_scheduler_arena();

  // --- failure semantics / watchdog / chaos (see kernel/failure.h) ---

  /// The Running -> Failed transition: classifies `cause`, assembles the
  /// FailureReport from the kernel's current state, terminates live
  /// fibers (ProcessKilled unwind), and releases this kernel's worker
  /// quota on the shared Scheduler. Called from run()'s unwind path only.
  void enter_failed_state(std::exception_ptr cause);
  /// Records `p` as the process whose dispatch is about to rethrow, into
  /// the active GroupTask (parallel) or the kernel (sequential).
  void note_failing_process(Process& p);
  /// Arms the per-run wall-clock deadline from `options` over the config.
  void arm_watchdog(const std::optional<std::uint64_t>& override_ms);
  /// Deadline check at synchronization horizons; throws WatchdogError on
  /// trip. No-op (one branch) while no deadline is armed.
  void check_watchdog();
  /// Fires any armed fault whose (process, activation) trigger matches;
  /// called from dispatch(). May throw InjectedFault.
  void apply_faults(Process& p);

  // --- parallel scheduling (see kernel.cpp "Parallel evaluation") ---

  /// The group task the calling OS thread is executing for *this* kernel,
  /// or null in sequential/scheduler contexts.
  GroupTask* active_task() const;
  /// Where scheduler counters go: the active group's local delta inside a
  /// parallel round, the kernel aggregate otherwise.
  KernelStats& active_stats();
  bool parallel_enabled() const { return workers_ > 1; }
  /// The barrier evaluation phase: partitions the runnable set by group
  /// and runs rounds until no group has work, routing cross-group wakes
  /// and re-partitioning after mid-round merges between rounds.
  void run_parallel_evaluation_phase();
  /// The timed-phase lookahead driver: computes per-group conservative
  /// bounds, extracts eligible groups' timed entries and free-runs them
  /// in parallel to their windows, then merges. Returns true when any
  /// group advanced (the caller re-enters its loop without advancing the
  /// global date).
  bool run_lookahead_extension(Time until);
  /// The one group body (worker or stealing driving thread): drains the
  /// task's runnable deque -- a barrier round's work -- and, when the
  /// task is free-running, then executes its agenda wave by wave, each
  /// wave being the sequential loop's fire -> evaluate -> delta steps.
  void run_group(GroupTask& task);
  /// The one dispatch: runs `tasks` (in group order) through run_group on
  /// the shared Scheduler -- inline when there is only one -- then
  /// surfaces, in group order, the first exception with its attribution
  /// and any stop. Returns that exception.
  std::exception_ptr run_tasks(const std::vector<GroupTask*>& tasks);
  /// The one horizon merge: flushes every phase task's buffered side
  /// effects into the kernel in group order, compacts the timed queue,
  /// publishes domain fronts, then rethrows `first_exception` if set.
  void merge_group_tasks(std::exception_ptr first_exception);
  /// Pays a free-running task's wave log into the kernel counters through
  /// the prepaid-wave ledger (see prepaid_).
  void book_prepaid_waves(GroupTask& task);
  /// Moves newly buffered timed requests that fall inside the task's
  /// window from task.timed into the sorted agenda.
  void absorb_local_timed(GroupTask& task);
  /// Publishes the pending chunks of every registered chunked channel, or
  /// only of `task`'s group's channels inside a free-running extension (a
  /// foreign group's channel state belongs to another worker); the delta
  /// step calls it once per iteration, after the update phase (see
  /// ChunkFlushListener).
  void flush_chunked_channels(const GroupTask* task);
  /// Slow path of now() while an extension is in flight.
  Time resolve_now() const;
  /// The one concurrency group all of `e`'s waiters belong to, or nullopt
  /// when the event has no waiters or waiters from several groups (its
  /// timed firings are then not attributable to any single group).
  std::optional<std::size_t> sole_waiter_group(const Event& e) const;
  /// compute_lookahead_state()'s inputs and outputs, indexed by group
  /// root. run_lookahead_extension() keeps one across calls
  /// (lookahead_scratch_), so a steady-state extension does not allocate.
  struct LookaheadScratch {
    struct Edge {
      std::size_t from;
      std::size_t to;
      std::uint64_t latency;
    };
    /// Earliest live timed entry (ps).
    std::vector<std::uint64_t> earliest;
    /// Exclusive free-run window: inbound-edge bound, relay-event clamps,
    /// unattributable-entry choke.
    std::vector<std::uint64_t> window;
    /// window clipped to the run limit (run_lookahead_extension only).
    std::vector<std::uint64_t> cap;
    std::vector<std::uint64_t> clamp;
    std::vector<std::uint64_t> reach;
    std::vector<Edge> edges;
  };
  /// The shared bound derivation behind lookahead_bound() and
  /// run_lookahead_extension(): fills `s.earliest` and `s.window` per
  /// group root. UINT64_MAX = none/unbounded.
  void compute_lookahead_state(LookaheadScratch& s) const;
  /// Moves the kernel's runnable processes into their groups' tasks, in
  /// order.
  void partition_runnable();
  /// Sorts phase_tasks_ by group root (the deterministic "group order").
  void sort_phase_tasks();
  GroupTask& task_for_group(std::size_t group_root);
  /// Union-find over domain ids; readers are lock-free (workers resolve
  /// groups on every wake), writers serialize on group_mutex_.
  std::size_t find_group(std::size_t domain_id) const;
  /// True when called from a worker whose group does not contain
  /// `domain` -- its members' live state must not be read, use the
  /// published horizon values instead.
  bool foreign_group_read(const SyncDomain& domain) const;
  std::optional<Time> published_front(std::size_t domain_id) const;
  void publish_domain_fronts();
  void unite_groups_locked(std::size_t a, std::size_t b);

  Time now_;
  /// Domain registry; [0] is the default domain, created in the
  /// constructor. unique_ptr keeps SyncDomain addresses stable across
  /// create_domain() calls (processes and channels hold raw pointers).
  std::vector<std::unique_ptr<SyncDomain>> domains_;
  std::uint64_t delta_limit_ = 0;
  std::uint64_t deltas_at_current_date_ = 0;
  KernelStats stats_;
  std::uint64_t next_process_id_ = 1;
  std::uint64_t next_timed_seq_ = 0;
  /// Exact count of stale (cancelled/superseded) entries currently inside
  /// timed_queue_, except for entries orphaned by process kills at
  /// teardown; drives compaction.
  std::size_t timed_stale_count_ = 0;
  bool initialized_ = false;
  /// Processes spawned outside a simulation context after initialization
  /// (mid-run grafts, e.g. a fork's diverge step): their first dispatch
  /// records channel links the concurrency grouping is derived from, so
  /// the next run()'s first evaluation phase must stay sequential, exactly
  /// like the initialization wave.
  bool graft_init_pending_ = false;
  /// True once any domain ever armed a per-domain delta-cycle limit; the
  /// scheduler skips the per-domain delta bookkeeping while false.
  bool domain_delta_limits_enabled_ = false;
  /// Resolved KernelConfig::pooled_stacks / stack_guard (see
  /// kernel/stack_pool.h). Fixed at construction: every fiber stack of
  /// this kernel comes from the same allocator.
  bool pooled_stacks_ = true;
  bool stack_guard_ = true;

  // --- failure semantics state (see kernel/failure.h) ---

  Health health_ = Health::Idle;
  /// Valid once health_ == Failed; handed out by failure().
  FailureReport failure_report_;
  /// Sequential-mode failure attribution (parallel mode buffers it in
  /// GroupTask::failed_process/failed_domain); consumed by
  /// enter_failed_state, together with failing_at_.
  std::string failing_process_;
  std::string failing_domain_;
  /// Wall-clock watchdog: armed per run() call (RunOptions override >
  /// config), checked at synchronization horizons.
  bool watchdog_armed_ = false;
  std::chrono::steady_clock::time_point watchdog_deadline_{};
  std::uint64_t watchdog_limit_ms_ = 0;
  /// Armed chaos plan + per-action fired latches (see arm_faults()). The
  /// latches are atomic: free-running groups on different workers scan
  /// them concurrently, and a claim is one exchange.
  FaultPlan fault_plan_;
  std::unique_ptr<std::atomic<bool>[]> fault_fired_;
  /// Lock-free gate for the dispatch hot path: number of armed, not yet
  /// fired actions. Zero on every kernel without a plan -- dispatch then
  /// pays one relaxed load. (Decremented by whichever thread claims a
  /// latch, once per action.)
  std::atomic<std::size_t> faults_pending_{0};

  std::vector<std::unique_ptr<Process>> processes_;
  /// The kernel's own cascade: run()'s evaluate loop and delta step drain
  /// it, and the horizon merge feeds the group tasks' buffers into it.
  Cascade cascade_;
  /// The timed notification queue: a (when, seq) min-heap maintained with
  /// std::push_heap/pop_heap over a plain vector, so the stale-entry
  /// compaction and the ~Event purge can filter the storage in place and
  /// re-heapify -- allocation-free in steady state, where a
  /// priority_queue rebuild would reallocate on every compaction.
  std::vector<TimedEntry> timed_queue_;

  /// Fresh thread-local reads for code that runs on fiber stacks: every
  /// read of t_exec_/t_task_ that can happen after a suspension point MUST
  /// go through these noinline accessors. Were the reads inlined, the
  /// compiler could legally cache the TLS slot's address across a
  /// tdsim_fiber_switch call -- and a fiber resumed on a different worker
  /// would then read (and race on) the *original* thread's slot. The
  /// inline fast path (current_process(), sync_context(), the clock and
  /// domain helpers at the end of this file) calls them afresh on every
  /// access and never keeps the returned ExecContext* or GroupTask* across
  /// a call that can suspend.
  __attribute__((noinline)) static ExecContext* thread_exec();
  __attribute__((noinline)) static GroupTask* thread_task();

  /// The ExecContext the calling OS thread dispatches fibers through; set
  /// by run() (main_exec_) and by run_group() (GroupTask::exec).
  /// Written only from scheduler stacks (never from a fiber).
  static thread_local ExecContext* t_exec_;
  /// The GroupTask the calling OS thread is running, if any.
  static thread_local GroupTask* t_task_;

  /// Sequential-mode (and phase-driver) execution context.
  ExecContext main_exec_;

  /// Parallel-execution state. workers_ <= 1 leaves all of it idle.
  /// workers_ doubles as this kernel's quota on the process-wide
  /// Scheduler (see kernel/scheduler.h) under scheduler_client_.
  std::size_t workers_ = 0;
  std::size_t scheduler_client_ = 0;
  std::vector<std::unique_ptr<GroupTask>> tasks_;
  /// Tasks handed out for the current phase (prefix of tasks_).
  std::size_t tasks_in_use_ = 0;
  /// The current phase's tasks, sorted by group root before each round
  /// and at the merge (the deterministic "group order").
  std::vector<GroupTask*> phase_tasks_;
  /// Per-phase map from group root to the task executing it (index =
  /// domain id, null = group not runnable this phase).
  std::vector<GroupTask*> task_by_root_;
  /// Bumped on every union; lets the phase driver notice mid-round
  /// channel-discovered links and re-partition.
  std::uint64_t group_version_ = 0;
  /// Concurrency-group union-find parents, one per domain. A deque of
  /// atomics: stable addresses, lock-free monotone reads from workers.
  std::deque<std::atomic<std::size_t>> group_parent_;
  /// A recorded inter-domain ordering declaration: the two domain ids and
  /// the channel name (or caller-supplied reason) behind it, for
  /// explain_group(). `min_latency` is the declared minimum latency of
  /// the coupling; on `decoupled` records the domains were *not* merged
  /// and the latency weights the lookahead edge, on merging records it is
  /// diagnostic.
  struct DomainLinkRecord {
    std::size_t a;
    std::size_t b;
    std::string via;
    Time min_latency{};
    bool decoupled = false;
  };
  /// Every link ever declared (channel-observed or explicit):
  /// explain_group() replays them, and the lookahead bounds read the
  /// decoupled ones.
  std::vector<DomainLinkRecord> domain_links_;
  mutable std::mutex group_mutex_;
  /// Guards processes_ / next_process_id_ against concurrent dynamic
  /// spawns from parallel rounds.
  std::mutex spawn_mutex_;
  /// Serializes ~Event timed-queue purges from parallel rounds.
  std::mutex timed_purge_mutex_;
  /// Per-domain execution fronts as of the last synchronization horizon
  /// (ps; UINT64_MAX = no live process). What mid-round probes see for
  /// foreign groups. Each entry is cache-line padded: fronts are written
  /// per domain per horizon and read by foreign-group probes, and the
  /// deque would otherwise pack eight domains' atomics per line -- at
  /// O(100) domains that false sharing is measurable (see
  /// kernel/cacheline.h).
  std::deque<CacheLinePadded<std::atomic<std::uint64_t>>> published_front_ps_;

  // --- conservative-lookahead state (see run_lookahead_extension) ---

  /// True while a free-running extension is in flight; flips now() to its
  /// task-local resolution. Written by the run() thread with the workers
  /// quiescent on either side of the pool dispatch (the pool mutex orders
  /// the accesses).
  bool free_run_live_ = false;
  /// See set_lookahead_limit().
  std::size_t lookahead_max_waves_ = 64;
  /// Delta-cycle increments of the current global wave still covered by
  /// the prepaid ledger (prepaid_).
  std::uint32_t prepaid_skip_deltas_ = 0;
  /// Furthest date any lookahead extension has executed; when the timed
  /// queue drains, now_ advances here so the final date matches the
  /// sequential schedule's last wave.
  Time free_run_end_{};

  /// Adaptive quantum control (see kernel/quantum_controller.h). Created
  /// lazily by the first set_quantum_policy(); the scheduler loop invokes
  /// it at timed-wave boundaries only while a policy is attached, so
  /// policy-free kernels pay a single null check per wave.
  std::unique_ptr<QuantumController> quantum_controller_;
  /// TDSIM_ADAPTIVE_QUANTUM was set: every domain gets a default policy
  /// at creation.
  bool env_adaptive_ = false;

  /// Chunked channels currently registered for horizon flushing, in
  /// registration order (the deterministic flush order). Guarded by
  /// chunk_flush_mutex_: channels may enter/leave chunked mode from a
  /// process inside a parallel round while an extension worker walks the
  /// list. Empty on every kernel that never opts a channel in -- the
  /// scheduler then pays one empty() check per horizon.
  std::vector<ChunkFlushListener*> chunk_flush_listeners_;
  mutable std::mutex chunk_flush_mutex_;
  /// Lock-free emptiness pre-check for the per-wave flush points (a
  /// worker may probe while another group's process registers a channel).
  std::atomic<std::size_t> chunk_flush_count_{0};

  // --- construction config + snapshot forking (see kernel/snapshot.h) ---

  /// The fully resolved execution config (every field set); kept current
  /// by the setters so config() and snapshot() always see the truth.
  KernelConfig config_;
  /// True only inside the constructor body: the ctor seeds env-driven
  /// state (default adaptive policy) through the same code paths users
  /// call, and those must not mark the kernel snapshot-incapable.
  bool constructing_ = true;
  /// The replayable construction log: every build() step plus every
  /// top-level run() call made after the first build().
  std::vector<std::function<void(Kernel&)>> build_log_;
  /// True while a build() step runs (nested elaboration is then part of
  /// the recorded unit).
  bool in_build_ = false;
  /// True while fork() replays the log into this kernel (replayed steps
  /// must not re-record or mark external elaboration).
  bool replaying_ = false;
  /// Elaboration happened outside any build step -- the log can no
  /// longer reproduce this kernel, snapshot() refuses.
  bool external_elaboration_ = false;
  /// Flags external (non-build, non-replay, elaboration-context)
  /// mutations of simulated state; called by every elaboration entry
  /// point. Mutations from running processes are part of the
  /// deterministic schedule and never mark.
  void note_external_elaboration();

  // --- cold per-phase state, kept behind the hot scheduler state ---

  /// The failing group's local date when a failure came out of a
  /// free-running extension (the report otherwise shows now_).
  std::optional<Time> failing_at_;
  /// The tasks with work in the current barrier round (retained scratch).
  std::vector<GroupTask*> round_tasks_;
  /// The prepaid-wave ledger: one row per timed wave some group free-ran
  /// through that the global loop has not reached yet, sorted by date and,
  /// within a date, by same-date wave index. A row holds the wave's
  /// delta-iteration count already paid into stats_ at the merge
  /// (elementwise max over groups). The global timed phase consumes it --
  /// skipping the increments the extension prepaid -- so totals stay
  /// bit-identical to the sequential schedule. Rows before prepaid_head_
  /// are consumed (or passed) and dropped at the next booking; the vector
  /// keeps its capacity.
  struct PrepaidWave {
    std::uint64_t date_ps;
    std::uint32_t deltas;
  };
  std::vector<PrepaidWave> prepaid_;
  std::size_t prepaid_head_ = 0;
  /// run_lookahead_extension()'s retained scratch: the bound derivation's
  /// vectors, and the locally-born agenda leftovers of one task.
  LookaheadScratch lookahead_scratch_;
  std::vector<TimedEntry> leftover_local_;
};

/// Free-function conveniences mirroring SystemC's global wait()/time API.
/// They operate on Kernel::current() and therefore only work from inside a
/// running simulation.
void wait(Time duration);
void wait(Event& event);
bool wait(Event& event, Time timeout);
void wait_delta();
void next_trigger(Event& event);
void next_trigger(Time delay);
Time sim_time_stamp();

// --------------------------------------------------------------------------
// The temporal-decoupling fast path, inline. Defined here because each one
// needs the complete Kernel. An annotation or a non-blocking Smart FIFO
// access then costs one thread-local read (Kernel::thread_exec) plus
// register arithmetic; synchronizations and error reports stay out of line.
// --------------------------------------------------------------------------

inline Time LocalClock::now() const { return kernel_.now() + offset_; }

inline void LocalClock::advance_to(Time date) {
  const Time global = kernel_.now();
  if (date > global + offset_) {
    offset_ = date - global;
  }
}

inline LocalClock& SyncDomain::current_clock() const {
  Process* p = kernel_.current_process();
  if (p == nullptr) [[unlikely]] {
    outside_process_error();
  }
  return p->clock();
}

inline void SyncDomain::inc(Time duration) { current_clock().inc(duration); }

inline void SyncDomain::require_member(const Process& process) const {
  if (&process.domain() != this) [[unlikely]] {
    membership_error(process);
  }
}

inline void SyncDomain::inc_and_sync_if_needed(Time duration,
                                               SyncCause cause) {
  // One thread-local read resolves the process, its clock and the counter
  // sink for the whole operation.
  const SyncContext ctx = kernel_.sync_context();
  if (ctx.process == nullptr) [[unlikely]] {
    outside_process_error();
  }
  // Membership before the clock moves: a misrouted call fails without
  // side effects.
  require_member(*ctx.process);
  LocalClock& clock = ctx.process->clock();
  clock.inc(duration);
  if (quantum_exceeded(clock)) {
    perform_sync_in(ctx, clock, cause);
  }
}

}  // namespace tdsim
