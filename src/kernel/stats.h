// Kernel instrumentation counters.
//
// The paper's whole premise is that context switches dominate the cost of a
// finely-annotated TLM simulation, so the kernel counts them (and the other
// scheduler activities) explicitly; benchmarks report these next to wall
// time. Synchronizations are additionally attributed to a cause, so a
// benchmark can tell quantum-driven switches from FIFO-driven ones.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tdsim {

/// Why a process synchronized (or a method re-armed). Every performed
/// synchronization of a thread process costs one context switch, so the
/// per-cause sync counts decompose the paper's headline metric.
enum class SyncCause : std::uint8_t {
  /// User-requested sync() with no more specific attribution.
  Explicit = 0,
  /// The accumulated local offset reached the global quantum (the
  /// loosely-timed quantum-keeper pattern).
  Quantum,
  /// A Smart-FIFO writer suspended on an internally full FIFO.
  FifoFull,
  /// A Smart-FIFO reader suspended on an internally empty FIFO.
  FifoEmpty,
  /// A synchronization point (paper SII.A): date-accurate publication of
  /// shared state -- status flags, arbitration points, timestamped
  /// hand-offs.
  SyncPoint,
  /// A monitor-interface access (paper SIII.C): get_size() and friends.
  Monitor,
  /// A method process re-armed itself at its local date (the
  /// method-process equivalent of sync()).
  MethodRearm,
};

inline constexpr std::size_t kSyncCauseCount = 7;
static_assert(static_cast<std::size_t>(SyncCause::MethodRearm) + 1 ==
                  kSyncCauseCount,
              "keep kSyncCauseCount in lockstep with the SyncCause enum");

constexpr const char* to_string(SyncCause cause) {
  switch (cause) {
    case SyncCause::Explicit: return "explicit";
    case SyncCause::Quantum: return "quantum";
    case SyncCause::FifoFull: return "fifo_full";
    case SyncCause::FifoEmpty: return "fifo_empty";
    case SyncCause::SyncPoint: return "sync_point";
    case SyncCause::Monitor: return "monitor";
    case SyncCause::MethodRearm: return "method_rearm";
  }
  return "?";
}

/// Classifies a cause for the adaptive quantum controller: accuracy-relevant
/// causes are the ones where a synchronization carries timing information the
/// model observes (a Smart-FIFO boundary, an explicit sync point, a monitor
/// access) -- when they dominate, shrinking the quantum buys accuracy the
/// model actually uses. SyncCause::Quantum is the pure churn the controller
/// grows the quantum against; MethodRearm is neutral (a method re-arm is the
/// method-process analog of either kind, already attributed elsewhere when a
/// more specific cause is known). Channels hint the controller simply by
/// attributing their syncs precisely -- see SmartFifo / SyncFifo.
constexpr bool accuracy_relevant(SyncCause cause) {
  switch (cause) {
    case SyncCause::Explicit:
    case SyncCause::FifoFull:
    case SyncCause::FifoEmpty:
    case SyncCause::SyncPoint:
    case SyncCause::Monitor:
      return true;
    case SyncCause::Quantum:
    case SyncCause::MethodRearm:
      return false;
  }
  return false;
}

/// Synchronization bookkeeping of one SyncDomain, indexed by the domain's
/// id inside KernelStats::domains. The per-domain entries are the
/// authoritative books -- the hot path increments exactly one of them per
/// event -- and the kernel-wide aggregate fields of KernelStats are folded
/// from them on read, so per-domain entries always sum to the aggregate
/// view existing consumers read.
struct DomainStats {
  /// The owning domain's name, for reports and BENCH rows.
  std::string name;

  /// Synchronization requests by processes of this domain (sync() calls
  /// plus method re-arms). Invariant per domain:
  /// sync_requests == syncs_performed() + syncs_elided.
  std::uint64_t sync_requests = 0;

  /// Requests that found the process already synchronized.
  std::uint64_t syncs_elided = 0;

  /// Performed synchronizations attributed to a cause, indexed by
  /// static_cast<size_t>(SyncCause).
  std::array<std::uint64_t, kSyncCauseCount> syncs_by_cause{};

  /// Method re-arms at a future local date (also in syncs_by_cause).
  std::uint64_t method_rearms = 0;

  /// Quantum changes applied to the owning domain by the adaptive
  /// controller (see kernel/quantum_controller.h). Hold and clamped-to-same
  /// decisions do not count.
  std::uint64_t quantum_adjustments = 0;

  /// The single enumeration point of every DomainStats counter: applies
  /// `f(mine, theirs)` to each counter of `a` and `b` in lockstep. All
  /// merge helpers (operator-, accumulate, the kernel's aggregate fold) go
  /// through here, so a new counter participates everywhere the moment it
  /// is added -- and the sizeof tripwire below makes forgetting to add it a
  /// compile error. `A` may be any struct carrying the same counter names
  /// (KernelStats reuses this to fold domain entries into its aggregate).
  template <typename A, typename B, typename F>
  static void for_each_counter(A& a, B& b, F&& f) {
    f(a.sync_requests, b.sync_requests);
    f(a.syncs_elided, b.syncs_elided);
    for (std::size_t i = 0; i < kSyncCauseCount; ++i) {
      f(a.syncs_by_cause[i], b.syncs_by_cause[i]);
    }
    f(a.method_rearms, b.method_rearms);
    f(a.quantum_adjustments, b.quantum_adjustments);
  }

  std::uint64_t syncs(SyncCause cause) const {
    return syncs_by_cause[static_cast<std::size_t>(cause)];
  }

  std::uint64_t syncs_performed() const {
    std::uint64_t total = 0;
    for (std::uint64_t n : syncs_by_cause) {
      total += n;
    }
    return total;
  }

  DomainStats operator-(const DomainStats& o) const {
    DomainStats r = *this;
    for_each_counter(r, o,
                     [](std::uint64_t& a, const std::uint64_t& b) { a -= b; });
    return r;
  }
};

/// Tripwire: a new DomainStats field that is not threaded through
/// for_each_counter() would silently be dropped by every merge path (the
/// parallel per-group buffered merge included). Adding a field therefore
/// must update both for_each_counter() and this expected size.
static_assert(sizeof(DomainStats) ==
                  sizeof(std::string) +
                      (4 + kSyncCauseCount) * sizeof(std::uint64_t),
              "new DomainStats field? add it to DomainStats::for_each_counter "
              "and update this tripwire");

struct KernelStats {
  /// Number of resumes of stackful thread processes. Each resume costs two
  /// machine context switches (in and out); we count resumes, matching how
  /// the paper counts "one context switch per access".
  std::uint64_t context_switches = 0;

  /// Number of run-to-completion method activations (no stack switch).
  std::uint64_t method_activations = 0;

  /// Number of delta cycles executed.
  std::uint64_t delta_cycles = 0;

  /// Number of distinct simulated dates the kernel advanced to.
  std::uint64_t timed_waves = 0;

  /// Number of event trigger operations (immediate, delta or timed firing).
  std::uint64_t event_triggers = 0;

  /// Number of processes ever spawned.
  std::uint64_t processes_spawned = 0;

  /// Number of timed-queue compactions (rebuilds dropping lazily-deleted
  /// stale entries once they outnumber the live ones).
  std::uint64_t timed_queue_compactions = 0;

  // --- parallel execution bookkeeping (see README "Parallel execution") ---

  /// Number of parallel evaluation rounds: per evaluation phase, one round
  /// dispatches every concurrency group with runnable processes (most
  /// phases need exactly one round; cross-group wakes add more). Only
  /// counted in parallel mode (Kernel::set_workers >= 2).
  std::uint64_t parallel_rounds = 0;

  /// Number of group executions that had to be awaited at a
  /// synchronization horizon: each round dispatching G >= 2 groups
  /// concurrently adds G - 1. Zero means the parallel scheduler never
  /// found two groups runnable at once (no concurrency to exploit).
  std::uint64_t horizon_waits = 0;

  /// Number of timed waves a concurrency group executed *inside* a
  /// conservative-lookahead extension, i.e. without rendezvousing the other
  /// groups at the global horizon first (see README "Parallel execution").
  /// Deterministic: the extension schedule is derived purely from the timed
  /// queue and the declared link latencies.
  std::uint64_t lookahead_advances = 0;

  /// Number of group tasks the horizon-waiting thread executed itself
  /// instead of sleeping at the pool barrier (work stealing). Timing
  /// dependent by nature -- excluded from bench baselines, unlike every
  /// other counter here.
  std::uint64_t steals = 0;

  // --- allocation bookkeeping (see kernel/stack_pool.h, README "Scale &
  // memory layout") ---

  /// Fiber-stack allocations (pooled or legacy heap), one per thread
  /// process ever given a stack.
  std::uint64_t stack_acquires = 0;

  /// Fiber-stack acquisitions served from the process-wide StackPool's
  /// free lists instead of a fresh mapping. Timing dependent in parallel
  /// mode (spawns from concurrent rounds race over the shared free
  /// lists) -- excluded from bench baselines, like steals.
  std::uint64_t stack_recycles = 0;

  /// Fiber stacks returned for reuse (eagerly at process termination,
  /// else at kernel destruction). Abandoned stacks -- fibers that
  /// survived a kill request -- are retired, not released, and do not
  /// count here.
  std::uint64_t stack_releases = 0;

  /// Bytes of scheduler container capacity pre-reserved at elaboration
  /// (timed queue, delta buffers) so steady state never reallocates --
  /// see Kernel::reserve_scheduler_arena().
  std::uint64_t arena_reserved_bytes = 0;

  // --- fault-containment bookkeeping (see README "Failure semantics") ---

  /// Number of run() calls that ended in Health::Failed (at most 1: Failed
  /// is terminal, but the counter survives stat snapshots/diffs like every
  /// other field and sums meaningfully across a fleet via accumulate()).
  std::uint64_t failures = 0;

  /// Number of wall-clock watchdog trips (KernelConfig::wall_limit_ms /
  /// RunOptions::wall_limit_ms). Each trip also counts in failures.
  std::uint64_t watchdog_trips = 0;

  /// Number of supervised retries this kernel is the product of: the
  /// fleet::Supervisor marks a sequential-retry kernel with note_retry()
  /// so fleet-wide stats can separate first-try completions from
  /// retried ones.
  std::uint64_t retries = 0;

  // --- temporal-decoupling bookkeeping (maintained by SyncDomain) ---
  //
  // The sync counters below exist once per domain (KernelStats::domains)
  // and once as the kernel-wide aggregate. The hot path only touches the
  // owning domain's entry; the aggregate fields are a derived cache
  // recomputed from the domain entries by fold_domain_sync_aggregates()
  // whenever Kernel::stats() hands the struct out -- so per-domain entries
  // always sum to the aggregate by construction.

  /// Number of synchronization requests -- sync() calls (including those
  /// on already-synchronized processes, which are free: no suspension, no
  /// context switch) plus method re-arms. Invariant:
  /// sync_requests == syncs_performed() + syncs_elided.
  std::uint64_t sync_requests = 0;

  /// Requests that found the process already synchronized -- the context
  /// switches the Smart-FIFO machinery elided.
  std::uint64_t syncs_elided = 0;

  /// Performed synchronizations attributed to a cause, indexed by
  /// static_cast<size_t>(SyncCause). Thread entries are suspensions (one
  /// context switch each); method re-arms are also included (normally
  /// under MethodRearm) and cost no stack switch -- subtract
  /// method_rearms when decomposing context_switches.
  std::array<std::uint64_t, kSyncCauseCount> syncs_by_cause{};

  /// Method re-arms at a future local date (method_sync_trigger): the
  /// method-process analog of a performed synchronization, also attributed
  /// in syncs_by_cause (usually as SyncCause::MethodRearm).
  std::uint64_t method_rearms = 0;

  /// Quantum changes applied by the adaptive quantum controller, summed
  /// over domains (see kernel/quantum_controller.h). Zero on every kernel
  /// that never attached a policy.
  std::uint64_t quantum_adjustments = 0;

  /// Non-zero while the aggregate sync fields above lag the per-domain
  /// books (set by every hot-path booking, cleared by
  /// fold_domain_sync_aggregates). Kernel::stats() folds only when set,
  /// so reading a quiescent kernel's stats stays a pure read -- safe from
  /// concurrent threads, as it was before the aggregates became derived.
  std::uint64_t sync_aggregates_stale = 0;

  /// Per-domain breakdown of the sync bookkeeping above, indexed by
  /// SyncDomain::id() (index 0 is the kernel's default domain). Each sync
  /// is counted in exactly one domain entry, so for every field the domain
  /// entries sum to the aggregate.
  std::vector<DomainStats> domains;

  std::uint64_t syncs(SyncCause cause) const {
    return syncs_by_cause[static_cast<std::size_t>(cause)];
  }

  /// Total performed synchronizations across all causes.
  std::uint64_t syncs_performed() const {
    std::uint64_t total = 0;
    for (std::uint64_t n : syncs_by_cause) {
      total += n;
    }
    return total;
  }

  /// Recomputes the kernel-wide sync aggregates from the per-domain
  /// entries. KernelStats carries the same counter names DomainStats
  /// enumerates, so the fold reuses the single enumeration point and can
  /// never miss a field.
  void fold_domain_sync_aggregates() {
    sync_requests = 0;
    syncs_elided = 0;
    syncs_by_cause = {};
    method_rearms = 0;
    quantum_adjustments = 0;
    for (const DomainStats& d : domains) {
      DomainStats::for_each_counter(
          *this, d, [](std::uint64_t& a, const std::uint64_t& b) { a += b; });
    }
    sync_aggregates_stale = 0;
  }

  /// The single enumeration point of every KernelStats counter, the
  /// KernelStats twin of DomainStats::for_each_counter: applies
  /// `f(mine, theirs)` to each scalar counter of `a` and `b` in lockstep,
  /// then to the kernel-wide sync aggregates through the DomainStats list.
  /// operator- and accumulate() go through here, so a new counter is one
  /// edit -- and the sizeof tripwire below makes forgetting it a compile
  /// error. sync_aggregates_stale (a flag) and the per-domain entries are
  /// not counters; the callers merge those themselves.
  template <typename A, typename B, typename F>
  static void for_each_counter(A& a, B& b, F&& f) {
    f(a.context_switches, b.context_switches);
    f(a.method_activations, b.method_activations);
    f(a.delta_cycles, b.delta_cycles);
    f(a.timed_waves, b.timed_waves);
    f(a.event_triggers, b.event_triggers);
    f(a.processes_spawned, b.processes_spawned);
    f(a.timed_queue_compactions, b.timed_queue_compactions);
    f(a.parallel_rounds, b.parallel_rounds);
    f(a.horizon_waits, b.horizon_waits);
    f(a.lookahead_advances, b.lookahead_advances);
    f(a.steals, b.steals);
    f(a.stack_acquires, b.stack_acquires);
    f(a.stack_recycles, b.stack_recycles);
    f(a.stack_releases, b.stack_releases);
    f(a.arena_reserved_bytes, b.arena_reserved_bytes);
    f(a.failures, b.failures);
    f(a.watchdog_trips, b.watchdog_trips);
    f(a.retries, b.retries);
    DomainStats::for_each_counter(a, b, f);
  }

  KernelStats operator-(const KernelStats& o) const {
    KernelStats r = *this;
    for_each_counter(r, o,
                     [](std::uint64_t& a, const std::uint64_t& b) { a -= b; });
    // Domains created after the `o` snapshot keep their full counts.
    for (std::size_t d = 0; d < r.domains.size() && d < o.domains.size();
         ++d) {
      r.domains[d] = r.domains[d] - o.domains[d];
    }
    return r;
  }
};

/// Tripwire, mirroring the DomainStats one: 18 scalar counters, the 4
/// scalar sync aggregates plus syncs_by_cause (DomainStats's list) and the
/// stale flag. A new KernelStats counter must be added to
/// KernelStats::for_each_counter (or, for a sync counter, to
/// DomainStats::for_each_counter) -- this assert forces that review.
static_assert(sizeof(KernelStats) ==
                  sizeof(std::vector<DomainStats>) +
                      (18 + 4 + 1 + kSyncCauseCount) * sizeof(std::uint64_t),
              "new KernelStats field? add it to KernelStats::for_each_counter "
              "and update this tripwire");

/// Adds `delta` into `into`, field by field (per-domain entries
/// entrywise; names are kept from `into`). This is how the parallel
/// scheduler folds each group's worker-local counter deltas into the
/// kernel aggregate at a synchronization horizon -- addition is
/// commutative, so the merged totals are independent of worker timing.
inline void accumulate(KernelStats& into, const KernelStats& delta) {
  const auto add = [](std::uint64_t& a, const std::uint64_t& b) { a += b; };
  KernelStats::for_each_counter(into, delta, add);
  // A group that booked syncs leaves its buffered delta stale; merging it
  // makes the target's aggregates stale too (until the next fold).
  into.sync_aggregates_stale |= delta.sync_aggregates_stale;
  for (std::size_t d = 0; d < into.domains.size() && d < delta.domains.size();
       ++d) {
    DomainStats::for_each_counter(into.domains[d], delta.domains[d], add);
  }
}

}  // namespace tdsim
