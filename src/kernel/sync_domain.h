// Kernel-owned synchronization domains -- the second level of the
// temporal-decoupling subsystem.
//
// A SyncDomain groups a subset of one kernel's processes under a common
// quantum policy and accounts for every synchronization they perform,
// attributed to a cause (quantum expiry, Smart-FIFO full/empty,
// synchronization points, monitor accesses, method re-arms). The per-cause
// counts land in the domain's DomainStats entry of KernelStats (and in the
// kernel-wide aggregate), where benchmarks read them next to wall time --
// exactly the quantities the paper's Fig. 5 trades off against FIFO depth,
// now resolvable per subsystem.
//
// Every kernel owns a default domain (Kernel::sync_domain()); further
// domains are created with Kernel::create_domain(name, quantum) and joined
// per process (ThreadOptions/MethodOptions::domain) or per module subtree
// (Module::set_default_domain). A CPU cluster, a DMA engine and a slow
// peripheral bus can this way each run under the quantum that suits them,
// inside one kernel, without perturbing each other's accuracy.
//
// The domain also offers the current-process convenience API (inc, sync,
// advance_local_to, ...) that channel code uses when it holds a Kernel& but
// not a Process&: the operations apply to the process currently executing
// inside that kernel. Channel code should resolve the executing process's
// own domain through Kernel::current_domain() (or the ambient
// current_sync_domain()) rather than hard-wiring the default domain.
//
// Cost model: inc(), the non-syncing path of inc_and_sync_if_needed() and
// the quantum test are inline (defined at the end of kernel/kernel.h, which
// they need complete). An annotation costs one thread-local read through
// Kernel::thread_exec() plus register arithmetic; the synchronization
// itself and every error report stay out of line.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "kernel/cacheline.h"
#include "kernel/local_clock.h"
#include "kernel/stats.h"
#include "kernel/time.h"

namespace tdsim {

class Kernel;
class LocalClock;
class Process;
struct QuantumDecision;
struct QuantumPolicy;

/// What the synchronization hot path needs from the executing context --
/// the current process and the counter sink (the group's buffered delta
/// inside a parallel round, the kernel aggregate otherwise) -- resolved in
/// a single thread-local read by Kernel::sync_context(). Channel-driven
/// sync storms hit this path once per annotation, so the bundle is
/// resolved once per operation instead of once per query.
struct SyncContext {
  Process* process = nullptr;
  KernelStats* stats = nullptr;
};

class SyncDomain {
 public:
  SyncDomain(const SyncDomain&) = delete;
  SyncDomain& operator=(const SyncDomain&) = delete;

  Kernel& kernel() const { return kernel_; }
  const std::string& name() const { return name_; }
  /// Index of this domain in Kernel::domains() and KernelStats::domains.
  std::size_t id() const { return id_; }

  // --- quantum policy ---

  /// Temporal-decoupling quantum (TLM-2.0 tlm_global_quantum analog) of
  /// this domain: the maximum local-time offset a well-behaved decoupled
  /// process of the domain accumulates before synchronizing. Zero disables
  /// quantum-driven decoupling ("synchronize at every annotation").
  Time quantum() const { return quantum_; }
  /// On an adaptive domain (quantum_policy() != null) a value outside the
  /// policy's [min_quantum, max_quantum] is corrected back into range at
  /// the next synchronization horizon, recorded as a "clamped" decision.
  void set_quantum(Time quantum) { quantum_ = quantum; }

  /// The attached adaptive policy (DomainOptions::policy at creation, or
  /// Kernel::set_quantum_policy; see kernel/quantum_controller.h), or null
  /// when the quantum is fixed.
  const QuantumPolicy* quantum_policy() const;

  /// The adaptive controller's most recent decision for this domain, or
  /// null before the first one.
  const QuantumDecision* last_quantum_decision() const;

  /// The controller's recent decisions for this domain, oldest first (the
  /// last kQuantumTraceDepth of them -- see kernel/quantum_controller.h).
  /// Empty before the first decision or without a policy.
  std::vector<QuantumDecision> decision_trace() const;

  /// Policy decision for a clock in this domain: true when the quantum is
  /// zero or the clock's offset has reached it. A zero quantum means
  /// "synchronize at every annotation", matching the paper's remark that
  /// decoupling can be disabled by setting it to zero.
  bool quantum_exceeded(const LocalClock& clock) const {
    return quantum_.is_zero() || clock.offset() >= quantum_;
  }

  /// Per-domain delta-cycle livelock limit: when non-zero, the scheduler
  /// raises a SimulationError once processes of this domain stay runnable
  /// for more than `limit` consecutive delta cycles at one simulated date.
  /// Independent of the kernel-wide Kernel::set_delta_cycle_limit().
  void set_delta_cycle_limit(std::uint64_t limit);
  std::uint64_t delta_cycle_limit() const { return delta_limit_; }

  // --- concurrency (parallel per-domain execution) ---

  /// Whether the domain opted into concurrent execution at creation
  /// (DomainOptions::concurrent): it then starts in its own concurrency
  /// group instead of the default group, so under
  /// Kernel::set_workers(n >= 2) it may run on a worker thread in
  /// parallel with other groups. Channels that later carry its traffic
  /// to another domain automatically merge the two groups back
  /// (Kernel::link_domains), which restores full serialization between
  /// them -- only *truly* independent domains ever run concurrently, and
  /// results stay bit-identical to the sequential schedule. Couplings no
  /// channel can see (a plain variable shared across domains) must be
  /// declared with Kernel::link_domains by hand.
  bool concurrent() const { return concurrent_; }

  // --- membership / scheduler bookkeeping ---

  /// Processes of this domain, in spawn order (includes terminated ones).
  const std::vector<Process*>& members() const { return members_; }

  /// Number of this domain's processes currently in the kernel's runnable
  /// set (maintained by the scheduler).
  std::size_t runnable_count() const { return runnable_count_; }

  /// The domain's execution front: the maximum local date over its live
  /// (non-terminated) processes, i.e. how far ahead of the global date the
  /// domain has run. Empty when the domain has no live process. The domain
  /// with the smallest front is the one gating global progress -- see
  /// Kernel::lagging_domain(). Safe to query mid-run from a probe even in
  /// parallel mode: a foreign group's front is then reported as of the
  /// last synchronization horizon (reading its processes' live clocks
  /// from another worker would race).
  std::optional<Time> execution_front() const;

  /// Largest local-time offset among live processes of this domain. Same
  /// mid-run visibility rule as execution_front().
  Time max_offset() const;

  // --- current-process operations ---
  // All of these apply to the process currently executing inside this
  // domain's kernel; calling them from outside a running simulation process
  // is an error (except local_time_stamp, which degenerates gracefully).
  // The policy/bookkeeping operations (sync, inc_and_sync_if_needed,
  // needs_sync, method_sync_trigger) additionally require that process to
  // be a member of *this* domain -- resolve the right domain with
  // Kernel::current_domain() when in doubt.

  /// The clock of the currently executing process.
  inline LocalClock& current_clock() const;

  /// Local date of the current process; from scheduler context (e.g.
  /// callbacks) it degenerates to the global date.
  Time local_time_stamp() const;

  /// Local-time offset of the current process.
  Time local_offset() const;

  /// inc() on the current process's clock.
  inline void inc(Time duration);

  /// advance_to() on the current process's clock.
  void advance_local_to(Time date);

  /// sync() on the current process's clock, attributed to `cause`.
  void sync(SyncCause cause = SyncCause::Explicit);

  /// The canonical loosely-timed pattern: inc, then sync only when the
  /// quantum is exhausted. Checks membership before the clock moves, so a
  /// call through a foreign domain fails without side effects.
  inline void inc_and_sync_if_needed(Time duration,
                                     SyncCause cause = SyncCause::Quantum);

  bool is_synchronized() const;
  bool needs_sync() const;

  /// method_rearm() on the current (method) process's clock.
  void method_sync_trigger(SyncCause cause = SyncCause::MethodRearm);

  /// Local date of an arbitrary process (global date + its offset).
  Time local_time_of(const Process& process) const;

  // --- statistics (stored in the kernel's KernelStats) ---

  /// This domain's share of the sync bookkeeping (KernelStats::domains).
  const DomainStats& stats() const;

  std::uint64_t syncs(SyncCause cause) const;
  std::uint64_t syncs_performed() const;
  std::uint64_t syncs_elided() const;

 private:
  friend class Kernel;      // creates domains, keeps runnable_count_
  friend class LocalClock;

  SyncDomain(Kernel& kernel, std::string name, std::size_t id, Time quantum)
      : kernel_(kernel), name_(std::move(name)), id_(id), quantum_(quantum) {}

  /// Validates that `clock` belongs to the currently executing process,
  /// then synchronizes through perform_sync_in().
  void perform_sync(LocalClock& clock, SyncCause cause);

  /// The one place a synchronization happens: checks membership, keeps the
  /// per-cause books (the owning domain's entry of ctx.stats -- the kernel
  /// aggregate is a derived cache, see KernelStats), clears the offset and
  /// suspends the owner until the global date catches up. `ctx` is the
  /// caller's already-resolved execution context, so the hot path performs
  /// exactly one thread-local read per synchronization request.
  void perform_sync_in(const SyncContext& ctx, LocalClock& clock,
                       SyncCause cause);

  /// The method-process counterpart: re-arm at the local date through
  /// Kernel::next_trigger (generation-safe) and keep the books.
  void perform_method_rearm(LocalClock& clock, SyncCause cause);

  /// Errors unless `process` (the owner of a clock being synchronized
  /// through this domain) is a member of this domain.
  inline void require_member(const Process& process) const;

  // Cold error reports of the inline fast path.
  [[noreturn, gnu::cold, gnu::noinline]] static void outside_process_error();
  [[noreturn, gnu::cold, gnu::noinline]] void membership_error(
      const Process& process) const;

  Kernel& kernel_;
  std::string name_;
  std::size_t id_;
  // --- hot per-wave state, on its own cache line ---
  // Written every delta cycle / quantum check by whichever worker runs
  // this domain's group. Domains are individually heap-allocated, but at
  // O(100) domains the allocator packs several per line; the alignas
  // pair below (line-start here, next-line-start at members_) keeps one
  // domain's wave bookkeeping from false-sharing with a neighbour's --
  // see kernel/cacheline.h.
  alignas(kCacheLineSize) Time quantum_{};
  /// See concurrent(); seeds the concurrency-group membership.
  bool concurrent_ = false;
  std::uint64_t delta_limit_ = 0;
  /// Consecutive delta cycles at the current date with members runnable.
  std::uint64_t deltas_at_current_date_ = 0;
  std::size_t runnable_count_ = 0;
  /// Line-aligned so the hot group above gets padded to a full line.
  alignas(kCacheLineSize) std::vector<Process*> members_;
};

/// The domain of the process currently executing inside the kernel
/// currently running run() on this OS thread; an error when no kernel is
/// running. For components (arbiters, sockets) that are not bound to a
/// kernel at construction time. From scheduler context (no current
/// process) it degenerates to that kernel's default domain.
SyncDomain& current_sync_domain();

/// TLM-2.0 tlm_quantumkeeper analog: accumulates local time on the current
/// process and synchronizes when the governing domain's quantum is
/// exceeded. Two binding flavors:
///   * QuantumKeeper(kernel) resolves the executing process's own domain
///     inside that kernel at each use -- never the ambient
///     Kernel::current() -- so a keeper built for one kernel keeps working
///     when several kernels coexist and follows the process's domain.
///   * QuantumKeeper(domain) pins one domain: policy and accounting come
///     from it, and using the keeper from a process of another domain is an
///     error (it would apply the wrong quantum).
class QuantumKeeper {
 public:
  explicit QuantumKeeper(Kernel& kernel) : kernel_(kernel) {}
  explicit QuantumKeeper(SyncDomain& domain);

  /// Adds `duration` to the current process's local time.
  void inc(Time duration);

  /// Local date of the current process.
  Time local_time() const;

  bool need_sync() const;

  /// Unconditional synchronization (attributed to the quantum cause).
  void sync();

  /// The canonical loosely-timed pattern: inc, then sync only when the
  /// quantum is exhausted.
  void inc_and_sync_if_needed(Time duration);

  Kernel& kernel() const { return kernel_; }

 private:
  SyncDomain& domain() const;

  Kernel& kernel_;
  SyncDomain* bound_domain_ = nullptr;
};

}  // namespace tdsim
