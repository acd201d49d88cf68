#include "kernel/sync_domain.h"

#include "kernel/kernel.h"
#include "kernel/local_clock.h"
#include "kernel/process.h"
#include "kernel/quantum_controller.h"
#include "kernel/report.h"

namespace tdsim {

void SyncDomain::set_delta_cycle_limit(std::uint64_t limit) {
  delta_limit_ = limit;
  if (limit != 0) {
    // Lets the scheduler skip the per-domain delta bookkeeping entirely on
    // the (default) no-limit path. Sticky: clearing one domain's limit
    // doesn't prove no other domain still has one.
    kernel_.domain_delta_limits_enabled_ = true;
  }
}

const QuantumPolicy* SyncDomain::quantum_policy() const {
  return kernel_.quantum_policy(*this);
}

const QuantumDecision* SyncDomain::last_quantum_decision() const {
  return kernel_.last_quantum_decision(*this);
}

std::vector<QuantumDecision> SyncDomain::decision_trace() const {
  return kernel_.decision_trace(*this);
}

std::optional<Time> SyncDomain::execution_front() const {
  if (kernel_.foreign_group_read(*this)) {
    // Mid-round probe of another group's domain: its processes' clocks
    // are live on another worker; report the last-horizon snapshot.
    return kernel_.published_front(id_);
  }
  std::optional<Time> front;
  for (const Process* p : members_) {
    if (p->terminated()) {
      continue;
    }
    const Time local = p->clock().now();
    if (!front.has_value() || local > *front) {
      front = local;
    }
  }
  return front;
}

Time SyncDomain::max_offset() const {
  if (kernel_.foreign_group_read(*this)) {
    // front == global date + max offset over live processes, so the
    // horizon snapshot reconstructs the offset without touching live
    // clocks.
    const std::optional<Time> front = kernel_.published_front(id_);
    if (!front.has_value() || *front <= kernel_.now()) {
      return Time{};
    }
    return *front - kernel_.now();
  }
  Time max;
  for (const Process* p : members_) {
    if (!p->terminated() && p->clock().offset() > max) {
      max = p->clock().offset();
    }
  }
  return max;
}

Time SyncDomain::local_time_stamp() const {
  Process* p = kernel_.current_process();
  // From the scheduler context (e.g. callbacks), the local date degenerates
  // to the global date.
  return p != nullptr ? p->clock().now() : kernel_.now();
}

Time SyncDomain::local_offset() const {
  return current_clock().offset();
}

void SyncDomain::advance_local_to(Time date) {
  current_clock().advance_to(date);
}

void SyncDomain::sync(SyncCause cause) {
  const SyncContext ctx = kernel_.sync_context();
  if (ctx.process == nullptr) {
    outside_process_error();
  }
  perform_sync_in(ctx, ctx.process->clock(), cause);
}

bool SyncDomain::is_synchronized() const {
  return current_clock().is_synchronized();
}

bool SyncDomain::needs_sync() const {
  LocalClock& clock = current_clock();
  // A foreign domain's quantum would silently misanswer the policy
  // question; fail loudly instead.
  require_member(clock.owner());
  return quantum_exceeded(clock);
}

void SyncDomain::method_sync_trigger(SyncCause cause) {
  perform_method_rearm(current_clock(), cause);
}

Time SyncDomain::local_time_of(const Process& process) const {
  return process.clock().now();
}

const DomainStats& SyncDomain::stats() const {
  // kernel_.stats() resolves to the calling group's merged view inside a
  // parallel round, so a domain's own processes always see their own
  // counters exactly.
  return kernel_.stats().domains[id_];
}

std::uint64_t SyncDomain::syncs(SyncCause cause) const {
  return stats().syncs(cause);
}

std::uint64_t SyncDomain::syncs_performed() const {
  return stats().syncs_performed();
}

std::uint64_t SyncDomain::syncs_elided() const {
  return stats().syncs_elided;
}

void SyncDomain::outside_process_error() {
  Report::error("temporal decoupling used outside of a simulation process");
}

void SyncDomain::membership_error(const Process& process) const {
  Report::error("process '" + process.name() + "' belongs to domain '" +
                process.domain().name() + "' but synchronized through "
                "domain '" + name_ +
                "'; resolve the domain with Kernel::current_domain()");
}

void SyncDomain::perform_sync(LocalClock& clock, SyncCause cause) {
  const SyncContext ctx = kernel_.sync_context();
  // Suspension acts on the currently executing process, so only the owner
  // may sync its own clock; anything else would clear one process's offset
  // while suspending another.
  if (ctx.process != &clock.owner()) {
    Report::error("sync() invoked on the clock of process '" +
                  clock.owner().name() +
                  "', which is not the currently executing process");
  }
  perform_sync_in(ctx, clock, cause);
}

void SyncDomain::perform_sync_in(const SyncContext& ctx, LocalClock& clock,
                                 SyncCause cause) {
  Process& p = clock.owner();
  // A sync through a foreign domain would apply the wrong quantum policy
  // and book the switch against the wrong subsystem.
  require_member(p);
  const Time offset = clock.offset();
  // Only the owning domain's entry is touched per event; the kernel-wide
  // aggregate is folded from the domain entries when stats() is read (the
  // stale mark tells it to).
  ctx.stats->sync_aggregates_stale = 1;
  DomainStats& domain_stats = ctx.stats->domains[id_];
  domain_stats.sync_requests++;
  if (offset.is_zero()) {
    domain_stats.syncs_elided++;
    return;
  }
  if (p.kind() == ProcessKind::Method) {
    Report::error("sync() called from method process '" + p.name() +
                  "' with a non-zero local offset; use "
                  "method_sync_trigger() instead");
  }
  domain_stats.syncs_by_cause[static_cast<std::size_t>(cause)]++;
  clock.set_offset(Time{});
  kernel_.wait_for(p, offset);
}

void SyncDomain::perform_method_rearm(LocalClock& clock, SyncCause cause) {
  Process& p = clock.owner();
  if (p.kind() != ProcessKind::Method) {
    Report::error("method_sync_trigger() called from non-method process '" +
                  p.name() + "'");
  }
  const SyncContext ctx = kernel_.sync_context();
  if (ctx.process != &p) {
    Report::error("method_sync_trigger() invoked on the clock of process '" +
                  p.name() + "', which is not the currently executing process");
  }
  require_member(p);
  ctx.stats->sync_aggregates_stale = 1;
  DomainStats& domain_stats = ctx.stats->domains[id_];
  // A re-arm is a performed synchronization request (never elided), so it
  // counts on both sides of the requests == performed + elided invariant.
  domain_stats.sync_requests++;
  domain_stats.method_rearms++;
  domain_stats.syncs_by_cause[static_cast<std::size_t>(cause)]++;
  // next_trigger bumps the process's wake generation, so a previously
  // scheduled re-arm or timeout for this method can never fire stale.
  kernel_.next_trigger(clock.offset());
}

SyncDomain& current_sync_domain() {
  Kernel* k = Kernel::current();
  if (k == nullptr) {
    Report::error("temporal decoupling used outside of a running kernel");
  }
  return k->current_domain();
}

// --------------------------------------------------------------------------
// QuantumKeeper
// --------------------------------------------------------------------------

QuantumKeeper::QuantumKeeper(SyncDomain& domain)
    : kernel_(domain.kernel()), bound_domain_(&domain) {}

SyncDomain& QuantumKeeper::domain() const {
  return bound_domain_ != nullptr ? *bound_domain_ : kernel_.current_domain();
}

void QuantumKeeper::inc(Time duration) {
  domain().inc(duration);
}

Time QuantumKeeper::local_time() const {
  return domain().local_time_stamp();
}

bool QuantumKeeper::need_sync() const {
  return domain().needs_sync();
}

void QuantumKeeper::sync() {
  domain().sync(SyncCause::Quantum);
}

void QuantumKeeper::inc_and_sync_if_needed(Time duration) {
  domain().inc_and_sync_if_needed(duration, SyncCause::Quantum);
}

}  // namespace tdsim
