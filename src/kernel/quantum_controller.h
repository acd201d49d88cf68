// Adaptive per-domain quantum control -- the feedback tuner that closes
// the paper's speed/accuracy loop.
//
// The central tradeoff of quantum-based temporal decoupling is the quantum
// size: a large quantum amortizes synchronization cost, a small one
// preserves timing fidelity, and the right value differs per subsystem and
// per phase of the workload. A SyncDomain that opts into a QuantumPolicy
// (Kernel::set_quantum_policy, or create_domain(..., policy)) has its
// quantum re-evaluated by the kernel-owned QuantumController at every
// synchronization horizon -- the timed-wave boundary where all concurrency
// groups are quiescent and the per-group counter buffers have been merged.
//
// Decisions read *deterministic* inputs only:
//
//   * the domain's per-cause sync deltas since its last decision: shrink
//     when accuracy-relevant causes (Smart-FIFO full/empty, explicit sync
//     points, monitor accesses -- see accuracy_relevant()) dominate, grow
//     on pure SyncCause::Quantum churn;
//   * the parallel cost signal: when two or more concurrency groups are
//     live, the signal compares *group* fronts (a group's front is the
//     front of its furthest-behind live domain -- the one gating it;
//     domains inside one group are serialized anyway, so intra-group skew
//     is not a parallelism cost). The domain gating the laggard group --
//     the one every horizon waits on -- gets shrink pressure and domains
//     of far-ahead waiter groups get grow pressure. Computed from the
//     horizon execution fronts and the (deterministic) live group count:
//     the workers-invariant analog of KernelStats::horizon_waits, which
//     only accrues in parallel mode.
//
// Because every input is identical under any worker count (the parallel
// scheduler's bit-exactness guarantee) and the decision point is a fixed
// place in the deterministic schedule, adaptive runs are bit-reproducible
// across repeated runs and across workers=0/1/N -- tests/
// test_adaptive_quantum.cpp enforces exactly that.
//
// The decision rule is deliberately boring: integer share thresholds with
// hysteresis (a direction must be confirmed on consecutive decisions
// before the first step applies), per-domain min/max clamps, and an
// exponential step schedule (consecutive same-direction steps escalate
// x2 -> x4 -> x8) so a badly seeded quantum converges in a handful of
// decisions. Every decision -- applied, clamped or held -- is recorded in
// the domain's QuantumDecision trace; applied changes additionally count
// in DomainStats::quantum_adjustments.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "kernel/stats.h"
#include "kernel/time.h"

namespace tdsim {

class Kernel;
class SyncDomain;

/// Per-domain knobs of the adaptive quantum controller. The defaults suit
/// a fine-annotation model (10 ns .. 100 us quanta); benches and tests
/// narrow the clamps to the range they sweep.
struct QuantumPolicy {
  /// Hard clamps of the adaptive quantum. min_quantum must be non-zero (a
  /// zero quantum means "sync at every annotation", which leaves the tuner
  /// nothing to scale) and <= max_quantum; attaching a policy immediately
  /// clamps the domain's quantum into this range.
  Time min_quantum = Time(10, TimeUnit::NS);
  Time max_quantum = Time(100, TimeUnit::US);

  /// Decision cadence: a horizon only evaluates a domain once it has
  /// performed this many syncs since its previous decision, so every
  /// decision sees a statistically meaningful per-cause window.
  std::uint64_t min_syncs_per_decision = 32;

  /// Grow when SyncCause::Quantum churn reaches this percentage of the
  /// window's performed syncs (integer percent -- decisions must not
  /// depend on floating-point rounding). Shrinking on accuracy-relevant
  /// causes is checked first, at a fixed 50%.
  unsigned grow_share_pct = 90;

  /// Hysteresis: consecutive decisions that must agree on a direction
  /// before the first step in that direction is applied. 1 disables
  /// confirmation.
  unsigned confirm_decisions = 2;
};

enum class QuantumDirection : std::uint8_t { Hold, Grow, Shrink };

/// Default depth of the per-domain decision-trace ring: the controller
/// keeps the last this-many decisions per domain (Kernel::decision_trace /
/// SyncDomain::decision_trace), enough to see a full confirm + escalate +
/// clamp episode without unbounded growth. KernelConfig::quantum_trace_depth
/// (TDSIM_QUANTUM_TRACE) sets another depth at kernel construction.
constexpr std::size_t kQuantumTraceDepth = 8;

constexpr const char* to_string(QuantumDirection d) {
  switch (d) {
    case QuantumDirection::Hold: return "hold";
    case QuantumDirection::Grow: return "grow";
    case QuantumDirection::Shrink: return "shrink";
  }
  return "?";
}

/// One controller decision -- the per-domain trace record handed out by
/// Kernel::last_quantum_decision() / SyncDomain::last_quantum_decision().
struct QuantumDecision {
  /// 1-based decision number within the domain.
  std::uint64_t serial = 0;
  /// Simulated date of the horizon that made the decision.
  Time at;
  Time old_quantum;
  Time new_quantum;
  QuantumDirection direction = QuantumDirection::Hold;
  /// Static string naming the dominant signal ("quantum churn",
  /// "accuracy-relevant syncs", "lagging group", "waiting group",
  /// "steady", "clamped", "awaiting confirmation").
  const char* reason = "";
  /// Input window behind the decision.
  std::uint64_t syncs_quantum = 0;
  std::uint64_t syncs_accuracy = 0;
  std::uint64_t syncs_total = 0;
};

/// Kernel-owned registry of per-domain quantum policies plus the decision
/// procedure. Created lazily by the first Kernel::set_quantum_policy();
/// the kernel calls on_horizon() from the scheduler loop at every
/// timed-wave boundary while at least one policy is attached.
class QuantumController {
 public:
  /// `trace_depth` sizes every domain's decision-trace ring; 0 picks
  /// kQuantumTraceDepth.
  QuantumController(Kernel& kernel, std::size_t trace_depth)
      : kernel_(kernel),
        trace_depth_(trace_depth != 0 ? trace_depth : kQuantumTraceDepth) {}
  QuantumController(const QuantumController&) = delete;
  QuantumController& operator=(const QuantumController&) = delete;

  void set_policy(SyncDomain& domain, const QuantumPolicy& policy);
  void clear_policy(SyncDomain& domain);

  /// The policy attached to `domain`, or null. Stable for the kernel's
  /// lifetime (per-domain state lives in a deque): attaching policies to
  /// other domains later does not invalidate the pointer.
  const QuantumPolicy* policy(const SyncDomain& domain) const;

  /// The domain's most recent decision, or null before the first one.
  /// Same lifetime guarantee as policy(); the pointee is rewritten as
  /// later decisions rotate through the trace ring.
  const QuantumDecision* last_decision(const SyncDomain& domain) const;

  /// The domain's recent decisions, oldest first: as many as the trace
  /// ring holds (fewer early on). Empty for a domain that never had a
  /// policy or has no decisions yet.
  std::vector<QuantumDecision> decision_trace(const SyncDomain& domain) const;

  bool any_active() const { return active_count_ > 0; }

  /// Re-evaluates every policy-carrying domain against the horizon-merged
  /// books. `stats` is the kernel's live KernelStats (writable: applied
  /// adjustments count in the owning domain's entry and mark the
  /// aggregates stale); `now` the horizon date. Main-thread only, with no
  /// parallel round in flight.
  void on_horizon(KernelStats& stats, Time now);

 private:
  struct DomainState {
    bool active = false;
    QuantumPolicy policy;
    /// Per-cause counts as of the previous decision (the window base).
    std::array<std::uint64_t, kSyncCauseCount> snapshot{};
    /// Set by on_horizon()'s ripeness prepass, consumed by decide() --
    /// the single place the min_syncs_per_decision rule is evaluated.
    bool window_ripe = false;
    /// Direction the recent decisions have been leaning (hysteresis).
    QuantumDirection pending = QuantumDirection::Hold;
    unsigned pending_count = 0;
    /// Consecutive applied steps in pending's direction (step schedule).
    unsigned streak = 0;
    /// 1-based decision counter; survives ring rotation (QuantumDecision
    /// serials must keep counting after old records are recycled).
    std::uint64_t serial = 0;
    /// Decision-trace ring, written at trace_next; the last trace_count
    /// slots (ending at trace_next - 1) are valid. Sized to the
    /// controller's trace depth when the domain's policy attaches (empty
    /// for never-attached domains).
    std::vector<QuantumDecision> trace;
    std::size_t trace_next = 0;
    std::size_t trace_count = 0;

    /// Rotates in and zeroes a fresh trace slot; the caller fills it.
    QuantumDecision& push_decision() {
      QuantumDecision& decision = trace[trace_next];
      trace_next = (trace_next + 1) % trace.size();
      if (trace_count < trace.size()) {
        trace_count++;
      }
      decision = QuantumDecision{};
      return decision;
    }

    const QuantumDecision* newest_decision() const {
      if (trace_count == 0) {
        return nullptr;
      }
      return &trace[(trace_next + trace.size() - 1) % trace.size()];
    }
  };

  /// The horizon's group-front comparison, computed once for all ripe
  /// domains (invalid when fewer than two groups are live).
  struct BalanceSignal {
    bool valid = false;
    Time min_group_front;
    Time max_group_front;
  };

  void decide(SyncDomain& domain, DomainState& state, KernelStats& stats,
              DomainStats& books, Time now, const BalanceSignal& balance);

  DomainState& state_for(const SyncDomain& domain);

  Kernel& kernel_;
  /// Per-domain state, indexed by domain id. A deque so the
  /// QuantumPolicy / QuantumDecision pointers handed out by policy() /
  /// last_decision() stay valid when later set_policy calls grow it.
  std::deque<DomainState> states_;
  std::size_t active_count_ = 0;
  /// Every attached policy sizes its ring to this.
  const std::size_t trace_depth_;
  /// Scratch for the per-horizon group-front computation (reused so ripe
  /// horizons allocate nothing in steady state).
  std::vector<std::size_t> group_roots_scratch_;
  std::vector<Time> group_fronts_scratch_;
};

}  // namespace tdsim
