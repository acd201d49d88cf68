#include "kernel/quantum_controller.h"

#include <algorithm>

#include "kernel/kernel.h"
#include "kernel/report.h"
#include "kernel/sync_domain.h"

namespace tdsim {

namespace {

/// Shrink when accuracy-relevant causes reach this percentage of the
/// window's performed syncs.
constexpr unsigned kShrinkSharePct = 50;
/// Exponential step schedule: the k-th consecutive applied step in one
/// direction scales the quantum by 2^min(k, kMaxStepExp).
constexpr unsigned kMaxStepExp = 3;
/// Front-lag threshold of the balancing signal, as a multiple of the
/// domain's current quantum: a spread below this is noise.
constexpr unsigned kBalanceLagQuanta = 4;

void validate_policy(const SyncDomain& domain, const QuantumPolicy& policy) {
  if (policy.min_quantum.is_zero()) {
    Report::error("QuantumPolicy for domain '" + domain.name() +
                  "': min_quantum must be non-zero (a zero quantum disables "
                  "decoupling and leaves the tuner nothing to scale)");
  }
  if (policy.min_quantum > policy.max_quantum) {
    Report::error("QuantumPolicy for domain '" + domain.name() +
                  "': min_quantum exceeds max_quantum");
  }
  if (policy.min_syncs_per_decision == 0 || policy.confirm_decisions == 0) {
    Report::error("QuantumPolicy for domain '" + domain.name() +
                  "': min_syncs_per_decision and confirm_decisions must "
                  "both be >= 1");
  }
  if (policy.grow_share_pct > 100) {
    Report::error("QuantumPolicy for domain '" + domain.name() +
                  "': grow_share_pct is a percentage (0..100)");
  }
}

Time clamp_quantum(Time q, const QuantumPolicy& policy) {
  return std::clamp(q, policy.min_quantum, policy.max_quantum);
}

}  // namespace

QuantumController::DomainState& QuantumController::state_for(
    const SyncDomain& domain) {
  if (states_.size() <= domain.id()) {
    states_.resize(domain.id() + 1);
  }
  return states_[domain.id()];
}

void QuantumController::set_policy(SyncDomain& domain,
                                   const QuantumPolicy& policy) {
  validate_policy(domain, policy);
  DomainState& state = state_for(domain);
  if (!state.active) {
    active_count_++;
  }
  state = DomainState{};
  state.trace.assign(trace_depth_, QuantumDecision{});
  state.active = true;
  state.policy = policy;
  // The first decision window starts at the attach point, not at kernel
  // construction -- seed the snapshot from the domain's current books.
  state.snapshot = kernel_.stats().domains[domain.id()].syncs_by_cause;
  // An adaptive domain always runs inside its clamps, starting now.
  const Time clamped = clamp_quantum(domain.quantum(), policy);
  if (clamped != domain.quantum()) {
    domain.set_quantum(clamped);
  }
}

void QuantumController::clear_policy(SyncDomain& domain) {
  if (states_.size() <= domain.id() || !states_[domain.id()].active) {
    return;
  }
  states_[domain.id()].active = false;
  active_count_--;
}

const QuantumPolicy* QuantumController::policy(const SyncDomain& domain) const {
  if (states_.size() <= domain.id() || !states_[domain.id()].active) {
    return nullptr;
  }
  return &states_[domain.id()].policy;
}

const QuantumDecision* QuantumController::last_decision(
    const SyncDomain& domain) const {
  if (states_.size() <= domain.id()) {
    return nullptr;
  }
  return states_[domain.id()].newest_decision();
}

std::vector<QuantumDecision> QuantumController::decision_trace(
    const SyncDomain& domain) const {
  std::vector<QuantumDecision> out;
  if (states_.size() <= domain.id()) {
    return out;
  }
  const DomainState& state = states_[domain.id()];
  out.reserve(state.trace_count);
  const std::size_t depth = state.trace.size();
  for (std::size_t i = 0; i < state.trace_count; ++i) {
    const std::size_t slot =
        (state.trace_next + depth - state.trace_count + i) % depth;
    out.push_back(state.trace[slot]);
  }
  return out;
}

void QuantumController::on_horizon(KernelStats& stats, Time now) {
  std::vector<DomainStats>& domain_stats = stats.domains;
  // First pass: which adaptive domains have a ripe decision window? A few
  // integer adds per domain -- on the vast majority of waves nothing is
  // ripe and the horizon costs nothing further.
  const auto& domains = kernel_.domains();
  bool any_ripe = false;
  for (std::size_t id = 0; id < states_.size(); ++id) {
    DomainState& state = states_[id];
    if (!state.active) {
      continue;
    }
    // Re-establish the clamp invariant first: set_quantum() /
    // set_global_quantum() bypass the controller, so a quantum pushed
    // outside [min, max] after attach is corrected at the next horizon
    // and recorded as a clamped decision.
    SyncDomain& domain = *domains[id];
    const Time clamped = clamp_quantum(domain.quantum(), state.policy);
    if (clamped != domain.quantum()) {
      QuantumDecision& decision = state.push_decision();
      decision.serial = ++state.serial;
      decision.at = now;
      decision.old_quantum = domain.quantum();
      decision.new_quantum = clamped;
      decision.direction = clamped > domain.quantum()
                               ? QuantumDirection::Grow
                               : QuantumDirection::Shrink;
      decision.reason = "clamped";
      domain.set_quantum(clamped);
      domain_stats[id].quantum_adjustments++;
      stats.sync_aggregates_stale = 1;
    }
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kSyncCauseCount; ++i) {
      total += domain_stats[id].syncs_by_cause[i] - state.snapshot[i];
    }
    state.window_ripe = total >= state.policy.min_syncs_per_decision;
    any_ripe = any_ripe || state.window_ripe;
  }
  if (!any_ripe) {
    return;
  }
  // The parallel cost signal, computed once per ripe horizon from
  // quantities that are identical under every worker count: per-*group*
  // execution fronts (a group's front is its furthest-behind live
  // domain's front -- the one gating it; intra-group skew is serialized
  // anyway and must not drive balancing) and the number of live groups.
  // live_groups - 1 is what KernelStats::horizon_waits would add per
  // parallel round, but unlike horizon_waits it does not depend on
  // parallel mode being on. Exact front reads are safe here: no round is
  // in flight.
  BalanceSignal balance;
  group_roots_scratch_.clear();
  group_fronts_scratch_.clear();
  for (const auto& domain : domains) {
    const std::optional<Time> front = domain->execution_front();
    if (!front.has_value()) {
      continue;
    }
    const std::size_t root = kernel_.domain_group(*domain);
    const auto it = std::find(group_roots_scratch_.begin(),
                              group_roots_scratch_.end(), root);
    if (it == group_roots_scratch_.end()) {
      group_roots_scratch_.push_back(root);
      group_fronts_scratch_.push_back(*front);
    } else {
      Time& group_front =
          group_fronts_scratch_[it - group_roots_scratch_.begin()];
      group_front = std::min(group_front, *front);
    }
  }
  if (group_roots_scratch_.size() >= 2) {
    balance.valid = true;
    balance.min_group_front = group_fronts_scratch_.front();
    balance.max_group_front = group_fronts_scratch_.front();
    for (Time front : group_fronts_scratch_) {
      balance.min_group_front = std::min(balance.min_group_front, front);
      balance.max_group_front = std::max(balance.max_group_front, front);
    }
  }
  for (std::size_t id = 0; id < states_.size(); ++id) {
    DomainState& state = states_[id];
    if (!state.active) {
      continue;
    }
    decide(*domains[id], state, stats, domain_stats[id], now, balance);
  }
}

void QuantumController::decide(SyncDomain& domain, DomainState& state,
                               KernelStats& stats, DomainStats& books,
                               Time now, const BalanceSignal& balance) {
  const QuantumPolicy& policy = state.policy;
  if (!state.window_ripe) {
    return;  // window not ripe yet (prepass verdict); keep accumulating
  }
  state.window_ripe = false;

  // The decision window: per-cause deltas since the previous decision.
  std::uint64_t total = 0;
  std::uint64_t churn = 0;
  std::uint64_t accuracy = 0;
  for (std::size_t i = 0; i < kSyncCauseCount; ++i) {
    const std::uint64_t delta = books.syncs_by_cause[i] - state.snapshot[i];
    total += delta;
    const auto cause = static_cast<SyncCause>(i);
    if (cause == SyncCause::Quantum) {
      churn = delta;
    } else if (accuracy_relevant(cause)) {
      accuracy += delta;
    }
  }
  state.snapshot = books.syncs_by_cause;  // consume the window

  // Primary signal: per-cause shares (integer percent math only).
  QuantumDirection desired = QuantumDirection::Hold;
  const char* reason = "steady";
  if (accuracy * 100 >= total * kShrinkSharePct) {
    desired = QuantumDirection::Shrink;
    reason = "accuracy-relevant syncs";
  } else if (churn * 100 >= total * policy.grow_share_pct) {
    desired = QuantumDirection::Grow;
    reason = "quantum churn";
  } else if (balance.valid) {
    // Secondary signal: front-lag balancing between live groups. Look up
    // this domain's group front from the horizon scratch.
    const std::size_t root = kernel_.domain_group(domain);
    const auto it = std::find(group_roots_scratch_.begin(),
                              group_roots_scratch_.end(), root);
    const std::optional<Time> front = domain.execution_front();
    const Time threshold = domain.quantum() * kBalanceLagQuanta;
    if (it != group_roots_scratch_.end() && front.has_value() &&
        balance.max_group_front - balance.min_group_front > threshold) {
      const Time group_front =
          group_fronts_scratch_[it - group_roots_scratch_.begin()];
      if (group_front == balance.min_group_front &&
          *front == group_front) {
        // This domain gates the laggard group every horizon waits on.
        desired = QuantumDirection::Shrink;
        reason = "lagging group";
      } else if (group_front - balance.min_group_front > threshold) {
        desired = QuantumDirection::Grow;
        reason = "waiting group";
      }
    }
  }

  // Hysteresis: a fresh direction must be confirmed on consecutive
  // decisions before the first step applies.
  if (desired == QuantumDirection::Hold) {
    state.pending = QuantumDirection::Hold;
    state.pending_count = 0;
    state.streak = 0;
  } else if (desired == state.pending) {
    state.pending_count++;
  } else {
    state.pending = desired;
    state.pending_count = 1;
    state.streak = 0;
  }

  const Time old_quantum = domain.quantum();
  Time new_quantum = old_quantum;
  if (desired != QuantumDirection::Hold) {
    if (state.pending_count < policy.confirm_decisions) {
      reason = "awaiting confirmation";
    } else {
      // Exponential step schedule: x2, x4, x8, ... up to 2^kMaxStepExp.
      const unsigned exponent = std::min(state.streak + 1, kMaxStepExp);
      const std::uint64_t factor = std::uint64_t{1} << exponent;
      const std::uint64_t old_ps = old_quantum.ps();
      if (desired == QuantumDirection::Grow) {
        const std::uint64_t max_ps = policy.max_quantum.ps();
        new_quantum = (old_ps == 0 || old_ps > max_ps / factor)
                          ? policy.max_quantum
                          : Time::from_ps(old_ps * factor);
      } else {
        new_quantum = Time::from_ps(
            std::max(policy.min_quantum.ps(), old_ps / factor));
      }
      new_quantum = clamp_quantum(new_quantum, policy);
      if (new_quantum == old_quantum) {
        reason = "clamped";
      } else {
        state.streak++;
      }
    }
  }

  QuantumDecision& decision = state.push_decision();
  decision.serial = ++state.serial;
  decision.at = now;
  decision.old_quantum = old_quantum;
  decision.new_quantum = new_quantum;
  // Report what actually happened to the quantum, not the desire (the
  // two cannot diverge now that every horizon re-clamps first, but keep
  // the trace honest by construction).
  decision.direction = new_quantum == old_quantum ? QuantumDirection::Hold
                       : new_quantum > old_quantum ? QuantumDirection::Grow
                                                   : QuantumDirection::Shrink;
  decision.reason = reason;
  decision.syncs_quantum = churn;
  decision.syncs_accuracy = accuracy;
  decision.syncs_total = total;

  if (new_quantum != old_quantum) {
    domain.set_quantum(new_quantum);
    books.quantum_adjustments++;
    stats.sync_aggregates_stale = 1;
  }
}

}  // namespace tdsim
