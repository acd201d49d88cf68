// Supervised fleet execution: run batches of snapshot-forked scenarios on
// the shared Scheduler with a retry policy, so one misbehaving scenario
// cannot take the fleet down and scheduling-dependent bugs are separated
// from model bugs.
//
// The Supervisor owns the control loop bench_fleet (and any fleet driver)
// previously open-coded:
//
//   1. Fork a batch of scenarios from one warm Snapshot, arm each
//      scenario's FaultPlan (chaos overlay, usually empty).
//   2. Drive the batch interleaved: every kernel advances through the
//      same window milestones before any kernel runs to completion, which
//      maximizes scheduler multiplexing -- and is exactly the interleaving
//      the isolation tests pin down.
//   3. A kernel whose run() fails (Health::Failed) is destroyed on the
//      spot -- failed kernels are inert, their Scheduler slots already
//      released -- and the batch keeps going. After the batch, each failed
//      scenario is retried once, sequentially (workers=0 via the fork
//      config override): a retry that succeeds indicates a
//      scheduling-dependent bug (or an only-parallel injected fault); one
//      that fails the same way again is a model bug. Either way the
//      scenario is classified, never rerun a third time.
//   4. Persistent failures are quarantined: their FailureReports are
//      returned in the per-scenario ScenarioOutcome records, and the
//      fleet's digest/throughput accounting simply excludes them.
//
// Retried kernels carry KernelStats::retries = 1 (Kernel::note_retry), so
// fleet-wide stat sums separate first-try completions from retried ones.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "kernel/failure.h"
#include "kernel/fault_plan.h"
#include "kernel/kernel.h"
#include "kernel/snapshot.h"
#include "kernel/time.h"

namespace tdsim::fleet {

/// One scenario: a name, the fork recipe (config override + diverge
/// graft), and an optional chaos overlay armed on the forked kernel.
struct ScenarioSpec {
  std::string name;
  ForkOptions fork;
  FaultPlan faults;
};

struct RetryPolicy {
  /// Total attempts per scenario: the parallel batch run plus
  /// (max_attempts - 1) sequential retries. 1 disables retrying --
  /// every failure quarantines immediately.
  int max_attempts = 2;
  /// Retry with workers forced to 0 (the point of the policy: a
  /// sequential success separates scheduling bugs from model bugs).
  /// False retries under the scenario's own config.
  bool retry_sequential = true;
};

struct FleetOptions {
  /// Scenarios forked and driven concurrently per batch.
  std::size_t batch = 4;
  /// Absolute run() milestones each batch member reaches before any
  /// member runs to completion (the interleaving step). Empty = one
  /// run() to completion per kernel.
  std::vector<Time> windows{};
  /// Wall-clock watchdog per run() call (RunOptions::wall_limit_ms);
  /// nullopt inherits each kernel's config.
  std::optional<std::uint64_t> wall_limit_ms{};
};

enum class ScenarioStatus {
  Completed,    ///< first attempt succeeded
  Retried,      ///< first attempt failed, sequential retry succeeded
  Quarantined,  ///< every attempt failed; see failures in the outcome
};

const char* to_string(ScenarioStatus status);

/// Per-scenario result record.
struct ScenarioOutcome {
  std::string name;
  ScenarioStatus status = ScenarioStatus::Completed;
  int attempts = 0;
  /// The first attempt's post-mortem (set for Retried and Quarantined).
  std::optional<FailureReport> first_failure;
  /// The terminal post-mortem of a quarantined scenario.
  std::optional<FailureReport> final_failure;
};

class Supervisor {
 public:
  /// Called for every scenario that completed (first try or retry), with
  /// the finished kernel still alive -- capture digests/stats here. The
  /// kernel is destroyed right after the callback returns.
  using CompletionFn = std::function<void(
      Kernel&, const ScenarioSpec&, const ScenarioOutcome&)>;

  /// Called for every *failed attempt*, with the failed kernel still
  /// alive (so callers can tear down per-kernel model state before the
  /// Supervisor destroys it). The kernel pointer is null when fork()
  /// itself threw before returning a kernel.
  using FailureFn = std::function<void(
      Kernel*, const ScenarioSpec&, const FailureReport&)>;

  explicit Supervisor(Snapshot snapshot, RetryPolicy retry = {},
                      FleetOptions fleet = {});

  /// Runs every scenario (batched, interleaved, supervised; see the
  /// header comment) and returns one outcome per scenario, in input
  /// order. Exceptions from failed kernels are absorbed into the
  /// outcomes; on_complete/on_failure exceptions propagate (a capture bug
  /// is the caller's, not a scenario failure).
  std::vector<ScenarioOutcome> run(const std::vector<ScenarioSpec>& scenarios,
                                   const CompletionFn& on_complete = {},
                                   const FailureFn& on_failure = {});

  /// Sequential retries attempted / scenarios quarantined so far.
  std::uint64_t retries() const { return retries_; }
  std::uint64_t quarantined() const { return quarantined_; }

 private:
  Snapshot snapshot_;
  RetryPolicy retry_;
  FleetOptions fleet_;
  std::uint64_t retries_ = 0;
  std::uint64_t quarantined_ = 0;
};

}  // namespace tdsim::fleet
