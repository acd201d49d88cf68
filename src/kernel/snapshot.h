// Deterministic snapshot forking: restart-from-log checkpoints of a warm
// kernel (see README "Fleet / scheduler").
//
// A fiber-stack memcpy checkpoint of a running kernel would be hopelessly
// fragile (saved stack pointers, TLS, sanitizer bookkeeping, raw pointers
// everywhere). tdsim does not need one: the scheduler is deterministic, so
// *replaying the construction log* reproduces the exact same kernel state
// -- clocks, domains, queues, fiber positions, counters -- bit for bit.
// The contract:
//
//   1. Do all elaboration through Kernel::build(step): each step runs
//      immediately AND is recorded. run() calls are recorded too (the
//      warm-up is part of the log).
//   2. Kernel::snapshot() captures {resolved config, the log, the warm
//      date + delta fingerprint}. Cheap: no simulation state is copied.
//   3. Kernel::fork(snapshot, options) builds a fresh kernel from the
//      snapshot's config (with per-fork overrides merged on top), replays
//      the log, verifies the fingerprint, then applies the fork's
//      divergence step -- through build(), so forks can be re-snapshot
//      and forked again.
//
// Elaboration performed *outside* a build step (from elaboration context;
// mutations made by running processes are part of the deterministic
// schedule and are fine) marks the kernel snapshot-incapable -- the log
// would replay to a different kernel -- and snapshot() reports an error.
//
// Fork config overrides are restricted by construction to KernelConfig,
// whose knobs are all execution-only (see kernel_config.h): a fork that
// runs with different workers / chunking / adaptive settings still
// replays to the bit-identical warm state, by the parallel scheduler's
// bit-exactness guarantee. Divergence that changes *simulated* behavior
// (quanta, traffic, topology) belongs in ForkOptions::diverge, after the
// warm point -- exactly like a scenario that diverges from a common
// prefix. tests/test_snapshot.cpp holds forks bit-identical to cold
// runs, and the benchmark suite's fleet_fork workload pins thousands of
// forked scenarios' outputs to a reference digest.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "kernel/kernel_config.h"
#include "kernel/time.h"

namespace tdsim {

class Kernel;

/// A replayable checkpoint of a kernel: the resolved construction config,
/// the recorded build/run log, and the warm-state fingerprint. Value
/// type -- copy it, keep it, fork it N times; it holds no pointers into
/// the source kernel (the source may be destroyed before its snapshots
/// are forked, as long as the build steps' own captures stay valid).
struct Snapshot {
  /// The source kernel's fully resolved config; forks resolve their
  /// overrides over this, never over the environment at fork time.
  KernelConfig config;

  /// The recorded elaboration steps and run() calls, in order.
  std::vector<std::function<void(Kernel&)>> log;

  /// Simulated date the source kernel had reached at snapshot().
  Time warmed_to{};

  /// Delta-cycle count at snapshot() -- replay must land exactly here,
  /// and Kernel::fork verifies it does (a free end-to-end determinism
  /// check on every fork).
  std::uint64_t warm_delta_cycles = 0;
};

/// Per-fork variation.
struct ForkOptions {
  /// Execution-knob overrides, merged over Snapshot::config (unset fields
  /// inherit the snapshot's). Safe by construction: KernelConfig cannot
  /// change simulated dates.
  KernelConfig config;

  /// The scenario divergence, applied after replay + fingerprint check --
  /// via Kernel::build(), so the fork stays snapshot-capable. This is
  /// where simulated behavior changes: retune quanta, spawn extra
  /// traffic, reconfigure links.
  std::function<void(Kernel&)> diverge{};
};

}  // namespace tdsim
