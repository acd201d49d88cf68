// Consolidated kernel construction surface: KernelConfig for the kernel
// itself, DomainOptions for synchronization domains.
//
// This header is the single resolution point for every TDSIM_* execution
// knob. Precedence, in one place so it cannot drift:
//
//   explicit config  >  environment variable  >  built-in default
//
// A KernelConfig field left as nullopt means "not specified here": the
// Kernel constructor fills it from the matching environment variable when
// one is set, else from the built-in default. A field set explicitly wins
// over the environment unconditionally (tests pin behavior this way, CI
// forces the suite parallel the other way). The environment variables:
//
//   TDSIM_WORKERS           -> KernelConfig::workers
//       Numeric worker count for parallel per-domain execution; 0/1 keep
//       the sequential scheduler.
//   TDSIM_ADAPTIVE_QUANTUM  -> KernelConfig::adaptive_quantum
//       Any value but "" and "0" seeds a default QuantumPolicy on every
//       domain at creation (DomainOptions::policy overrides per domain).
//   TDSIM_CHUNKED           -> KernelConfig::default_chunk_capacity
//       A number >= 2 is the chunk capacity every new SmartFifo adopts,
//       "1" or any other truthy value picks the default capacity (16),
//       unset/"0" keeps per-element mode. The reference channels (Fifo,
//       SyncFifo, UntimedFifo) have no capacity and ignore it.
//   TDSIM_QUANTUM_TRACE     -> KernelConfig::quantum_trace_depth
//       Numeric depth (>= 1) of every domain's adaptive-decision trace
//       ring (default kQuantumTraceDepth = 8).
//   TDSIM_WALL_LIMIT_MS     -> KernelConfig::wall_limit_ms
//       Wall-clock watchdog budget per run() call, in milliseconds;
//       unset/"0" disables the watchdog (the default).
//   TDSIM_STACK_POOL        -> KernelConfig::pooled_stacks
//       "0" falls back to the legacy per-process heap fiber stacks
//       (value-initialized make_unique<char[]>); anything else (and
//       unset) uses the pooled mmap allocator (kernel/stack_pool.h).
//       Execution-only: simulation results are identical in both modes
//       (tests/test_scale.cpp asserts this). The legacy mode is no
//       longer a measured baseline; it stays only because the benchmark
//       suite's explicit KernelConfig still sets this field.
//   TDSIM_STACK_GUARD       -> KernelConfig::stack_guard
//       "0" disables the PROT_NONE guard page below each pooled fiber
//       stack; default on. Ignored in legacy heap mode (there is
//       nowhere to put a guard page in a malloc block -- that is the
//       bug the pool fixes).
//
// All of these are read by KernelConfig::from_env() and nowhere else; the
// legacy scattered getenv sites in the kernel are gone.
//
// Numeric variables are parsed strictly: trailing garbage ("4x"),
// values that overflow an unsigned 64-bit, and negative values are
// rejected with a Report warning naming the variable, and the knob falls
// back to the next layer of the precedence stack (empty string means
// "unset" -- silently ignored). TDSIM_CHUNKED keeps its documented
// any-truthy-value behavior, so garbage there still selects the default
// capacity (but numeric overflow warns and falls back to it too).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "kernel/quantum_controller.h"
#include "kernel/time.h"

namespace tdsim {

/// Kernel-wide execution knobs, all optional. Pass to Kernel(KernelConfig)
/// -- unset fields resolve from the environment, then from defaults (see
/// the header comment for the precedence contract). The resolved view is
/// readable back through Kernel::config().
///
/// Every knob here is *execution-only*: it changes how the simulation is
/// scheduled (worker count, chunking, adaptive control, trace depth,
/// lookahead windows), never what dates it computes -- the parallel
/// scheduler's bit-exactness guarantee. That is what makes snapshot
/// forking with per-fork config overrides sound (see kernel/snapshot.h).
struct KernelConfig {
  /// Worker threads for parallel per-domain execution (Kernel quota on
  /// the process-wide Scheduler). 0/1 = sequential. Default 0.
  std::optional<std::size_t> workers{};

  /// Chunk capacity every SmartFifo adopts at construction (the reference
  /// channels have none); 0/1 = per-element. Default 0.
  std::optional<std::size_t> default_chunk_capacity{};

  /// Seed a default QuantumPolicy on every created domain. Default false.
  std::optional<bool> adaptive_quantum{};

  /// Depth of the per-domain adaptive-decision trace ring (>= 1).
  /// Default kQuantumTraceDepth (8).
  std::optional<std::size_t> quantum_trace_depth{};

  /// Max timed waves per free-running lookahead extension; 0 disables
  /// free-running. Default 64. (No environment variable.)
  std::optional<std::size_t> lookahead_limit{};

  /// Kernel-wide delta-cycle livelock limit; 0 = unlimited. Default 0.
  /// (No environment variable.)
  std::optional<std::uint64_t> delta_cycle_limit{};

  /// Wall-clock watchdog budget per run() call, in milliseconds; 0
  /// disables. Checked deterministically at synchronization horizons
  /// (delta and timed-wave boundaries): a trip raises WatchdogError and
  /// fails the kernel with a FailureReport naming the lagging domain and
  /// the lookahead bound in force, instead of hanging the fleet. The
  /// *decision to check* is deterministic; whether a given run trips
  /// obviously depends on the host. Override per call with
  /// RunOptions::wall_limit_ms.
  std::optional<std::uint64_t> wall_limit_ms{};

  /// Fiber stacks come from the process-wide pooled mmap allocator
  /// (kernel/stack_pool.h): size-classed recycling, 16-byte-aligned
  /// stack tops, optional guard pages. false = legacy per-process heap
  /// stacks. Default true.
  std::optional<bool> pooled_stacks{};

  /// Arm the PROT_NONE guard page below each pooled fiber stack so a
  /// stack overflow faults instead of corrupting a neighbour. Only
  /// meaningful with pooled_stacks. Default true.
  std::optional<bool> stack_guard{};

  /// The environment layer of the precedence stack: a config whose fields
  /// are set exactly where the corresponding TDSIM_* variable is set (and
  /// parses). Kernel construction merges this *under* the explicit config.
  static KernelConfig from_env();

  /// `this` with unset fields filled from `fallback` -- the merge behind
  /// the precedence rule (explicit.resolved_over(from_env()) gives the
  /// env-or-explicit layer; the Kernel constructor applies the built-in
  /// defaults last).
  KernelConfig resolved_over(const KernelConfig& fallback) const;
};

/// Everything create_domain needs, in one struct:
///
///   kernel.create_domain({.name = "soc.cpu",
///                         .quantum = 10_ns,
///                         .concurrent = true,
///                         .policy = QuantumPolicy{}});
struct DomainOptions {
  /// Unique within the kernel. Required.
  std::string name;

  /// Synchronization quantum; zero disables quantum-driven decoupling.
  /// With a policy attached this seeds the adaptive starting point and is
  /// clamped into [policy.min_quantum, policy.max_quantum].
  Time quantum{};

  /// Seeds the domain's concurrency-group membership (see
  /// README "Parallel execution").
  bool concurrent = false;

  /// Adaptive quantum policy to attach at creation. nullopt still honors
  /// KernelConfig::adaptive_quantum's kernel-wide default seeding.
  std::optional<QuantumPolicy> policy{};

  /// Per-domain delta-cycle livelock limit; 0 = inherit the kernel-wide
  /// limit only.
  std::uint64_t delta_cycle_limit = 0;
};

}  // namespace tdsim
