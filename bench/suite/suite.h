// Shared types of the tdbench workloads: the per-repetition record, the
// deterministic digests, the seeded generator, and the explicit kernel
// configuration every workload runs under.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kernel/kernel_config.h"
#include "kernel/stats.h"

namespace tdbench {

class Tracer;

/// FNV-1a over 64-bit words. A repetition folds two of them: one over what
/// the model simulated (dates, checksums, word counts, final quanta,
/// scenario results) and one over how the kernel got there (its counters).
class Digest {
 public:
  void add(std::uint64_t v) { h_ = (h_ ^ v) * 1099511628211ull; }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// splitmix64: the only source of seed-dependent inputs (per-block rates,
/// scenario lengths, spin seeds, poll phases).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// What a workload is asked to do for one repetition.
struct RepContext {
  std::uint64_t seed = 1;
  /// Toy sizes (run.py --smoke); outputs digests pinned separately.
  bool smoke = false;
  /// Elaborate, time the set-up, tear down without running.
  bool setup_only = false;
  /// Non-null only on the traced repetition.
  Tracer* tracer = nullptr;
};

/// One repetition's result.
struct RepOutput {
  /// Elaboration: Kernel construction through the last spawn / build /
  /// snapshot.
  double setup_s = 0;
  /// Host time of Kernel::run / run_to_completion / Supervisor::run.
  double run_s = 0;
  /// Resident set size right after elaboration.
  double rss_setup_mb = 0;
  /// Operations: 1 per repetition, or the scenario count for fleet_fork.
  std::uint64_t attempted = 1;
  std::uint64_t failed = 0;
  /// Model-level check failures, one line each.
  std::vector<std::string> errors;
  /// Digest of the simulated outputs: end and observed dates, checksums,
  /// word counts, final quanta, scenario results. Seed 1 must match
  /// bench/suite/reference.json; a faster kernel must not move it.
  std::uint64_t outputs = 0;
  /// Digest of the deterministic implementation counters (KernelStats,
  /// FIFO blocks). Every repetition of a run must agree on it, the traced
  /// one too, but it is pinned nowhere: an optimisation may change it.
  std::uint64_t counts = 0;
  /// Per-layer values known without tracing: deterministic counts (all
  /// folded into `counts`) plus sched.steals / pool.recycles.
  std::map<std::string, double> layer;
  /// Resolved config of the workload's (first) kernel.
  tdsim::KernelConfig config;
  /// Worker quota of the workload's kernels (0 = sequential).
  std::size_t workers = 0;

  void fail(std::string message) { errors.push_back(std::move(message)); }
};

/// A KernelConfig with every field set, so no TDSIM_* variable can change
/// what a workload measures through KernelConfig::from_env(). A
/// `chunk_capacity` of 2 or more puts every channel in chunked mode.
tdsim::KernelConfig explicit_config(std::size_t workers,
                                    std::size_t chunk_capacity = 0);

/// Folds every deterministic KernelStats field into `counts` and records
/// the kernel / scheduler / elaboration counts in `out.layer`.
void record_kernel_stats(const tdsim::KernelStats& stats, Digest& counts,
                         RepOutput& out);

/// Current resident set size in MiB (/proc/self/statm).
double current_rss_mb();

/// Peak resident set size of this process image in MiB (VmHWM). Unlike
/// getrusage's ru_maxrss it does not inherit the launching process's
/// peak across fork + exec.
double peak_rss_mb();

/// The deterministic stand-in for per-step model computation of the
/// multidomain workloads (the recurrence of bench_multidomain_soc).
inline std::uint64_t spin_work(std::uint64_t seed, std::uint64_t iters) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ull;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  return x;
}

RepOutput run_fifo_narrow(const RepContext& ctx);
RepOutput run_fifo_wide(const RepContext& ctx);
RepOutput run_soc_casestudy(const RepContext& ctx);
RepOutput run_multidomain_lookahead(const RepContext& ctx);
RepOutput run_multidomain_adaptive(const RepContext& ctx);
RepOutput run_scale_churn(const RepContext& ctx);
RepOutput run_fleet_fork(const RepContext& ctx);

}  // namespace tdbench
