#include "suite.h"

#include <unistd.h>

#include <cstdio>

#include "kernel/quantum_controller.h"

namespace tdbench {

tdsim::KernelConfig explicit_config(std::size_t workers,
                                    std::size_t chunk_capacity) {
  return tdsim::KernelConfig{
      .workers = workers,
      .default_chunk_capacity = chunk_capacity,
      .adaptive_quantum = false,
      .quantum_trace_depth = tdsim::kQuantumTraceDepth,
      .lookahead_limit = 64,
      .delta_cycle_limit = 0,
      .wall_limit_ms = 0,
      .pooled_stacks = true,
      .stack_guard = true,
  };
}

void record_kernel_stats(const tdsim::KernelStats& s, Digest& counts,
                         RepOutput& out) {
  for (std::uint64_t v :
       {s.context_switches, s.method_activations, s.delta_cycles,
        s.timed_waves, s.event_triggers, s.processes_spawned,
        s.timed_queue_compactions, s.parallel_rounds, s.horizon_waits,
        s.lookahead_advances, s.stack_acquires, s.stack_releases, s.failures,
        s.watchdog_trips, s.retries, s.sync_requests, s.syncs_elided,
        s.method_rearms, s.quantum_adjustments}) {
    counts.add(v);
  }
  for (std::uint64_t v : s.syncs_by_cause) {
    counts.add(v);
  }
  out.counts = counts.value();
  auto& l = out.layer;
  l["kernel.context_switches"] = double(s.context_switches);
  l["kernel.method_activations"] = double(s.method_activations);
  l["kernel.delta_cycles"] = double(s.delta_cycles);
  l["kernel.timed_waves"] = double(s.timed_waves);
  l["kernel.event_triggers"] = double(s.event_triggers);
  l["sched.parallel_rounds"] = double(s.parallel_rounds);
  l["sched.horizon_waits"] = double(s.horizon_waits);
  l["sched.lookahead_advances"] = double(s.lookahead_advances);
  l["qc.adjustments"] = double(s.quantum_adjustments);
  l["elab.spawns"] = double(s.processes_spawned);
  l["pool.acquires"] = double(s.stack_acquires);
  // Timing dependent, so kept out of the counts digest.
  l["sched.steals"] = double(s.steals);
  l["pool.recycles"] = double(s.stack_recycles);
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  unsigned long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lu kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return double(kib) / 1024.0;
}

double current_rss_mb() {
  unsigned long pages_total = 0;
  unsigned long pages_resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  const int n = std::fscanf(f, "%lu %lu", &pages_total, &pages_resident);
  std::fclose(f);
  if (n != 2) {
    return 0;
  }
  return double(pages_resident) * double(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

}  // namespace tdbench
