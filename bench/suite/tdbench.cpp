// tdbench: runs one workload of the tdsim benchmark in this process -- a
// discarded warm-up repetition, then measured repetitions, then extra
// elaboration-only samples, and optionally one traced repetition -- and
// prints one JSON record on the last line of stdout. bench/suite/run.py
// drives it; see bench/suite/README.md.
//
// Usage: tdbench --workload NAME [--seed N] [--reps N | --seconds S]
//                [--smoke] [--trace] [--trace-out PATH]
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "span.h"
#include "suite.h"

#ifndef TDBENCH_BUILD_TYPE
#define TDBENCH_BUILD_TYPE "unknown"
#endif
#ifndef TDBENCH_CXX_FLAGS
#define TDBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace tdbench;

// --- build refusal: timing a debug or sanitizer build measures nothing ---

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#endif
#else
constexpr bool kAsan = false;
#endif

#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

struct WorkloadDef {
  const char* name;
  RepOutput (*run)(const RepContext&);
};

constexpr WorkloadDef kWorkloads[] = {
    {"fifo_narrow", run_fifo_narrow},
    {"fifo_wide", run_fifo_wide},
    {"soc_casestudy", run_soc_casestudy},
    {"multidomain_lookahead", run_multidomain_lookahead},
    {"multidomain_adaptive", run_multidomain_adaptive},
    {"scale_churn", run_scale_churn},
    {"fleet_fork", run_fleet_fork},
};

/// Elaboration-only samples taken after every measured repetition, and the
/// minimum sample count per run: set-up is microseconds for some
/// workloads, so it needs more samples than run time does, spread over
/// the whole run like the repetitions themselves.
constexpr std::size_t kSetupBurst = 5;
constexpr std::size_t kSetupSamples = 31;
constexpr std::size_t kMinTimedReps = 3;

RepOutput run_guarded(const WorkloadDef& w, const RepContext& ctx) {
  try {
    RepOutput out = w.run(ctx);
    if (!out.errors.empty() && out.failed == 0) {
      out.failed = out.attempted;
    }
    return out;
  } catch (const std::exception& e) {
    RepOutput out;
    out.fail(std::string("exception: ") + e.what());
    out.failed = out.attempted;
    return out;
  }
}

std::string json_string(const std::string& s) {
  std::string r = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      r += '\\';
      r += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      r += buf;
    } else {
      r += c;
    }
  }
  return r + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string rep_json(const RepOutput& r) {
  std::string s = "{\"setup_s\":" + json_number(r.setup_s) +
                  ",\"run_s\":" + json_number(r.run_s) +
                  ",\"outputs\":" + json_string(hex(r.outputs)) +
                  ",\"counts\":" + json_string(hex(r.counts)) +
                  ",\"attempted\":" + std::to_string(r.attempted) +
                  ",\"failed\":" + std::to_string(r.failed) + ",\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    s += (i ? "," : "") + json_string(r.errors[i]);
  }
  return s + "]}";
}

std::string config_json(const tdsim::KernelConfig& c) {
  const auto u = [](const auto& opt) {
    return opt.has_value() ? std::to_string(static_cast<std::uint64_t>(*opt))
                           : std::string("null");
  };
  return "{\"workers\":" + u(c.workers) +
         ",\"default_chunk_capacity\":" + u(c.default_chunk_capacity) +
         ",\"adaptive_quantum\":" + u(c.adaptive_quantum) +
         ",\"quantum_trace_depth\":" + u(c.quantum_trace_depth) +
         ",\"lookahead_limit\":" + u(c.lookahead_limit) +
         ",\"delta_cycle_limit\":" + u(c.delta_cycle_limit) +
         ",\"wall_limit_ms\":" + u(c.wall_limit_ms) +
         ",\"pooled_stacks\":" + u(c.pooled_stacks) +
         ",\"stack_guard\":" + u(c.stack_guard) + "}";
}

std::string map_json(const std::map<std::string, double>& m) {
  std::string s = "{";
  for (const auto& [k, v] : m) {
    s += (s.size() > 1 ? "," : "") + json_string(k) + ":" + json_number(v);
  }
  return s + "}";
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : (n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

/// The per-layer metrics of the traced repetition (see README.md for the
/// definitions), plus the span table.
std::string traced_json(const RepOutput& traced, const Tracer& tracer,
                        const RepOutput& warmup, const RepOutput& last,
                        double untraced_run_median, const std::string& file) {
  std::map<std::string, double> m = last.layer;
  const double threads = double(std::max<std::size_t>(1, traced.workers));
  const double capacity_s = threads * traced.run_s;

  // Non-suspending spans inside the run never overlap on one thread, so
  // their sum is time the kernel did not spend; a suspending span also
  // covers whatever the kernel ran meanwhile and stays in kernel.self_s.
  // What the spans themselves cost is discounted too.
  double child_fast_s = 0;
  std::uint64_t spans_in_run = tracer.total(Op::FleetScenario).count;
  for (Op op : {Op::Respawn, Op::FifoWrite, Op::FifoRead, Op::SyncInc,
                Op::SyncIncAndSync, Op::ModelSpin}) {
    child_fast_s += double(tracer.total(op, Outcome::Fast).sum_ns) * 1e-9;
    spans_in_run += tracer.total(op).count;
  }
  const double self_s =
      std::max(0.0, capacity_s - child_fast_s -
                        double(spans_in_run) * tracer.span_cost_ns() * 1e-9);
  const double activations =
      m["kernel.context_switches"] + m["kernel.method_activations"];
  m["kernel.self_s"] = self_s;
  m["kernel.ns_per_activation"] =
      activations > 0 ? self_s * 1e9 / activations : 0;

  SpanAgg fifo_fast = tracer.total(Op::FifoWrite, Outcome::Fast);
  fifo_fast.merge(tracer.total(Op::FifoRead, Outcome::Fast));
  SpanAgg fifo_all = tracer.total(Op::FifoWrite);
  fifo_all.merge(tracer.total(Op::FifoRead));
  // Where the channel's own counters exist, the spans must agree with
  // them call for call.
  const bool span_counts_match =
      !m.count("fifo.calls") ||
      (m["fifo.calls"] == double(fifo_all.count) &&
       m["fifo.blocked"] == double(fifo_all.count - fifo_fast.count));
  if (!m.count("fifo.calls")) {
    m["fifo.calls"] = double(fifo_all.count);
    m["fifo.blocked"] = double(fifo_all.count - fifo_fast.count);
  }
  m["fifo.fast_call_ns"] = fifo_fast.mean_ns();
  m["fifo.self_s"] = double(fifo_fast.sum_ns) * 1e-9;

  SpanAgg sync_all = tracer.total(Op::SyncInc);
  sync_all.merge(tracer.total(Op::SyncIncAndSync));
  SpanAgg sync_fast = tracer.total(Op::SyncInc, Outcome::Fast);
  sync_fast.merge(tracer.total(Op::SyncIncAndSync, Outcome::Fast));
  m["sync.calls"] = double(sync_all.count);
  m["sync.performed"] = double(sync_all.count - sync_fast.count);
  m["sync.elided"] = double(sync_fast.count);
  m["sync.quantum"] =
      sync_all.count ? tracer.quantum_ps_sum() / double(sync_all.count) : 0;
  m["sync.fast_call_ns"] = sync_fast.mean_ns();

  m["sched.busy_share"] = capacity_s > 0 ? child_fast_s / capacity_s : 0;
  if (!m.count("qc.final_quantum_ps")) {
    m["qc.final_quantum_ps"] = 0;
  }

  SpanAgg spawns = tracer.total(Op::Spawn);
  spawns.merge(tracer.total(Op::Respawn));
  m["elab.spawn_ns"] = spawns.mean_ns();
  m["elab.cold_setup_s"] = warmup.setup_s;
  m["mem.rss_setup_mb"] = warmup.rss_setup_mb;

  m["snapshot.capture_ms"] = tracer.total(Op::SnapshotCapture).mean_ns() / 1e6;
  m["fork.replay_ms"] = tracer.total(Op::ForkReplay).mean_ns() / 1e6;
  m["fleet.scenario_ms"] = tracer.total(Op::FleetScenario).mean_ns() / 1e6;
  if (!m.count("fleet.retries")) {
    m["fleet.retries"] = 0;
  }
  if (!m.count("soc.fifo_accesses")) {
    m["soc.fifo_accesses"] = 0;
  }
  m["soc.method_share"] =
      activations > 0 ? m["kernel.method_activations"] / activations : 0;
  m["trace.overhead"] =
      untraced_run_median > 0 ? traced.run_s / untraced_run_median - 1 : 0;

  std::string spans = "[";
  for (std::size_t op = 0; op < kOpCount; ++op) {
    for (Outcome outcome : {Outcome::Fast, Outcome::Suspended}) {
      const SpanAgg a = tracer.total(static_cast<Op>(op), outcome);
      if (a.count == 0) {
        continue;
      }
      spans += std::string(spans.size() > 1 ? "," : "") + "{\"op\":" +
               json_string(to_string(static_cast<Op>(op))) +
               ",\"outcome\":" +
               json_string(outcome == Outcome::Fast ? "fast" : "suspended") +
               ",\"count\":" + std::to_string(a.count) +
               ",\"sum_s\":" + json_number(double(a.sum_ns) * 1e-9) +
               ",\"mean_ns\":" + json_number(a.mean_ns()) +
               ",\"p50_ns\":" + json_number(a.quantile_ns(0.5)) +
               ",\"p99_ns\":" + json_number(a.quantile_ns(0.99)) + "}";
    }
  }
  spans += "]";
  return "{\"rep\":" + rep_json(traced) + ",\"metrics\":" + map_json(m) +
         ",\"span_counts_match\":" +
         (span_counts_match ? "true" : "false") + ",\"spans\":" + spans +
         ",\"span_overhead_ns\":" + std::to_string(tracer.overhead_ns()) +
         ",\"span_cost_ns\":" + json_number(tracer.span_cost_ns()) +
         ",\"file\":" + json_string(file) + "}";
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--reps N | --seconds S]"
               " [--smoke] [--trace] [--trace-out PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 1;
  std::size_t reps = 0;
  double seconds = 0;
  bool smoke = false;
  bool trace = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--reps" && has_value) {
      reps = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  const WorkloadDef* workload = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "tdbench: unknown workload '%s'\n", name.c_str());
    return usage(argv[0]);
  }
  if (!kOptimized || kAsan || kTsan) {
    std::fprintf(stderr,
                 "tdbench: REFUSING TO RUN: this binary was built %s. "
                 "Timings of such a build say nothing about tdsim; "
                 "configure bench/suite with -DCMAKE_BUILD_TYPE=Release and "
                 "no sanitizer flags.\n",
                 !kOptimized ? "without optimisation (no __OPTIMIZE__)"
                             : (kAsan ? "with AddressSanitizer"
                                      : "with ThreadSanitizer"));
    return 3;
  }
  if (reps == 0 && seconds <= 0) {
    reps = 5;
  }

  RepContext ctx{.seed = seed, .smoke = smoke};
  std::fprintf(stderr, "tdbench: %s seed %" PRIu64 "%s: warm-up\n",
               workload->name, seed, smoke ? " (smoke)" : "");
  const RepOutput warmup = run_guarded(*workload, ctx);

  RepContext setup_ctx = ctx;
  setup_ctx.setup_only = true;
  std::vector<RepOutput> measured;
  std::vector<double> setup_samples;
  double elapsed = 0;
  while (reps > 0 ? measured.size() < reps
                  : (measured.size() < kMinTimedReps || elapsed < seconds)) {
    measured.push_back(run_guarded(*workload, ctx));
    const RepOutput& r = measured.back();
    elapsed += r.setup_s + r.run_s;
    setup_samples.push_back(r.setup_s);
    for (std::size_t i = 0; i < kSetupBurst; ++i) {
      setup_samples.push_back(run_guarded(*workload, setup_ctx).setup_s);
    }
  }
  while (setup_samples.size() < kSetupSamples) {
    setup_samples.push_back(run_guarded(*workload, setup_ctx).setup_s);
  }
  const double peak_rss = peak_rss_mb();

  std::vector<double> run_times;
  for (const RepOutput& r : measured) {
    run_times.push_back(r.run_s);
  }
  const double run_median = median(run_times);
  std::fprintf(stderr, "tdbench: %s: %zu reps, run_s median %.4f\n",
               workload->name, measured.size(), run_median);

  std::string traced;
  if (trace) {
    Tracer tracer;
    RepContext traced_ctx = ctx;
    traced_ctx.tracer = &tracer;
    const RepOutput t = run_guarded(*workload, traced_ctx);
    if (!trace_out.empty() && !tracer.write_chrome_trace(trace_out)) {
      std::fprintf(stderr, "tdbench: could not write %s\n",
                   trace_out.c_str());
      trace_out.clear();
    }
    traced = traced_json(t, tracer, warmup, measured.back(), run_median,
                         trace_out);
  }

  std::string reps_json = "[";
  for (const RepOutput& r : measured) {
    reps_json += (reps_json.size() > 1 ? "," : "") + rep_json(r);
  }
  reps_json += "]";
  std::string setups = "[";
  for (double s : setup_samples) {
    setups += (setups.size() > 1 ? "," : "") + json_number(s);
  }
  setups += "]";
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf(
      "{\"workload\":%s,\"seed\":%" PRIu64
      ",\"smoke\":%s,\"build\":{\"compiler\":%s,\"build_type\":%s,"
      "\"flags\":%s,\"sanitizers\":%s},\"workers\":%zu,\"config\":%s,"
      "\"warmup\":%s,\"reps\":%s,\"setup_samples\":%s,\"peak_rss_mb\":%s,"
      "\"layer\":%s,\"traced\":%s}\n",
      json_string(workload->name).c_str(), seed, smoke ? "true" : "false",
      json_string(compiler).c_str(), json_string(TDBENCH_BUILD_TYPE).c_str(),
      json_string(TDBENCH_CXX_FLAGS).c_str(), json_string("none").c_str(),
      measured.back().workers, config_json(measured.back().config).c_str(),
      rep_json(warmup).c_str(), reps_json.c_str(), setups.c_str(),
      json_number(peak_rss).c_str(),
      map_json(measured.back().layer).c_str(),
      traced.empty() ? "null" : traced.c_str());
  return 0;
}
