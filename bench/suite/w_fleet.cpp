// fleet_fork: fleet::Supervisor over thousands of scenarios forked from
// one warm snapshot, four in flight at a time on workers=3 -- the model of
// the repo's bench_fleet. The platform is three producer/consumer Smart-FIFO
// pipelines warmed to 300 ns; each scenario grafts a fourth pipeline whose
// length comes from the seed. Operations are scenarios: one fails when it
// does not complete first time or its checksum or word count is wrong.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/smart_fifo.h"
#include "fleet/supervisor.h"
#include "kernel/kernel.h"
#include "kernel/snapshot.h"
#include "kernel/sync_domain.h"
#include "suite.h"
#include "traced.h"

namespace tdbench {

namespace {

using tdsim::Kernel;
using tdsim::SmartFifo;
using tdsim::SyncDomain;
using tdsim::ThreadOptions;
using tdsim::Time;
using tdsim::fleet::ScenarioOutcome;
using tdsim::fleet::ScenarioSpec;
using tdsim::fleet::ScenarioStatus;
using namespace tdsim::time_literals;

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kBatch = 4;
constexpr int kWords = 64;
constexpr Time kWarmSlice = 300_ns;
constexpr int kForkSamples = 100;

/// Per-kernel model state, looked up by kernel address so that build
/// steps replayed into forks construct fresh state. Dropped before its
/// kernel dies: channel destructors touch the kernel.
struct PipeState {
  std::unique_ptr<SmartFifo<int>> fifo;
  std::uint32_t checksum = 0;
  std::uint64_t consumed = 0;
  std::unique_ptr<SpanSink> sink;
};

std::map<const Kernel*, std::map<std::string, PipeState>> g_models;

/// Read when a build step executes, not when it is recorded: only the
/// supervised run is traced, not the warm-up or the fork samples.
Tracer* g_tracer = nullptr;

void drop_model(const Kernel& kernel) {
  auto it = g_models.find(&kernel);
  if (it == g_models.end()) {
    return;
  }
  for (auto& [tag, pipe] : it->second) {
    if (pipe.sink != nullptr) {
      g_tracer->absorb(std::move(pipe.sink));
    }
  }
  g_models.erase(it);
}

void build_pipeline(Kernel& k, const std::string& tag, int words) {
  k.build([tag, words](Kernel& kk) {
    PipeState& state = g_models[&kk][tag];
    if (g_tracer != nullptr) {
      state.sink = g_tracer->make_sink(64);
    }
    SpanSink* sink = state.sink.get();
    SyncDomain& prod = kk.create_domain(
        {.name = tag + "_prod", .quantum = 40_ns, .concurrent = true});
    SyncDomain& cons = kk.create_domain(
        {.name = tag + "_cons", .quantum = 300_ns, .concurrent = true});
    state.fifo = std::make_unique<SmartFifo<int>>(kk, tag + "_fifo", 4);
    SmartFifo<int>* fifo = state.fifo.get();
    ThreadOptions popts;
    popts.domain = &prod;
    kk.spawn_thread(tag + "_producer", [&kk, fifo, words, sink] {
      SyncDomain& domain = kk.current_domain();
      for (int i = 0; i < words; ++i) {
        sync_inc(sink, domain, (i % 5 + 1) * 3_ns);
        fifo_write(sink, *fifo, i);
      }
    }, popts);
    ThreadOptions copts;
    copts.domain = &cons;
    kk.spawn_thread(tag + "_consumer", [&kk, fifo, &state, words, sink] {
      SyncDomain& domain = kk.current_domain();
      for (int i = 0; i < words; ++i) {
        state.checksum = state.checksum * 31 +
                         static_cast<std::uint32_t>(fifo_read(sink, *fifo));
        state.consumed++;
        sync_inc(sink, domain, (i % 3 + 1) * 4_ns);
      }
    }, copts);
  });
}

std::uint32_t pipe_checksum(int words) {
  std::uint32_t c = 0;
  for (int i = 0; i < words; ++i) {
    c = c * 31 + static_cast<std::uint32_t>(i);
  }
  return c;
}

}  // namespace

RepOutput run_fleet_fork(const RepContext& ctx) {
  const int scenarios = ctx.smoke ? 40 : 9000;
  Rng rng(ctx.seed);
  std::vector<int> scn_words(scenarios);
  for (int& w : scn_words) {
    w = kWords / 4 + static_cast<int>(rng.below(7));
  }

  RepOutput out;
  out.workers = kWorkers;
  out.attempted = static_cast<std::uint64_t>(scenarios);
  g_tracer = nullptr;
  Phase setup(ctx.tracer, Op::Setup);
  Kernel warm(explicit_config(kWorkers));
  build_pipeline(warm, "cpu", kWords);
  build_pipeline(warm, "dma", kWords / 2);
  build_pipeline(warm, "io", kWords / 4);
  warm.run(kWarmSlice);
  const std::int64_t capture_start = SpanSink::now_ns();
  const tdsim::Snapshot snap = warm.snapshot();
  if (ctx.tracer != nullptr) {
    ctx.tracer->main().record(Op::SnapshotCapture, Outcome::Fast,
                              capture_start, SpanSink::now_ns());
  }
  end_setup(out, setup, warm);
  if (ctx.setup_only) {
    drop_model(warm);
    return out;
  }

  std::vector<ScenarioSpec> specs(static_cast<std::size_t>(scenarios));
  std::vector<std::int64_t> started(specs.size(), 0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = std::to_string(i);
    specs[i].fork.diverge = [i, &scn_words, &started](Kernel& kk) {
      started[i] = SpanSink::now_ns();
      build_pipeline(kk, "scn", scn_words[i]);
    };
  }

  struct Result {
    std::uint64_t end_ps = 0;
    std::uint64_t delta_cycles = 0;
    std::uint32_t checksum = 0;
    std::uint64_t consumed = 0;
    bool completed = false;
  };
  std::vector<Result> results(specs.size());
  tdsim::KernelStats fleet_stats;
  tdsim::fleet::Supervisor supervisor(
      snap, {}, {.batch = kBatch, .windows = {kWarmSlice + 500_ns}});
  g_tracer = ctx.tracer;
  Phase run(ctx.tracer, Op::Run);
  const std::vector<ScenarioOutcome> outcomes = supervisor.run(
      specs,
      [&](Kernel& kernel, const ScenarioSpec& spec, const ScenarioOutcome&) {
        const std::size_t i = std::stoul(spec.name);
        Result& r = results[i];
        r.end_ps = kernel.now().ps();
        r.delta_cycles = kernel.stats().delta_cycles;
        for (const auto& [tag, pipe] : g_models[&kernel]) {
          r.checksum = r.checksum * 16777619u + pipe.checksum;
          r.consumed += pipe.consumed;
        }
        r.completed = true;
        tdsim::accumulate(fleet_stats, kernel.stats());
        drop_model(kernel);
        if (ctx.tracer != nullptr) {
          ctx.tracer->main().record(Op::FleetScenario, Outcome::Fast,
                                    started[i], SpanSink::now_ns());
        }
      },
      [&](Kernel* kernel, const ScenarioSpec&, const tdsim::FailureReport&) {
        if (kernel != nullptr) {
          drop_model(*kernel);
        }
      });
  out.run_s = run.stop();
  g_tracer = nullptr;

  if (ctx.tracer != nullptr) {
    for (int s = 0; s < kForkSamples; ++s) {
      const std::int64_t start = SpanSink::now_ns();
      std::unique_ptr<Kernel> fork = Kernel::fork(snap);
      ctx.tracer->main().record(Op::ForkReplay, Outcome::Fast, start,
                                SpanSink::now_ns());
      drop_model(*fork);
    }
  }

  const std::uint32_t platform_checksum[3] = {
      pipe_checksum(kWords), pipe_checksum(kWords / 2),
      pipe_checksum(kWords / 4)};
  Digest outputs;
  Digest counts;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Result& r = results[i];
    std::uint32_t expected = 0;
    for (std::uint32_t c : platform_checksum) {
      expected = expected * 16777619u + c;
    }
    expected = expected * 16777619u + pipe_checksum(scn_words[i]);
    const std::uint64_t words = kWords + kWords / 2 + kWords / 4 +
                                static_cast<std::uint64_t>(scn_words[i]);
    if (outcomes[i].status != ScenarioStatus::Completed || !r.completed ||
        r.checksum != expected || r.consumed != words) {
      ++out.failed;
      if (out.errors.size() < 8) {
        out.fail("scenario " + specs[i].name + ": " +
                 tdsim::fleet::to_string(outcomes[i].status) +
                 (r.checksum != expected ? ", checksum mismatch" : ""));
      }
    }
    for (std::uint64_t v :
         {static_cast<std::uint64_t>(outcomes[i].status), r.end_ps,
          std::uint64_t{r.checksum}, r.consumed}) {
      outputs.add(v);
    }
    counts.add(r.delta_cycles);
  }
  if (warm.now() != snap.warmed_to) {
    out.fail("forking moved the warm platform");
    out.failed = out.attempted;
  }
  drop_model(warm);
  outputs.add(supervisor.retries());
  out.outputs = outputs.value();
  out.layer["fleet.retries"] = double(supervisor.retries());
  record_kernel_stats(fleet_stats, counts, out);
  return out;
}

}  // namespace tdbench
