// Fault containment (kernel/failure.h, kernel/fault_plan.h,
// fleet/supervisor.h): any exception leaving run() lands the kernel in
// Health::Failed with a structured FailureReport while sibling kernels on
// the shared Scheduler stay bit-exact with their solo runs; wall-clock
// watchdogs trip at horizons instead of hanging; destruction after a
// failed run is leak-free (the ASan job holds this suite to it); and the
// fleet Supervisor separates scheduling bugs (sequential retry succeeds)
// from model bugs (quarantined). Failures are injected with the
// deterministic chaos harness, keyed on (process, activation) -- points of
// the schedule that are identical at every worker count.
#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/mutations.h"
#include "core/smart_fifo.h"
#include "fleet/supervisor.h"
#include "kernel/event.h"
#include "kernel/failure.h"
#include "kernel/fault_plan.h"
#include "kernel/kernel.h"
#include "kernel/report.h"
#include "kernel/snapshot.h"
#include "kernel/sync_domain.h"

namespace tdsim {
namespace {

struct Fingerprint {
  std::vector<Time> dates;
  Time end;
  std::uint64_t delta_cycles = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t sync_requests = 0;

  void capture(const Kernel& k) {
    end = k.now();
    delta_cycles = k.stats().delta_cycles;
    context_switches = k.stats().context_switches;
    sync_requests = k.stats().sync_requests;
  }
};

void expect_fingerprint_equal(const Fingerprint& a, const Fingerprint& b,
                              const std::string& what) {
  EXPECT_EQ(a.end, b.end) << what;
  EXPECT_EQ(a.delta_cycles, b.delta_cycles) << what;
  EXPECT_EQ(a.context_switches, b.context_switches) << what;
  EXPECT_EQ(a.sync_requests, b.sync_requests) << what;
  EXPECT_EQ(a.dates, b.dates) << what;
}

/// Per-kernel workload state (same discipline as test_scheduler.cpp):
/// stable addresses while several kernels run side by side.
struct Model {
  std::deque<std::unique_ptr<SmartFifo<int>>> fifos;
  std::deque<std::vector<Time>> cluster_dates;

  std::vector<Time> dates() const {
    std::vector<Time> all;
    for (const std::vector<Time>& cluster : cluster_dates) {
      all.insert(all.end(), cluster.begin(), cluster.end());
    }
    return all;
  }
};

/// Two producer/consumer clusters over Smart FIFOs, seeded so different
/// kernels carry visibly different schedules. Process names are
/// "producer<seed>_<c>" / "consumer<seed>_<c>" -- the chaos specs below
/// key on them.
void build_model(Kernel& k, Model& model, int seed, int words) {
  for (int c = 0; c < 2; ++c) {
    const std::string suffix = std::to_string(seed) + "_" + std::to_string(c);
    SyncDomain& prod = k.create_domain(
        {.name = "fp" + suffix, .quantum = 40_ns, .concurrent = true});
    SyncDomain& cons = k.create_domain(
        {.name = "fc" + suffix, .quantum = 300_ns, .concurrent = true});
    model.fifos.push_back(
        std::make_unique<SmartFifo<int>>(k, "ff" + suffix, 3));
    SmartFifo<int>* fifo = model.fifos.back().get();
    model.cluster_dates.emplace_back();
    std::vector<Time>* dates = &model.cluster_dates.back();
    ThreadOptions popts;
    popts.domain = &prod;
    k.spawn_thread("producer" + suffix, [&k, fifo, seed, c, words] {
      for (int i = 0; i < words; ++i) {
        k.current_domain().inc((i % 5 + 1 + seed + c) * 3_ns);
        fifo->write(i);
      }
    }, popts);
    ThreadOptions copts;
    copts.domain = &cons;
    k.spawn_thread("consumer" + suffix, [&k, fifo, dates, seed, c, words] {
      for (int i = 0; i < words; ++i) {
        const int v = fifo->read();
        k.current_domain().inc((i % 3 + 1 + seed + c) * 4_ns);
        dates->push_back(k.current_domain().local_time_stamp());
        if (v != i) {
          dates->push_back(Time::max());  // corruption marker
        }
      }
    }, copts);
  }
}

Fingerprint run_solo(std::size_t workers, int seed, int words) {
  Kernel k(KernelConfig{.workers = workers});
  Model model;
  build_model(k, model, seed, words);
  k.run();
  Fingerprint out;
  out.capture(k);
  out.dates = model.dates();
  return out;
}

/// Silences the report sink for a scope (injected faults emit warnings;
/// the isolation loop would spam stderr otherwise).
class QuietReports {
 public:
  QuietReports()
      : previous_(Report::set_handler([](Severity, const std::string&) {})) {}
  ~QuietReports() { Report::set_handler(previous_); }

 private:
  Report::Handler previous_;
};

// ---------------------------------------------------------------------------
// Tentpole: isolation. A deliberately crashing kernel interleaved with
// healthy siblings on the shared Scheduler must leave the siblings
// bit-identical to their solo runs, at every worker count.
// ---------------------------------------------------------------------------

TEST(FaultContainment, CrashingSiblingLeavesInterleavedKernelsBitExact) {
  QuietReports quiet;
  constexpr int kWords = 40;
  for (std::size_t workers : {0u, 1u, 4u}) {
    const std::string what = "workers=" + std::to_string(workers);
    const Fingerprint solo_a = run_solo(workers, /*seed=*/0, kWords);
    const Fingerprint solo_b = run_solo(workers, /*seed=*/7, kWords);

    Kernel ka(KernelConfig{.workers = workers});
    Kernel kb(KernelConfig{.workers = workers});
    Kernel kc(KernelConfig{.workers = workers});
    Model ma;
    Model mb;
    Model mc;
    build_model(ka, ma, /*seed=*/0, kWords);
    build_model(kb, mb, /*seed=*/7, kWords);
    build_model(kc, mc, /*seed=*/9, kWords);
    kc.arm_faults(FaultPlan::parse("throw:producer9_0@5"));

    bool crashed = false;
    auto drive_crasher = [&](Time until) {
      if (crashed) {
        return;
      }
      try {
        kc.run(until);
      } catch (const InjectedFault&) {
        crashed = true;
      }
    };
    for (Time slice : {100_ns, 300_ns, 650_ns}) {
      ka.run(slice);
      drive_crasher(slice);
      kb.run(slice);
    }
    ka.run();
    drive_crasher(Time::max());
    kb.run();

    ASSERT_TRUE(crashed) << what;
    EXPECT_EQ(kc.health(), Health::Failed) << what;
    ASSERT_NE(kc.failure(), nullptr) << what;
    EXPECT_EQ(kc.failure()->kind, FailureKind::Injected) << what;
    EXPECT_EQ(kc.failure()->process, "producer9_0") << what;
    EXPECT_EQ(kc.failure()->domain, "fp9_0") << what;

    Fingerprint inter_a;
    inter_a.capture(ka);
    inter_a.dates = ma.dates();
    Fingerprint inter_b;
    inter_b.capture(kb);
    inter_b.dates = mb.dates();
    expect_fingerprint_equal(solo_a, inter_a, "kernel A beside crash, " + what);
    expect_fingerprint_equal(solo_b, inter_b, "kernel B beside crash, " + what);
  }
}

// ---------------------------------------------------------------------------
// Defined failure states.
// ---------------------------------------------------------------------------

TEST(FaultContainment, FailedIsTerminalAndCarriesAStructuredReport) {
  QuietReports quiet;
  Kernel k;
  Model m;
  build_model(k, m, /*seed=*/1, /*words=*/20);
  EXPECT_EQ(k.health(), Health::Idle);
  k.arm_faults(FaultPlan::parse("throw:producer1_0@3"));
  EXPECT_THROW(k.run(), InjectedFault);

  EXPECT_EQ(k.health(), Health::Failed);
  ASSERT_NE(k.failure(), nullptr);
  const FailureReport& report = *k.failure();
  EXPECT_EQ(report.kind, FailureKind::Injected);
  EXPECT_EQ(report.process, "producer1_0");
  EXPECT_EQ(report.domain, "fp1_0");
  EXPECT_FALSE(report.message.empty());
  EXPECT_FALSE(report.fronts.empty());
  EXPECT_EQ(k.stats().failures, 1u);
  const std::string rendered = report.to_string();
  EXPECT_NE(rendered.find("Injected"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("producer1_0"), std::string::npos) << rendered;

  // Failed is terminal: no further run(), and the report survives.
  EXPECT_THROW(k.run(), SimulationError);
  EXPECT_EQ(k.failure()->kind, FailureKind::Injected);
}

TEST(FaultContainment, FailedKernelRefusesSnapshot) {
  QuietReports quiet;
  // Elaborate through build() so the snapshot refusal exercised is the
  // Failed check, not the external-elaboration one.
  Kernel k;
  auto fifo = std::make_shared<std::unique_ptr<SmartFifo<int>>>();
  k.build([fifo](Kernel& kk) {
    *fifo = std::make_unique<SmartFifo<int>>(kk, "snap_fifo", 2);
    SmartFifo<int>* f = fifo->get();
    kk.spawn_thread("snap_writer", [&kk, f] {
      for (int i = 0; i < 10; ++i) {
        kk.current_domain().inc(5_ns);
        f->write(i);
      }
    });
    kk.spawn_thread("snap_reader", [&kk, f] {
      for (int i = 0; i < 10; ++i) {
        (void)f->read();
        kk.current_domain().inc(7_ns);
      }
    });
  });
  k.arm_faults(FaultPlan::parse("throw:snap_writer@2"));
  EXPECT_THROW(k.run(), InjectedFault);
  try {
    (void)k.snapshot();
    FAIL() << "snapshot() must refuse a Failed kernel";
  } catch (const SimulationError& e) {
    EXPECT_NE(std::string(e.what()).find("not a replayable warm point"),
              std::string::npos)
        << e.what();
  }
  fifo->reset();  // channel dies before its kernel
}

TEST(FaultContainment, DeltaLivelockIsClassified) {
  QuietReports quiet;
  Kernel k(KernelConfig{.delta_cycle_limit = 50});
  Event ping(k, "ping");
  Event pong(k, "pong");
  MethodOptions a_opts;
  a_opts.sensitivity.push_back(&ping);
  k.spawn_method("a", [&] { pong.notify_delta(); }, a_opts);
  MethodOptions b_opts;
  b_opts.sensitivity.push_back(&pong);
  k.spawn_method("b", [&] { ping.notify_delta(); }, b_opts);
  EXPECT_THROW(k.run(), DeltaLivelockError);
  EXPECT_EQ(k.health(), Health::Failed);
  ASSERT_NE(k.failure(), nullptr);
  EXPECT_EQ(k.failure()->kind, FailureKind::DeltaLivelock);
  EXPECT_EQ(k.stats().failures, 1u);
}

// ---------------------------------------------------------------------------
// Destruction after a failed run: suspended fibers, pending timed events,
// dirty chunked spans -- all reclaimed (the ASan job enforces leak-free),
// and a fresh kernel on the same Scheduler still runs bit-exactly.
// ---------------------------------------------------------------------------

TEST(FaultContainment, DestructionAfterFailedRunIsCleanAndIsolated) {
  QuietReports quiet;
  const Fingerprint solo = run_solo(/*workers=*/2, /*seed=*/3, /*words=*/30);
  {
    Kernel k(KernelConfig{.workers = 2});
    Model m;
    build_model(k, m, /*seed=*/5, /*words=*/60);
    // A chunked channel mid-transfer: its spans are dirty when the fault
    // fires and must still tear down cleanly.
    m.fifos.push_back(std::make_unique<SmartFifo<int>>(k, "dirty", 16));
    m.fifos.back()->set_chunk_capacity(8);
    SmartFifo<int>* dirty = m.fifos.back().get();
    k.spawn_thread("dirty_writer", [&k, dirty] {
      for (int i = 0; i < 200; ++i) {
        k.current_domain().inc(2_ns);
        dirty->write(i);
      }
    });
    k.spawn_thread("dirty_reader", [&k, dirty] {
      for (int i = 0; i < 200; ++i) {
        (void)dirty->read();
        k.current_domain().inc(3_ns);
      }
    });
    // A fiber parked on a far-future timed event, still pending at the
    // failure.
    k.spawn_thread("parked", [&k] { k.wait(10_s); });
    k.arm_faults(FaultPlan::parse("throw:producer5_0@4"));
    EXPECT_THROW(k.run(), InjectedFault);
    EXPECT_EQ(k.health(), Health::Failed);
  }  // the Failed kernel, its fibers, queues and spans die here
  const Fingerprint after = run_solo(/*workers=*/2, /*seed=*/3, /*words=*/30);
  expect_fingerprint_equal(solo, after, "fresh kernel after a failed one");
}

// ---------------------------------------------------------------------------
// Watchdogs.
// ---------------------------------------------------------------------------

void spawn_spinner(Kernel& k, int waves) {
  k.spawn_thread("spinner", [&k, waves] {
    for (int i = 0; i < waves; ++i) {
      k.wait(1_ns);
    }
  });
}

TEST(FaultContainment, RunOptionsWallLimitTripsTheWatchdog) {
  QuietReports quiet;
  Kernel k;
  // Bounded spin: far more waves than 20 ms allows, but finite, so a
  // broken watchdog fails the test instead of hanging it.
  spawn_spinner(k, 5'000'000);
  try {
    k.run(RunOptions{.until = Time::max(), .wall_limit_ms = 20});
    FAIL() << "expected the wall-clock watchdog to trip";
  } catch (const WatchdogError& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(k.health(), Health::Failed);
  ASSERT_NE(k.failure(), nullptr);
  EXPECT_EQ(k.failure()->kind, FailureKind::Watchdog);
  EXPECT_FALSE(k.failure()->fronts.empty());
  EXPECT_EQ(k.stats().watchdog_trips, 1u);
  EXPECT_EQ(k.stats().failures, 1u);
  EXPECT_GT(k.now().ps(), 0u);  // it was making progress, not hung at zero
}

TEST(FaultContainment, ConfigAndEnvWallLimitsResolve) {
  QuietReports quiet;
  {
    Kernel k(KernelConfig{.wall_limit_ms = 20});
    EXPECT_EQ(k.config().wall_limit_ms.value(), 20u);
    spawn_spinner(k, 5'000'000);
    EXPECT_THROW(k.run(), WatchdogError);
    EXPECT_EQ(k.failure()->kind, FailureKind::Watchdog);
  }
  {
    ::setenv("TDSIM_WALL_LIMIT_MS", "20", 1);
    Kernel k;
    ::unsetenv("TDSIM_WALL_LIMIT_MS");
    EXPECT_EQ(k.config().wall_limit_ms.value(), 20u);
    spawn_spinner(k, 5'000'000);
    EXPECT_THROW(k.run(), WatchdogError);
  }
  {
    // A per-call override of 0 disarms a config-armed watchdog: the run
    // must complete even though it takes far longer than the 1 ms budget.
    Kernel k(KernelConfig{.wall_limit_ms = 1});
    spawn_spinner(k, 200'000);
    k.run(RunOptions{.until = Time::max(), .wall_limit_ms = 0});
    EXPECT_EQ(k.health(), Health::Idle);
  }
}

// ---------------------------------------------------------------------------
// Chaos harness actions beyond Throw, and the spec parser.
// ---------------------------------------------------------------------------

TEST(FaultContainment, FaultPlanParsesAndRoundTrips) {
  const FaultPlan plan = FaultPlan::parse(
      "throw:prod@3;stall:dma@5=200ns;flip:prod@7=naive_is_full;"
      "stop:sink@2;throw:px@9!par");
  ASSERT_EQ(plan.actions.size(), 5u);
  EXPECT_EQ(plan.actions[0].kind, FaultAction::Kind::Throw);
  EXPECT_EQ(plan.actions[0].process, "prod");
  EXPECT_EQ(plan.actions[0].activation, 3u);
  EXPECT_FALSE(plan.actions[0].only_parallel);
  EXPECT_EQ(plan.actions[1].kind, FaultAction::Kind::Stall);
  EXPECT_EQ(plan.actions[1].stall, 200_ns);
  EXPECT_EQ(plan.actions[2].kind, FaultAction::Kind::FlipMutation);
  EXPECT_TRUE(plan.actions[2].flag == &SmartFifoMutations::naive_is_full);
  EXPECT_EQ(plan.actions[2].mutations, nullptr);  // caller wires the target
  EXPECT_EQ(plan.actions[3].kind, FaultAction::Kind::Stop);
  EXPECT_TRUE(plan.actions[4].only_parallel);
  const std::string rendered = plan.to_string();
  EXPECT_NE(rendered.find("throw:prod@3"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("throw:px@9!par"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("naive_is_full"), std::string::npos) << rendered;

  EXPECT_THROW(FaultPlan::parse("zap:p@1"), SimulationError);
  EXPECT_THROW(FaultPlan::parse("throw:p"), SimulationError);
  EXPECT_THROW(FaultPlan::parse("throw:p@0"), SimulationError);
  EXPECT_THROW(FaultPlan::parse("stall:p@1"), SimulationError);
  EXPECT_THROW(FaultPlan::parse("stall:p@1=xyz"), SimulationError);
  EXPECT_THROW(FaultPlan::parse("flip:p@1=bogus_flag"), SimulationError);
  EXPECT_THROW(FaultPlan::parse("stall:p@1=5ns!par"), SimulationError);
  EXPECT_TRUE(FaultPlan::parse("").empty());

  EXPECT_TRUE(resolve_mutation_flag("skip_sync_on_block") ==
              &SmartFifoMutations::skip_sync_on_block);
  EXPECT_TRUE(resolve_mutation_flag("nope") == nullptr);

  // Arming a flip whose mutations target was never wired is refused.
  Kernel k;
  EXPECT_THROW(k.arm_faults(FaultPlan::parse("flip:p@1=naive_is_full")),
               SimulationError);
}

TEST(FaultContainment, StopActionStopsCleanlyAndTheRunResumesBitExact) {
  const Fingerprint solo = run_solo(/*workers=*/2, /*seed=*/4, /*words=*/30);
  Kernel k(KernelConfig{.workers = 2});
  Model m;
  build_model(k, m, /*seed=*/4, /*words=*/30);
  k.arm_faults(FaultPlan::parse("stop:consumer4_0@3"));
  k.run();  // the injected stop ends this run early -- cleanly
  EXPECT_EQ(k.health(), Health::Idle);
  EXPECT_LT(k.now().ps(), solo.end.ps());
  k.run();  // resume to completion
  Fingerprint resumed;
  resumed.capture(k);
  resumed.dates = m.dates();
  // Resuming costs one extra delta cycle of scheduler bookkeeping, so the
  // comparison pins the semantic results: final date and per-word dates.
  EXPECT_EQ(resumed.end.ps(), solo.end.ps());
  EXPECT_EQ(resumed.dates, solo.dates);
}

TEST(FaultContainment, StallActionLagsTheVictimDomain) {
  const Fingerprint solo = run_solo(/*workers=*/0, /*seed=*/2, /*words=*/20);
  Kernel k;
  Model m;
  build_model(k, m, /*seed=*/2, /*words=*/20);
  k.arm_faults(FaultPlan::parse("stall:producer2_0@2=500ns"));
  k.run();
  EXPECT_EQ(k.health(), Health::Idle);
  // The stalled producer's dates (and everything downstream of them)
  // moved out; the run still completes.
  EXPECT_GT(k.now().ps(), solo.end.ps());
}

TEST(FaultContainment, FlipMutationTogglesTheFlagMidRun) {
  Kernel k;
  SmartFifoMutations mutations;
  SmartFifo<int> fifo(k, "flip_fifo", 4, &mutations);
  k.spawn_thread("flip_writer", [&k, &fifo] {
    for (int i = 0; i < 20; ++i) {
      k.current_domain().inc(5_ns);
      fifo.write(i);
    }
  });
  k.spawn_thread("flip_reader", [&k, &fifo] {
    for (int i = 0; i < 20; ++i) {
      (void)fifo.read();
      k.current_domain().inc(7_ns);
    }
  });
  // naive_get_size corrupts only get_size(), which this model never
  // calls: the flip must land without destabilizing the run.
  FaultPlan plan = FaultPlan::parse("flip:flip_writer@5=naive_get_size");
  ASSERT_EQ(plan.actions.size(), 1u);
  plan.actions[0].mutations = &mutations;
  k.arm_faults(std::move(plan));
  EXPECT_FALSE(mutations.naive_get_size);
  k.run();
  EXPECT_EQ(k.health(), Health::Idle);
  EXPECT_TRUE(mutations.naive_get_size);
}

// ---------------------------------------------------------------------------
// Satellite: exceptions from worker-run group tasks (including the
// free-running lookahead path) surface on the driving thread.
// ---------------------------------------------------------------------------

TEST(FaultContainment, ThrowFromFreeRunningGroupSurfacesOnDrivingThread) {
  QuietReports quiet;
  Kernel k;
  k.set_workers(2);
  struct Cluster {
    SyncDomain* producer_side;
    SyncDomain* consumer_side;
    std::unique_ptr<SmartFifo<int>> fifo;
  };
  std::vector<Cluster> clusters(3);
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    Cluster& cluster = clusters[c];
    const std::string suffix = std::to_string(c);
    cluster.producer_side = &k.create_domain(
        {.name = "frp" + suffix, .quantum = 40_ns, .concurrent = true});
    cluster.consumer_side = &k.create_domain(
        {.name = "frc" + suffix, .quantum = 300_ns, .concurrent = true});
    cluster.fifo = std::make_unique<SmartFifo<int>>(k, "frf" + suffix, 3);
    // Declared latency decouples the clusters, so each group may run
    // waves ahead of the global horizon (the free-running path).
    cluster.fifo->declare_cell_latency(40_ns);
    ThreadOptions popts;
    popts.domain = cluster.producer_side;
    k.spawn_thread("fr_producer" + suffix, [&k, &cluster, c] {
      for (int i = 0; i < 40; ++i) {
        k.current_domain().inc((i % 5 + 1 + static_cast<int>(c)) * 3_ns);
        cluster.fifo->write(i);
      }
    }, popts);
    ThreadOptions copts;
    copts.domain = cluster.consumer_side;
    k.spawn_thread("fr_consumer" + suffix, [&k, &cluster, c] {
      for (int i = 0; i < 40; ++i) {
        (void)cluster.fifo->read();
        k.current_domain().inc((i % 3 + 1 + static_cast<int>(c)) * 4_ns);
      }
    }, copts);
  }
  k.arm_faults(FaultPlan::parse("throw:fr_producer1@10"));
  EXPECT_THROW(k.run(), InjectedFault);
  EXPECT_EQ(k.health(), Health::Failed);
  ASSERT_NE(k.failure(), nullptr);
  // The worker-run group task captured the exception and the horizon
  // merge attributed it -- process and domain survive the thread hop.
  EXPECT_EQ(k.failure()->process, "fr_producer1");
  EXPECT_EQ(k.failure()->domain, "frp1");
}

// ---------------------------------------------------------------------------
// A failure inside a free-running lookahead extension looks exactly like
// the sequential one: the per-domain delta limit counts the timed wave
// itself, and the report carries the failing group's local date.
// ---------------------------------------------------------------------------

/// The execution modes a failure must not tell apart: sequential, barrier
/// rounds only, and free-running extensions at two worker counts.
std::vector<std::pair<std::string, KernelConfig>> failure_modes() {
  return {{"workers 0", KernelConfig{.workers = 0}},
          {"workers 2, barrier", KernelConfig{.workers = 2,
                                              .lookahead_limit = 0}},
          {"workers 2", KernelConfig{.workers = 2}},
          {"workers 4", KernelConfig{.workers = 4}}};
}

struct FailureOutcome {
  std::string message;
  FailureReport report;
  int spins = 0;
};

/// A `spinner` livelocking on wait_delta() from 100 ns in a domain with a
/// delta-cycle limit of 5 (spawned first, so it is the lagging domain on
/// ties), beside unlinked ticker domains that keep lookahead extensions
/// eligible. With `spin` false only the tickers run; arm a plan on them.
FailureOutcome run_to_failure(const KernelConfig& config, bool spin,
                              const char* plan) {
  Kernel k(config);
  FailureOutcome out;
  if (spin) {
    SyncDomain& spin_domain = k.create_domain(
        {.name = "spin", .concurrent = true, .delta_cycle_limit = 5});
    k.spawn_thread("spinner", [&k, &out] {
      k.wait(100_ns);
      for (;;) {
        out.spins++;
        k.wait_delta();
      }
    }, {.domain = &spin_domain});
  }
  const std::pair<const char*, Time> tickers[] = {{"ticker_a", 7_ns},
                                                  {"ticker_b", 11_ns}};
  for (const auto& [name, period] : tickers) {
    SyncDomain& domain = k.create_domain(
        {.name = std::string("tick_") + name, .concurrent = true});
    k.spawn_thread(name, [&k, period] {
      for (int i = 0; i < 200; ++i) {
        k.wait(period);
      }
    }, {.domain = &domain});
  }
  if (plan != nullptr) {
    k.arm_faults(FaultPlan::parse(plan));
  }
  try {
    k.run();
  } catch (const SimulationError& e) {
    out.message = e.what();
  }
  EXPECT_EQ(k.health(), Health::Failed);
  if (k.failure() != nullptr) {
    out.report = *k.failure();
  }
  return out;
}

void expect_same_failure(const FailureOutcome& a, const FailureOutcome& b,
                         const std::string& what) {
  EXPECT_EQ(a.message, b.message) << what;
  EXPECT_EQ(a.spins, b.spins) << what;
  EXPECT_EQ(a.report.kind, b.report.kind) << what;
  EXPECT_EQ(a.report.at, b.report.at) << what;
  EXPECT_EQ(a.report.process, b.report.process) << what;
  EXPECT_EQ(a.report.domain, b.report.domain) << what;
}

TEST(FaultContainment, DomainDeltaLimitTripsAtTheSameActivationInEveryMode) {
  QuietReports quiet;
  const auto modes = failure_modes();
  const FailureOutcome reference =
      run_to_failure(modes.front().second, /*spin=*/true, nullptr);
  // The 100 ns wave counts as the first consecutive activation, so the
  // limit of 5 trips before the spinner's sixth pass.
  EXPECT_EQ(reference.spins, 5);
  EXPECT_EQ(reference.report.kind, FailureKind::DeltaLivelock);
  EXPECT_EQ(reference.report.at, 100_ns);
  EXPECT_EQ(reference.report.domain, "spin");
  EXPECT_NE(reference.message.find("domain 'spin' exceeded its delta-cycle "
                                   "limit (5) at date 100 ns"),
            std::string::npos)
      << reference.message;
  for (std::size_t i = 1; i < modes.size(); ++i) {
    expect_same_failure(
        run_to_failure(modes[i].second, /*spin=*/true, nullptr), reference,
        modes[i].first);
  }
}

TEST(FaultContainment, FreeRunningFailureReportsTheGroupsLocalDate) {
  QuietReports quiet;
  const auto modes = failure_modes();
  const FailureOutcome reference =
      run_to_failure(modes.front().second, /*spin=*/false, "throw:ticker_b@30");
  // ticker_b's 30th activation resumes it at 29 * 11 ns, long after the
  // extension it runs in started at 0 s.
  EXPECT_EQ(reference.report.kind, FailureKind::Injected);
  EXPECT_EQ(reference.report.at, 319_ns);
  EXPECT_EQ(reference.report.process, "ticker_b");
  EXPECT_EQ(reference.report.domain, "tick_ticker_b");
  for (std::size_t i = 1; i < modes.size(); ++i) {
    expect_same_failure(
        run_to_failure(modes[i].second, /*spin=*/false, "throw:ticker_b@30"),
        reference, modes[i].first);
  }
}

TEST(FaultContainment, OnlyParallelFaultSkipsSequentialRuns) {
  QuietReports quiet;
  // The exact fault that models a scheduling-dependent bug: fires with
  // workers >= 2, consumed-but-skipped with workers 0 -- the Supervisor's
  // sequential retry rides on this.
  for (std::size_t workers : {0u, 2u}) {
    Kernel k(KernelConfig{.workers = workers});
    Model m;
    build_model(k, m, /*seed=*/6, /*words=*/20);
    k.arm_faults(FaultPlan::parse("throw:producer6_0@3!par"));
    if (workers >= 2) {
      EXPECT_THROW(k.run(), InjectedFault);
      EXPECT_EQ(k.health(), Health::Failed);
    } else {
      k.run();
      EXPECT_EQ(k.health(), Health::Idle);
    }
  }
}

// ---------------------------------------------------------------------------
// Supervised fleet execution.
// ---------------------------------------------------------------------------

struct SupModel {
  std::unique_ptr<SmartFifo<int>> fifo;
  std::uint64_t consumed = 0;
};

TEST(FaultContainment, SupervisorRetriesSchedulingBugsQuarantinesModelBugs) {
  QuietReports quiet;
  using fleet::FleetOptions;
  using fleet::ScenarioOutcome;
  using fleet::ScenarioSpec;
  using fleet::ScenarioStatus;
  using fleet::Supervisor;

  auto registry = std::make_shared<std::map<const Kernel*, SupModel>>();
  const auto build_step = [registry](Kernel& kk) {
    SupModel& m = (*registry)[&kk];
    SyncDomain& prod = kk.create_domain(
        {.name = "sup_prod", .quantum = 40_ns, .concurrent = true});
    SyncDomain& cons = kk.create_domain(
        {.name = "sup_cons", .quantum = 300_ns, .concurrent = true});
    m.fifo = std::make_unique<SmartFifo<int>>(kk, "sup_fifo", 4);
    SmartFifo<int>* fifo = m.fifo.get();
    SupModel* mp = &m;  // std::map nodes are address-stable
    ThreadOptions popts;
    popts.domain = &prod;
    kk.spawn_thread("sup_producer", [&kk, fifo] {
      for (int i = 0; i < 30; ++i) {
        kk.current_domain().inc((i % 5 + 1) * 3_ns);
        fifo->write(i);
      }
    }, popts);
    ThreadOptions copts;
    copts.domain = &cons;
    kk.spawn_thread("sup_consumer", [&kk, fifo, mp] {
      for (int i = 0; i < 30; ++i) {
        (void)fifo->read();
        mp->consumed++;
        kk.current_domain().inc((i % 3 + 1) * 4_ns);
      }
    }, copts);
  };
  Kernel warm(KernelConfig{.workers = 2});
  warm.build(build_step);
  // Snapshot at the cold warm point: forks replay elaboration only, so
  // sup_producer starts at activation 0 and the @3 faults below can fire
  // (activations consumed during a warm run would replay past them).
  const Snapshot snap = warm.snapshot();

  std::vector<ScenarioSpec> specs(3);
  specs[0].name = "ok";
  specs[1].name = "sched";  // parallel-only: the sequential retry survives
  specs[1].faults = FaultPlan::parse("throw:sup_producer@3!par");
  specs[2].name = "model";  // persistent: fails the retry too
  specs[2].faults = FaultPlan::parse("throw:sup_producer@3");

  /// What a survivor must share with a cold run of the same build step.
  struct Result {
    Time end;
    std::uint64_t delta_cycles = 0;
    std::uint64_t consumed = 0;
  };
  const auto capture = [&registry](const Kernel& kernel) {
    return Result{kernel.now(), kernel.stats().delta_cycles,
                  (*registry)[&kernel].consumed};
  };
  std::map<std::string, Result> results;
  std::map<std::string, std::uint64_t> kernel_retries;
  Supervisor supervisor(snap, {}, FleetOptions{.batch = 3});
  const std::vector<ScenarioOutcome> outcomes = supervisor.run(
      specs,
      [&](Kernel& kernel, const ScenarioSpec& spec, const ScenarioOutcome&) {
        results[spec.name] = capture(kernel);
        kernel_retries[spec.name] = kernel.stats().retries;
        registry->erase(&kernel);
      },
      [&](Kernel* kernel, const ScenarioSpec&, const FailureReport& failure) {
        EXPECT_EQ(failure.kind, FailureKind::Injected);
        if (kernel != nullptr) {
          registry->erase(kernel);
        }
      });

  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].name, "ok");
  EXPECT_EQ(outcomes[0].status, ScenarioStatus::Completed);
  EXPECT_EQ(outcomes[0].attempts, 1);
  EXPECT_FALSE(outcomes[0].first_failure.has_value());

  EXPECT_EQ(outcomes[1].status, ScenarioStatus::Retried);
  EXPECT_EQ(outcomes[1].attempts, 2);
  ASSERT_TRUE(outcomes[1].first_failure.has_value());
  EXPECT_EQ(outcomes[1].first_failure->kind, FailureKind::Injected);
  EXPECT_EQ(outcomes[1].first_failure->process, "sup_producer");
  EXPECT_FALSE(outcomes[1].final_failure.has_value());

  EXPECT_EQ(outcomes[2].status, ScenarioStatus::Quarantined);
  EXPECT_EQ(outcomes[2].attempts, 2);
  ASSERT_TRUE(outcomes[2].final_failure.has_value());
  EXPECT_EQ(outcomes[2].final_failure->kind, FailureKind::Injected);

  EXPECT_EQ(supervisor.retries(), 2u);      // both failures were retried
  EXPECT_EQ(supervisor.quarantined(), 1u);  // only "model" stayed down
  EXPECT_EQ(std::string(to_string(ScenarioStatus::Retried)), "Retried");

  // Both survivors drained the full transfer and match a cold standalone
  // kernel that runs the same build step to completion -- the retried one
  // too, though its second attempt ran sequentially. The retried kernel
  // carries the retry mark in its stats, the first-try one does not.
  Kernel cold(KernelConfig{.workers = 2});
  cold.build(build_step);
  cold.run();
  const Result reference = capture(cold);
  EXPECT_EQ(reference.consumed, 30u);
  EXPECT_EQ(results.size(), 2u);
  for (const auto& [name, result] : results) {
    EXPECT_EQ(result.end, reference.end) << name;
    EXPECT_EQ(result.delta_cycles, reference.delta_cycles) << name;
    EXPECT_EQ(result.consumed, reference.consumed) << name;
  }
  EXPECT_EQ(kernel_retries["ok"], 0u);
  EXPECT_EQ(kernel_retries["sched"], 1u);

  registry->erase(&cold);
  registry->erase(&warm);
}

// ---------------------------------------------------------------------------
// Satellite: the report sink is thread-safe (worker threads emit through
// it when faults fire inside parallel group tasks).
// ---------------------------------------------------------------------------

TEST(FaultContainment, ReportSinkIsThreadSafe) {
  const std::uint64_t before = Report::warning_count();
  std::uint64_t handled = 0;  // plain int: the emission lock serializes
  Report::Handler previous =
      Report::set_handler([&handled](Severity severity, const std::string&) {
        if (severity == Severity::Warning) {
          handled++;
        }
      });
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        for (int i = 0; i < kPerThread; ++i) {
          Report::warning("concurrent warning");
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  Report::set_handler(std::move(previous));
  EXPECT_EQ(handled, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(Report::warning_count() - before,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace tdsim
