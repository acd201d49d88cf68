// Per-group conservative lookahead (Kernel::link_domains decoupled
// overload, SmartFifo::declare_cell_latency): zero-latency links degrade
// to the barrier path, mid-run latency redeclaration re-tightens the
// derived bound, free-running groups stay bit-exact with the sequential
// schedule, events destroyed mid-extension leave no entry behind and
// strand no other request, set_lookahead_limit(0) disables free-running,
// explain_group shows link latencies, and the per-domain quantum
// decision-trace ring.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "core/smart_fifo.h"
#include "kernel/event.h"
#include "kernel/kernel.h"
#include "kernel/quantum_controller.h"
#include "kernel/sync_domain.h"

namespace tdsim {
namespace {

/// The deterministic fingerprint free-running must reproduce bit-exactly.
struct Fingerprint {
  Time end;
  std::uint64_t delta_cycles = 0;
  std::uint64_t timed_waves = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t event_triggers = 0;
  std::vector<Time> dates;

  void capture(const Kernel& kernel) {
    const KernelStats& stats = kernel.stats();
    end = kernel.now();
    delta_cycles = stats.delta_cycles;
    timed_waves = stats.timed_waves;
    context_switches = stats.context_switches;
    event_triggers = stats.event_triggers;
  }
};

void expect_fingerprint_equal(const Fingerprint& a, const Fingerprint& b,
                              const std::string& what) {
  EXPECT_EQ(a.end, b.end) << what;
  EXPECT_EQ(a.delta_cycles, b.delta_cycles) << what;
  EXPECT_EQ(a.timed_waves, b.timed_waves) << what;
  EXPECT_EQ(a.context_switches, b.context_switches) << what;
  EXPECT_EQ(a.event_triggers, b.event_triggers) << what;
  EXPECT_EQ(a.dates, b.dates) << what;
}

/// Independent producer/consumer clusters (one Smart FIFO each, so the
/// two domains of a cluster share a group but clusters do not): the
/// canonical shape where free-running replaces the global barrier.
struct ClusterRun {
  Fingerprint fingerprint;
  std::uint64_t lookahead_advances = 0;
};

ClusterRun run_clusters(std::size_t workers, std::size_t cluster_count,
                        std::size_t lookahead_limit) {
  Kernel k;
  k.set_workers(workers);
  k.set_lookahead_limit(lookahead_limit);
  struct Cluster {
    SyncDomain* producer_side;
    SyncDomain* consumer_side;
    std::unique_ptr<SmartFifo<int>> fifo;
    std::vector<Time> dates;
  };
  std::vector<Cluster> clusters(cluster_count);
  for (std::size_t c = 0; c < cluster_count; ++c) {
    Cluster& cluster = clusters[c];
    const std::string suffix = std::to_string(c);
    cluster.producer_side = &k.create_domain(
        {.name = "lap" + suffix, .quantum = 40_ns, .concurrent = true});
    cluster.consumer_side = &k.create_domain(
        {.name = "lac" + suffix, .quantum = 300_ns, .concurrent = true});
    cluster.fifo = std::make_unique<SmartFifo<int>>(k, "laf" + suffix, 3);
    cluster.fifo->declare_cell_latency(40_ns);
    ThreadOptions popts;
    popts.domain = cluster.producer_side;
    k.spawn_thread("producer" + suffix, [&k, &cluster, c] {
      for (int i = 0; i < 40; ++i) {
        k.current_domain().inc((i % 5 + 1 + static_cast<int>(c)) * 3_ns);
        cluster.fifo->write(i);
      }
    }, popts);
    ThreadOptions copts;
    copts.domain = cluster.consumer_side;
    k.spawn_thread("consumer" + suffix, [&k, &cluster, c] {
      for (int i = 0; i < 40; ++i) {
        const int v = cluster.fifo->read();
        k.current_domain().inc((i % 3 + 1 + static_cast<int>(c)) * 4_ns);
        cluster.dates.push_back(k.current_domain().local_time_stamp());
        if (v != i) {
          cluster.dates.push_back(Time::max());  // corruption marker
        }
      }
    }, copts);
  }
  k.run();
  ClusterRun result;
  result.fingerprint.capture(k);
  for (Cluster& cluster : clusters) {
    result.fingerprint.dates.insert(result.fingerprint.dates.end(),
                                    cluster.dates.begin(),
                                    cluster.dates.end());
  }
  result.lookahead_advances = k.stats().lookahead_advances;
  return result;
}

TEST(Lookahead, IndependentGroupsFreeRunBitExact) {
  const ClusterRun sequential = run_clusters(0, 3, 64);
  EXPECT_EQ(sequential.lookahead_advances, 0u);
  for (std::size_t workers : {2u, 4u}) {
    const ClusterRun parallel = run_clusters(workers, 3, 64);
    expect_fingerprint_equal(sequential.fingerprint, parallel.fingerprint,
                             "workers=" + std::to_string(workers));
    // Three unbounded groups: the extensions must actually have run waves
    // ahead of the global horizon, not just fallen back to the barrier.
    EXPECT_GT(parallel.lookahead_advances, 0u)
        << "workers=" << workers;
  }
}

TEST(Lookahead, EventsDestroyedInsideAnExtensionLeaveNoEntryBehind) {
  // Two events die while their group free-runs beside an unlinked ticker:
  // `early`, whose 50 ns entry the extension extracted into the group's
  // agenda (its static waiter makes it the group's), and `late`, notified
  // and destroyed within one wave, so its entry is still in the group's
  // timed buffer. Neither may fire or dangle (ASan), and every date matches
  // the sequential run.
  const auto run = [](std::size_t workers) {
    Kernel k(KernelConfig{.workers = workers});
    SyncDomain& owner = k.create_domain({.name = "owner", .concurrent = true});
    SyncDomain& ticker =
        k.create_domain({.name = "ticker", .concurrent = true});
    auto early = std::make_unique<Event>(k, "early");
    int fired = 0;
    // One date list per group: the two run concurrently.
    std::vector<Time> owner_dates;
    std::vector<Time> ticker_dates;
    MethodOptions watch;
    watch.sensitivity.push_back(early.get());
    watch.dont_initialize = true;
    watch.domain = &owner;
    k.spawn_method("watcher", [&fired] { ++fired; }, watch);
    k.spawn_thread("destroyer", [&] {
      early->notify(50_ns);
      k.wait(10_ns);
      early.reset();
      {
        Event late(k, "late");
        late.notify(7_ns);
      }
      k.wait(100_ns);
      owner_dates.push_back(k.now());
    }, {.domain = &owner});
    k.spawn_thread("ticker", [&] {
      for (int i = 0; i < 30; ++i) {
        k.wait(3_ns);
        ticker_dates.push_back(k.now());
      }
    }, {.domain = &ticker});
    k.run();
    EXPECT_EQ(fired, 0) << "workers=" << workers;
    owner_dates.insert(owner_dates.end(), ticker_dates.begin(),
                       ticker_dates.end());
    owner_dates.push_back(k.now());
    return std::make_pair(owner_dates, k.stats().lookahead_advances);
  };
  const auto [sequential, no_advances] = run(0);
  ASSERT_EQ(sequential.size(), 32u);
  EXPECT_EQ(sequential.front(), 110_ns);
  for (std::size_t workers : {2u, 4u}) {
    const auto [parallel, advances] = run(workers);
    EXPECT_EQ(parallel, sequential) << "workers=" << workers;
    EXPECT_GT(advances, 0u) << "workers=" << workers;
  }
}

TEST(Lookahead, EventDestroyedInsideAnExtensionKeepsTheNextRequest) {
  // `q` notifies `e` 10 us out -- past the window the 1 us link allows --
  // so the extension scans that entry and leaves it buffered. Destroying
  // `e` 20 ns later removes it from the already-scanned prefix of the
  // group's timed buffer; the scan point must move down with it, or the
  // next request (`p`'s resume at 40 ns) goes unscanned and `p` stalls
  // while `c` keeps sampling. No date changes either way: only the
  // values `c` reads show it.
  const auto run = [](std::size_t workers) {
    Kernel k(KernelConfig{.workers = workers});
    SyncDomain& a = k.create_domain({.name = "a", .concurrent = true});
    SyncDomain& b = k.create_domain({.name = "b", .concurrent = true});
    k.link_domains(a, b, 1_us);
    int counter = 0;
    std::vector<int> seen;
    k.spawn_thread("p", [&] {
      for (int i = 0; i < 20; ++i) {
        k.wait(10_ns);
        counter++;
      }
    }, {.domain = &a});
    k.spawn_thread("q", [&k] {
      k.wait(10_ns);
      Event e(k, "e");
      e.notify(10_us);
      k.wait(20_ns);
    }, {.domain = &a});
    k.spawn_thread("c", [&] {
      k.wait(5_ns);
      for (int i = 0; i < 20; ++i) {
        seen.push_back(counter);
        k.wait(10_ns);
      }
    }, {.domain = &a});
    k.spawn_thread("ticker", [&k] {
      for (int i = 0; i < 30; ++i) {
        k.wait(10_ns);
      }
    }, {.domain = &b});
    k.run();
    Fingerprint fingerprint;
    fingerprint.capture(k);
    return std::make_tuple(seen, fingerprint, k.stats().lookahead_advances);
  };
  const auto [sequential, reference, no_advances] = run(0);
  std::vector<int> expected(20);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(sequential, expected);
  for (std::size_t workers : {2u, 4u}) {
    const auto [parallel, fingerprint, advances] = run(workers);
    EXPECT_EQ(parallel, sequential) << "workers=" << workers;
    expect_fingerprint_equal(fingerprint, reference,
                             "workers=" + std::to_string(workers));
    EXPECT_GT(advances, 0u) << "workers=" << workers;
  }
}

TEST(Lookahead, LimitZeroDisablesFreeRunningButStaysBitExact) {
  const ClusterRun sequential = run_clusters(0, 3, 64);
  const ClusterRun barriered = run_clusters(2, 3, 0);
  expect_fingerprint_equal(sequential.fingerprint, barriered.fingerprint,
                           "lookahead_limit=0");
  EXPECT_EQ(barriered.lookahead_advances, 0u);
}

TEST(Lookahead, ZeroLatencyLinkCycleDegradesToBarrier) {
  // A declared cycle whose weakest edge has zero latency gives the
  // scheduler nothing to free-run on: the zero edge degenerates to the
  // merging overload, so the cycle collapses into one group and every
  // horizon is a barrier again.
  const auto run = [](std::size_t workers) {
    Kernel k;
    k.set_workers(workers);
    SyncDomain& a = k.create_domain(
        {.name = "cyc_a", .quantum = 40_ns, .concurrent = true});
    SyncDomain& b = k.create_domain(
        {.name = "cyc_b", .quantum = 70_ns, .concurrent = true});
    k.link_domains(a, b, 50_ns, "a_to_b");
    k.link_domains(b, a, Time{}, "b_to_a");  // zero lookahead = barrier
    Fingerprint out;
    for (auto [domain, label] :
         {std::pair<SyncDomain*, const char*>{&a, "a"}, {&b, "b"}}) {
      ThreadOptions opts;
      opts.domain = domain;
      k.spawn_thread(std::string("cyc_") + label, [&k, &out] {
        for (int i = 0; i < 100; ++i) {
          k.current_domain().inc_and_sync_if_needed(9_ns);
          k.wait(13_ns);
        }
        out.dates.push_back(k.current_domain().local_time_stamp());
      }, opts);
    }
    k.run();
    out.capture(k);
    EXPECT_EQ(k.domain_group(a), k.domain_group(b));
    EXPECT_EQ(k.stats().lookahead_advances, 0u);
    return out;
  };
  const Fingerprint sequential = run(0);
  const Fingerprint parallel = run(2);
  expect_fingerprint_equal(sequential, parallel, "zero-latency cycle");
}

TEST(Lookahead, MidRunRedeclarationRetightensBound) {
  Kernel k;
  SyncDomain& a = k.create_domain(
      {.name = "bnd_a", .quantum = 50_ns, .concurrent = true});
  SyncDomain& b = k.create_domain(
      {.name = "bnd_b", .quantum = 50_ns, .concurrent = true});
  SyncDomain& lone = k.create_domain(
      {.name = "bnd_lone", .quantum = 50_ns, .concurrent = true});
  k.link_domains(a, b, 1_ms, "slow_path");
  for (auto [domain, label] :
       {std::pair<SyncDomain*, const char*>{&a, "a"}, {&b, "b"},
        {&lone, "lone"}}) {
    ThreadOptions opts;
    opts.domain = domain;
    k.spawn_thread(std::string("bnd_") + label, [&k] {
      for (int i = 0; i < 100000; ++i) {
        k.wait(20_ns);
      }
    }, opts);
  }
  k.run(1_us);
  // No inbound edge at all: the lone group free-runs to its wave cap.
  EXPECT_FALSE(k.lookahead_bound(lone).has_value());
  const std::optional<Time> before = k.lookahead_bound(a);
  ASSERT_TRUE(before.has_value());
  const std::uint64_t slack_before = before->ps() - k.now().ps();
  // Mid-run discovery of a much tighter coupling (e.g. a channel that
  // derived its real latency): takes effect at the next horizon.
  k.link_domains(a, b, 10_us, "slow_path_tightened");
  k.run(2_us);
  const std::optional<Time> after = k.lookahead_bound(a);
  ASSERT_TRUE(after.has_value());
  const std::uint64_t slack_after = after->ps() - k.now().ps();
  EXPECT_LT(slack_after, slack_before);
  // The 1 ms edge still exists; the tighter redeclaration must win.
  EXPECT_LT(slack_after, Time(1, TimeUnit::MS).ps());
}

TEST(Lookahead, ExplainGroupShowsLinkLatency) {
  Kernel k;
  SyncDomain& a = k.create_domain(
      {.name = "exp_a", .quantum = 40_ns, .concurrent = true});
  SyncDomain& b = k.create_domain(
      {.name = "exp_b", .quantum = 40_ns, .concurrent = true});
  SmartFifo<int> fifo(k, "exp_fifo", 4);
  fifo.declare_cell_latency(25_ns);  // 4 cells x 25 ns = 100 ns
  ThreadOptions aopts;
  aopts.domain = &a;
  k.spawn_thread("exp_writer", [&] {
    for (int i = 0; i < 10; ++i) {
      k.current_domain().inc(5_ns);
      fifo.write(i);
    }
  }, aopts);
  ThreadOptions bopts;
  bopts.domain = &b;
  k.spawn_thread("exp_reader", [&] {
    for (int i = 0; i < 10; ++i) {
      (void)fifo.read();
      k.current_domain().inc(7_ns);
    }
  }, bopts);
  k.run();
  const std::vector<std::string> lines = k.explain_group(a);
  ASSERT_FALSE(lines.empty());
  bool saw_latency = false;
  for (const std::string& line : lines) {
    if (line.find("exp_fifo") != std::string::npos &&
        line.find("min latency") != std::string::npos &&
        line.find("100 ns") != std::string::npos) {
      saw_latency = true;
    }
  }
  EXPECT_TRUE(saw_latency)
      << "explain_group must print the channel's declared minimum latency";
}

TEST(Lookahead, DecisionTraceRingKeepsNewestDecisions) {
  QuantumPolicy policy;
  policy.min_quantum = 10_ns;
  policy.max_quantum = 10_us;
  policy.min_syncs_per_decision = 8;
  policy.confirm_decisions = 1;
  Kernel k;
  SyncDomain& domain = k.create_domain(
      {.name = "trace", .quantum = 10_ns, .policy = policy});
  ThreadOptions opts;
  opts.domain = &domain;
  k.spawn_thread("churn", [&k] {
    for (int i = 0; i < 8000; ++i) {
      k.current_domain().inc_and_sync_if_needed(10_ns);
    }
  }, opts);
  k.run();
  const std::vector<QuantumDecision> trace = domain.decision_trace();
  ASSERT_FALSE(trace.empty());
  EXPECT_LE(trace.size(), kQuantumTraceDepth);
  // Oldest-to-newest, strictly increasing serials, newest == last.
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].serial, trace[i - 1].serial + 1) << "slot " << i;
  }
  const QuantumDecision* last = domain.last_quantum_decision();
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(trace.back().serial, last->serial);
  EXPECT_EQ(trace.back().at, last->at);
  // Enough horizons ran to rotate the ring: it must hold exactly the
  // newest kQuantumTraceDepth decisions, not the first ones.
  if (last->serial > kQuantumTraceDepth) {
    EXPECT_EQ(trace.size(), kQuantumTraceDepth);
    EXPECT_EQ(trace.front().serial, last->serial - kQuantumTraceDepth + 1);
  }
  // A domain without a controller has no trace.
  Kernel plain;
  SyncDomain& untuned =
      plain.create_domain({.name = "untuned", .quantum = 10_ns});
  EXPECT_TRUE(untuned.decision_trace().empty());
}

}  // namespace
}  // namespace tdsim
