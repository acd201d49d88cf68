// Parallel per-domain execution (Kernel::set_workers): sequential-vs-
// parallel bit-exactness (dates, delta counts, per-cause sync counts) on
// single- and multi-group models, concurrency-group formation (explicit
// DomainOptions::concurrent/link_domains and channel-discovered links,
// including links first discovered mid-run), cross-domain Smart-FIFO
// traffic under 1/2/4 workers, repeated run() reentry, stop() semantics,
// mid-run stats probes, the TDSIM_WORKERS environment default, and a
// randomized domain-membership stress (fixed seed).
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/smart_fifo.h"
#include "kernel/event.h"
#include "kernel/kernel.h"
#include "kernel/report.h"
#include "kernel/sync_domain.h"
#include "soc/soc_platform.h"

namespace tdsim {
namespace {

/// Everything the parallel scheduler must reproduce bit-exactly, plus the
/// date trace a workload collects.
struct Observed {
  Time end;
  std::uint64_t delta_cycles = 0;
  std::uint64_t timed_waves = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t event_triggers = 0;
  std::uint64_t sync_requests = 0;
  std::uint64_t syncs_elided = 0;
  std::array<std::uint64_t, kSyncCauseCount> syncs_by_cause{};
  std::vector<DomainStats> domains;
  std::vector<Time> dates;

  void capture(const Kernel& kernel) {
    const KernelStats& stats = kernel.stats();
    end = kernel.now();
    delta_cycles = stats.delta_cycles;
    timed_waves = stats.timed_waves;
    context_switches = stats.context_switches;
    event_triggers = stats.event_triggers;
    sync_requests = stats.sync_requests;
    syncs_elided = stats.syncs_elided;
    syncs_by_cause = stats.syncs_by_cause;
    domains = stats.domains;
  }
};

void expect_observed_equal(const Observed& a, const Observed& b,
                           const std::string& what) {
  EXPECT_EQ(a.end, b.end) << what;
  EXPECT_EQ(a.delta_cycles, b.delta_cycles) << what;
  EXPECT_EQ(a.timed_waves, b.timed_waves) << what;
  EXPECT_EQ(a.context_switches, b.context_switches) << what;
  EXPECT_EQ(a.event_triggers, b.event_triggers) << what;
  EXPECT_EQ(a.sync_requests, b.sync_requests) << what;
  EXPECT_EQ(a.syncs_elided, b.syncs_elided) << what;
  EXPECT_EQ(a.syncs_by_cause, b.syncs_by_cause) << what;
  EXPECT_EQ(a.dates, b.dates) << what;
  ASSERT_EQ(a.domains.size(), b.domains.size()) << what;
  for (std::size_t d = 0; d < a.domains.size(); ++d) {
    EXPECT_EQ(a.domains[d].sync_requests, b.domains[d].sync_requests)
        << what << " domain " << d;
    EXPECT_EQ(a.domains[d].syncs_by_cause, b.domains[d].syncs_by_cause)
        << what << " domain " << d;
  }
}

// ---------------------------------------------------------------------------
// Single-group workloads: parallel mode must be bit-exact even when there is
// nothing to parallelize (the buffered scheduling path itself is the DUT).
// ---------------------------------------------------------------------------

Observed run_mixed_workload(std::size_t workers) {
  Kernel k;
  k.set_workers(workers);
  k.set_global_quantum(50_ns);
  Observed out;
  Event ping(k, "ping");
  Event pong(k, "pong");
  SmartFifo<int> fifo(k, "f", 4);
  k.spawn_thread("producer", [&] {
    for (int i = 0; i < 30; ++i) {
      k.current_domain().inc((i % 4 + 1) * 7_ns);
      fifo.write(i);
      ping.notify_delta();
    }
  });
  k.spawn_thread("consumer", [&] {
    int sum = 0;
    for (int i = 0; i < 30; ++i) {
      sum += fifo.read();
      k.current_domain().inc_and_sync_if_needed(11_ns);
      out.dates.push_back(k.current_domain().local_time_stamp());
    }
    out.dates.push_back(Time(static_cast<std::uint64_t>(sum), TimeUnit::PS));
  });
  k.spawn_method("ponger", [&] { pong.notify(3_ns); },
                 MethodOptions{{&ping}, false, nullptr});
  k.spawn_thread("waiter", [&] {
    for (int i = 0; i < 10; ++i) {
      if (k.wait(pong, 40_ns)) {
        out.dates.push_back(k.now());
      }
      k.wait(5_ns);
    }
  });
  k.run();
  out.capture(k);
  return out;
}

TEST(Parallel, SingleGroupMixedWorkloadBitExact) {
  const Observed sequential = run_mixed_workload(0);
  for (std::size_t workers : {1u, 2u, 4u}) {
    const Observed parallel = run_mixed_workload(workers);
    expect_observed_equal(sequential, parallel,
                          "workers=" + std::to_string(workers));
  }
}

TEST(Parallel, SplitDomainSocBitExactUnderWorkers) {
  // The full case-study SoC (cpu/periph/noc domains, Smart FIFOs, NoC,
  // TLM bus): every worker count must reproduce the sequential dates and
  // sync books exactly. The three domains stay one concurrency group
  // (they are not declared concurrent), so this exercises the buffered
  // single-group path end to end.
  const auto run_soc = [](std::size_t workers) {
    Kernel kernel;
    kernel.set_workers(workers);
    soc::SocConfig config;
    config.streams = 2;
    config.words_per_stream = 512;
    config.block_words = 64;
    config.split_domains = true;
    soc::SocPlatform platform(kernel, config);
    Observed out;
    out.dates.push_back(platform.run_to_completion());
    EXPECT_TRUE(platform.all_streams_correct());
    out.capture(kernel);
    return out;
  };
  const Observed sequential = run_soc(0);
  for (std::size_t workers : {2u, 4u}) {
    const Observed parallel = run_soc(workers);
    expect_observed_equal(sequential, parallel,
                          "workers=" + std::to_string(workers));
  }
}

// ---------------------------------------------------------------------------
// Multi-group workloads: independent clusters actually run concurrently.
// ---------------------------------------------------------------------------

struct ClusterResult {
  Observed observed;
  std::uint64_t parallel_rounds = 0;
  std::uint64_t horizon_waits = 0;
  std::vector<std::size_t> groups;
};

ClusterResult run_clusters(std::size_t workers, std::size_t cluster_count) {
  Kernel k;
  k.set_workers(workers);
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
        {.name = "prod" + suffix, .quantum = 40_ns, .concurrent = true});
    cluster.consumer_side = &k.create_domain(
        {.name = "cons" + suffix, .quantum = 300_ns, .concurrent = true});
    cluster.fifo = std::make_unique<SmartFifo<int>>(k, "f" + suffix, 3);
    ThreadOptions popts;
    popts.domain = cluster.producer_side;
    k.spawn_thread("producer" + suffix, [&k, &cluster, c] {
      for (int i = 0; i < 50; ++i) {
        k.current_domain().inc((i % 5 + 1 + static_cast<int>(c)) * 3_ns);
        cluster.fifo->write(i);
      }
    }, popts);
    ThreadOptions copts;
    copts.domain = cluster.consumer_side;
    k.spawn_thread("consumer" + suffix, [&k, &cluster, c] {
      for (int i = 0; i < 50; ++i) {
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
  ClusterResult result;
  result.observed.capture(k);
  for (Cluster& cluster : clusters) {
    result.observed.dates.insert(result.observed.dates.end(),
                                 cluster.dates.begin(), cluster.dates.end());
    result.groups.push_back(k.domain_group(*cluster.producer_side));
    // The stream FIFO linked the cluster's two domains into one group.
    EXPECT_EQ(k.domain_group(*cluster.producer_side),
              k.domain_group(*cluster.consumer_side));
  }
  result.parallel_rounds = k.stats().parallel_rounds;
  result.horizon_waits = k.stats().horizon_waits;
  return result;
}

TEST(Parallel, IndependentClustersBitExactAndConcurrent) {
  const ClusterResult sequential = run_clusters(0, 3);
  EXPECT_EQ(sequential.parallel_rounds, 0u);
  for (std::size_t workers : {1u, 2u, 4u}) {
    const ClusterResult parallel = run_clusters(workers, 3);
    expect_observed_equal(sequential.observed, parallel.observed,
                          "workers=" + std::to_string(workers));
    if (workers >= 2) {
      // Three independent groups were runnable together at time zero...
      EXPECT_GT(parallel.parallel_rounds, 0u);
      // ...so at least one horizon had to await a concurrent group.
      EXPECT_GT(parallel.horizon_waits, 0u);
    }
  }
  // Clusters are pairwise independent: distinct concurrency groups.
  const ClusterResult grouped = run_clusters(2, 3);
  EXPECT_NE(grouped.groups[0], grouped.groups[1]);
  EXPECT_NE(grouped.groups[1], grouped.groups[2]);
}

TEST(Parallel, ChannelLinksDiscoveredMidRunSerializeFromThenOn) {
  // Two concurrent domains whose only coupling is a FIFO neither side
  // touches until well after time zero: the link forms mid-run (producer
  // first at 600 ns, consumer at 900 ns) and merges the groups from that
  // phase on. Dates must match the sequential schedule exactly.
  const auto run = [](std::size_t workers) {
    Kernel k;
    k.set_workers(workers);
    SyncDomain& a = k.create_domain(
        {.name = "late_a", .quantum = 50_ns, .concurrent = true});
    SyncDomain& b = k.create_domain(
        {.name = "late_b", .quantum = 50_ns, .concurrent = true});
    SmartFifo<int> fifo(k, "late_fifo", 2);
    Observed out;
    ThreadOptions aopts;
    aopts.domain = &a;
    k.spawn_thread("late_producer", [&] {
      k.wait(600_ns);
      for (int i = 0; i < 10; ++i) {
        k.current_domain().inc(5_ns);
        fifo.write(i);
      }
    }, aopts);
    ThreadOptions bopts;
    bopts.domain = &b;
    k.spawn_thread("late_consumer", [&] {
      k.wait(900_ns);
      for (int i = 0; i < 10; ++i) {
        if (fifo.read() != i) {
          out.dates.push_back(Time::max());
        }
        k.current_domain().inc(7_ns);
        out.dates.push_back(k.current_domain().local_time_stamp());
      }
    }, bopts);
    k.run();
    out.capture(k);
    EXPECT_EQ(k.domain_group(a), k.domain_group(b));
    return out;
  };
  const Observed sequential = run(0);
  const Observed parallel = run(2);
  expect_observed_equal(sequential, parallel, "late link");
}

TEST(Parallel, RepeatedRunReentryMatchesSequential) {
  const auto run_sliced = [](std::size_t workers,
                             const std::vector<Time>& slices) {
    Kernel k;
    k.set_workers(workers);
    SyncDomain& a = k.create_domain(
        {.name = "ra", .quantum = 30_ns, .concurrent = true});
    SyncDomain& b = k.create_domain(
        {.name = "rb", .quantum = 90_ns, .concurrent = true});
    Observed out;
    // One slot per worker: ra and rb are unlinked concurrent domains, so
    // their processes may finish at the same moment on two threads and
    // must not share a container.
    std::vector<Time> finals(2);
    for (auto [domain, label, slot] :
         {std::tuple<SyncDomain*, const char*, Time*>{&a, "a", &finals[0]},
          {&b, "b", &finals[1]}}) {
      ThreadOptions opts;
      opts.domain = domain;
      k.spawn_thread(std::string("worker_") + label, [&k, slot] {
        for (int i = 0; i < 200; ++i) {
          k.current_domain().inc_and_sync_if_needed(8_ns);
        }
        *slot = k.current_domain().local_time_stamp();
      }, opts);
    }
    for (Time slice : slices) {
      k.run(slice);
      out.dates.push_back(k.now());
    }
    k.run();
    out.dates.insert(out.dates.end(), finals.begin(), finals.end());
    out.capture(k);
    return out;
  };
  const std::vector<Time> slices = {300_ns, 700_ns, 1200_ns};
  const Observed sequential = run_sliced(0, slices);
  const Observed parallel = run_sliced(3, slices);
  expect_observed_equal(sequential, parallel, "sliced run()");
}

TEST(Parallel, StopFromProcessMatchesSequential) {
  const auto run = [](std::size_t workers) {
    Kernel k;
    k.set_workers(workers);
    Observed out;
    k.spawn_thread("ticker", [&] {
      for (int i = 0; i < 100; ++i) {
        k.wait(10_ns);
        out.dates.push_back(k.now());
      }
    });
    k.spawn_thread("stopper", [&] {
      k.wait(155_ns);
      k.stop();
    });
    k.run();
    out.capture(k);
    // run() resumes after a stop; the ticker finishes its 100 ticks.
    k.run();
    out.dates.push_back(k.now());
    return out;
  };
  const Observed sequential = run(0);
  const Observed parallel = run(2);
  expect_observed_equal(sequential, parallel, "stop()");
}

TEST(Parallel, MidRunProbesAreSafeAndHorizonConsistent) {
  // A probe in its own concurrency group reads the kernel-wide stats and
  // the other domains' fronts mid-run while those domains execute on
  // other workers: reads must be safe (TSan-checked in CI) and reflect at
  // least the last synchronization horizon.
  Kernel k;
  k.set_workers(4);
  SyncDomain& probe_domain =
      k.create_domain(DomainOptions{.name = "probe", .concurrent = true});
  SyncDomain& busy_a = k.create_domain(
      {.name = "busy_a", .quantum = 50_ns, .concurrent = true});
  SyncDomain& busy_b = k.create_domain(
      {.name = "busy_b", .quantum = 50_ns, .concurrent = true});
  for (auto [domain, label] :
       {std::pair<SyncDomain*, const char*>{&busy_a, "a"}, {&busy_b, "b"}}) {
    ThreadOptions opts;
    opts.domain = domain;
    k.spawn_thread(std::string("busy_") + label, [&k] {
      for (int i = 0; i < 500; ++i) {
        k.current_domain().inc_and_sync_if_needed(10_ns);
      }
    }, opts);
  }
  std::vector<std::uint64_t> probed_requests;
  std::vector<bool> lagging_seen;
  ThreadOptions popts;
  popts.domain = &probe_domain;
  k.spawn_thread("prober", [&] {
    for (int i = 0; i < 20; ++i) {
      k.wait(200_ns);
      probed_requests.push_back(k.stats().sync_requests);
      const SyncDomain* lagging = k.lagging_domain();
      lagging_seen.push_back(lagging != nullptr);
      // Foreign-domain introspection mid-run: horizon values, no races.
      (void)busy_a.execution_front();
      (void)busy_b.max_offset();
      (void)busy_a.stats().sync_requests;
    }
  }, popts);
  k.run();
  ASSERT_EQ(probed_requests.size(), 20u);
  // Monotone, and by the end the busy domains' books must be visible.
  for (std::size_t i = 1; i < probed_requests.size(); ++i) {
    EXPECT_LE(probed_requests[i - 1], probed_requests[i]);
  }
  EXPECT_EQ(k.stats().sync_requests,
            k.stats().domains[busy_a.id()].sync_requests +
                k.stats().domains[busy_b.id()].sync_requests);
}

TEST(Parallel, ExplicitLinkSerializesSharedVariableDomains) {
  // Two concurrent domains coupled through a plain variable no channel can
  // see: Kernel::link_domains restores determinism (one group, one
  // worker, schedule order).
  const auto run = [](std::size_t workers) {
    Kernel k;
    k.set_workers(workers);
    SyncDomain& a = k.create_domain(
        {.name = "shared_a", .quantum = 20_ns, .concurrent = true});
    SyncDomain& b = k.create_domain(
        {.name = "shared_b", .quantum = 20_ns, .concurrent = true});
    k.link_domains(a, b);
    EXPECT_EQ(k.domain_group(a), k.domain_group(b));
    int shared = 0;
    Observed out;
    ThreadOptions aopts;
    aopts.domain = &a;
    k.spawn_thread("writer", [&] {
      for (int i = 0; i < 50; ++i) {
        shared = i;
        k.wait(10_ns);
      }
    }, aopts);
    ThreadOptions bopts;
    bopts.domain = &b;
    k.spawn_thread("reader", [&] {
      for (int i = 0; i < 50; ++i) {
        k.wait(10_ns);
        out.dates.push_back(Time(static_cast<std::uint64_t>(shared) + 1,
                                 TimeUnit::PS));
      }
    }, bopts);
    k.run();
    out.capture(k);
    return out;
  };
  const Observed sequential = run(0);
  const Observed parallel = run(4);
  expect_observed_equal(sequential, parallel, "link_domains");
}

TEST(Parallel, EnvVarSeedsWorkerDefault) {
  const char* saved = std::getenv("TDSIM_WORKERS");
  const std::string saved_value = saved != nullptr ? saved : "";
  setenv("TDSIM_WORKERS", "3", 1);
  {
    Kernel k;
    EXPECT_EQ(k.workers(), 3u);
    k.set_workers(0);  // explicit call overrides the environment default
    EXPECT_EQ(k.workers(), 0u);
  }
  if (saved != nullptr) {
    setenv("TDSIM_WORKERS", saved_value.c_str(), 1);
  } else {
    unsetenv("TDSIM_WORKERS");
  }
}

TEST(Parallel, SetWorkersRejectedInsideSimulation) {
  Kernel k;
  k.spawn_thread("t", [&] { k.set_workers(2); });
  EXPECT_THROW(k.run(), SimulationError);
}

// ---------------------------------------------------------------------------
// Randomized stress: arbitrary domain membership and FIFO topology (fixed
// seed), sequential vs 4 workers.
// ---------------------------------------------------------------------------

Observed run_randomized_stress(std::size_t workers, unsigned seed) {
  std::mt19937 rng(seed);
  constexpr std::size_t kDomains = 6;
  constexpr std::size_t kFifos = 8;
  constexpr int kWords = 60;
  Kernel k;
  k.set_workers(workers);
  std::vector<SyncDomain*> domains;
  domains.push_back(&k.sync_domain());
  for (std::size_t d = 1; d < kDomains; ++d) {
    domains.push_back(&k.create_domain({.name = "d" + std::to_string(d),
                                        .quantum = Time(d * 20, TimeUnit::NS),
                                        .concurrent = (d % 2) == 1}));
  }
  Observed out;
  struct Stream {
    std::unique_ptr<SmartFifo<int>> fifo;
    std::vector<Time> dates;
    std::uint32_t checksum = 0;
  };
  std::vector<std::unique_ptr<Stream>> streams;
  for (std::size_t f = 0; f < kFifos; ++f) {
    auto stream = std::make_unique<Stream>();
    stream->fifo = std::make_unique<SmartFifo<int>>(
        k, "sf" + std::to_string(f), 1 + rng() % 5);
    Stream* raw = stream.get();
    streams.push_back(std::move(stream));
    SyncDomain* wd = domains[rng() % kDomains];
    SyncDomain* rd = domains[rng() % kDomains];
    const int wstep = 1 + static_cast<int>(rng() % 7);
    const int rstep = 1 + static_cast<int>(rng() % 7);
    ThreadOptions wopts;
    wopts.domain = wd;
    k.spawn_thread("w" + std::to_string(f), [&k, raw, wstep] {
      for (int i = 0; i < kWords; ++i) {
        k.current_domain().inc(Time(static_cast<std::uint64_t>(
            (i % wstep + 1) * 3), TimeUnit::NS));
        raw->fifo->write(i);
      }
    }, wopts);
    ThreadOptions ropts;
    ropts.domain = rd;
    k.spawn_thread("r" + std::to_string(f), [&k, raw, rstep] {
      for (int i = 0; i < kWords; ++i) {
        raw->checksum =
            raw->checksum * 31 + static_cast<std::uint32_t>(raw->fifo->read());
        k.current_domain().inc_and_sync_if_needed(Time(
            static_cast<std::uint64_t>((i % rstep + 1) * 4), TimeUnit::NS));
        raw->dates.push_back(k.current_domain().local_time_stamp());
      }
    }, ropts);
  }
  // Pure compute/wait loops sprinkled across domains.
  for (std::size_t p = 0; p < kDomains; ++p) {
    ThreadOptions opts;
    opts.domain = domains[rng() % kDomains];
    const std::uint64_t wait_ns = 5 + rng() % 40;
    k.spawn_thread("loop" + std::to_string(p), [&k, wait_ns] {
      for (int i = 0; i < 150; ++i) {
        k.current_domain().inc_and_sync_if_needed(9_ns);
        k.wait(Time(wait_ns, TimeUnit::NS));
      }
    }, opts);
  }
  k.run();
  out.capture(k);
  for (const auto& stream : streams) {
    out.dates.insert(out.dates.end(), stream->dates.begin(),
                     stream->dates.end());
    out.dates.push_back(Time(stream->checksum, TimeUnit::PS));
  }
  return out;
}

TEST(Parallel, RandomizedDomainMembershipStressBitExact) {
  for (unsigned seed : {7u, 1234u}) {
    const Observed sequential = run_randomized_stress(0, seed);
    const Observed parallel = run_randomized_stress(4, seed);
    expect_observed_equal(sequential, parallel,
                          "seed=" + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------------
// Randomized *independent* clusters: same stress philosophy, but every
// FIFO stays internal to its cluster so multiple concurrency groups
// survive discovery and the conservative-lookahead extensions actually
// free-run (asserted via stats().lookahead_advances). Quanta, depths,
// declared cell latencies and step increments are all seed-randomized;
// bit-exactness against workers=0 is the contract.
// ---------------------------------------------------------------------------

Observed run_randomized_cluster_stress(std::size_t workers, unsigned seed,
                                       std::uint64_t* lookahead_advances) {
  std::mt19937 rng(seed);
  constexpr std::size_t kClusters = 4;
  constexpr int kWords = 50;
  Kernel k;
  k.set_workers(workers);
  Observed out;
  struct Stream {
    std::unique_ptr<SmartFifo<int>> fifo;
    std::vector<Time> dates;
    std::uint32_t checksum = 0;
  };
  std::vector<std::unique_ptr<Stream>> streams;
  for (std::size_t c = 0; c < kClusters; ++c) {
    const std::string suffix = std::to_string(c);
    SyncDomain& wd = k.create_domain(
        {.name = "rcw" + suffix,
         .quantum = Time((rng() % 5 + 1) * 20, TimeUnit::NS),
         .concurrent = true});
    SyncDomain& rd = k.create_domain(
        {.name = "rcr" + suffix,
         .quantum = Time((rng() % 5 + 1) * 60, TimeUnit::NS),
         .concurrent = true});
    auto stream = std::make_unique<Stream>();
    stream->fifo = std::make_unique<SmartFifo<int>>(k, "rcf" + suffix,
                                                    1 + rng() % 5);
    stream->fifo->declare_cell_latency(Time(5 + rng() % 30, TimeUnit::NS));
    Stream* raw = stream.get();
    streams.push_back(std::move(stream));
    const int wstep = 1 + static_cast<int>(rng() % 7);
    const int rstep = 1 + static_cast<int>(rng() % 7);
    ThreadOptions wopts;
    wopts.domain = &wd;
    k.spawn_thread("rcw" + suffix, [&k, raw, wstep] {
      for (int i = 0; i < kWords; ++i) {
        k.current_domain().inc(Time(static_cast<std::uint64_t>(
            (i % wstep + 1) * 3), TimeUnit::NS));
        raw->fifo->write(i);
      }
    }, wopts);
    ThreadOptions ropts;
    ropts.domain = &rd;
    k.spawn_thread("rcr" + suffix, [&k, raw, rstep] {
      for (int i = 0; i < kWords; ++i) {
        raw->checksum =
            raw->checksum * 31 + static_cast<std::uint32_t>(raw->fifo->read());
        k.current_domain().inc_and_sync_if_needed(Time(
            static_cast<std::uint64_t>((i % rstep + 1) * 4), TimeUnit::NS));
        raw->dates.push_back(k.current_domain().local_time_stamp());
      }
    }, ropts);
  }
  k.run();
  out.capture(k);
  for (const auto& stream : streams) {
    out.dates.insert(out.dates.end(), stream->dates.begin(),
                     stream->dates.end());
    out.dates.push_back(Time(stream->checksum, TimeUnit::PS));
  }
  if (lookahead_advances != nullptr) {
    *lookahead_advances = k.stats().lookahead_advances;
  }
  return out;
}

TEST(Parallel, RandomizedIndependentClustersFreeRunBitExact) {
  for (unsigned seed : {11u, 4321u}) {
    std::uint64_t la_sequential = 0;
    std::uint64_t la_parallel = 0;
    const Observed sequential =
        run_randomized_cluster_stress(0, seed, &la_sequential);
    const Observed parallel =
        run_randomized_cluster_stress(4, seed, &la_parallel);
    expect_observed_equal(sequential, parallel,
                          "seed=" + std::to_string(seed));
    EXPECT_EQ(la_sequential, 0u) << "seed=" << seed;
    EXPECT_GT(la_parallel, 0u) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace tdsim
