// Multi-domain kernel behavior: the SyncDomain registry, per-process
// membership, independent per-domain quanta, per-domain statistics that
// sum to the kernel aggregate, cross-domain Smart-FIFO bit-exactness,
// elaboration-time-only domain reassignment, per-domain delta-livelock
// limits, lagging-domain reporting, and timed-queue compaction.
#include <gtest/gtest.h>

#include <vector>

#include "core/smart_fifo.h"
#include "kernel/event.h"
#include "kernel/kernel.h"
#include "kernel/local_clock.h"
#include "kernel/module.h"
#include "kernel/report.h"
#include "kernel/sync_domain.h"
#include "soc/soc_platform.h"

namespace tdsim {
namespace {

TEST(MultiDomain, RegistryDefaultsAndLookup) {
  Kernel k;
  // The default domain always exists and keeps the single-domain API alive.
  EXPECT_EQ(k.domains().size(), 1u);
  EXPECT_EQ(&k.sync_domain(), k.domains().front().get());
  EXPECT_EQ(k.sync_domain().name(), "default");
  EXPECT_EQ(k.sync_domain().id(), 0u);

  SyncDomain& cpu = k.create_domain({.name = "cpu", .quantum = 10_ns});
  SyncDomain& periph = k.create_domain({.name = "periph", .quantum = 1_us});
  EXPECT_EQ(k.domains().size(), 3u);
  EXPECT_EQ(cpu.id(), 1u);
  EXPECT_EQ(periph.id(), 2u);
  EXPECT_EQ(cpu.quantum(), 10_ns);
  EXPECT_EQ(periph.quantum(), 1_us);
  EXPECT_EQ(k.find_domain("periph"), &periph);
  EXPECT_EQ(k.find_domain("nope"), nullptr);
  // Duplicate names are configuration bugs.
  EXPECT_THROW(k.create_domain(DomainOptions{.name = "cpu"}), SimulationError);

  // Kernel-level quantum conveniences only touch the default domain.
  k.set_global_quantum(5_ns);
  EXPECT_EQ(k.global_quantum(), 5_ns);
  EXPECT_EQ(cpu.quantum(), 10_ns);
  EXPECT_EQ(periph.quantum(), 1_us);
}

TEST(MultiDomain, ProcessesJoinDomainsViaOptionsAndModuleDefaults) {
  Kernel k;
  SyncDomain& cpu = k.create_domain(DomainOptions{.name = "cpu"});
  SyncDomain& periph = k.create_domain(DomainOptions{.name = "periph"});

  ThreadOptions topts;
  topts.domain = &cpu;
  Process* t = k.spawn_thread("t", [] {}, topts);
  EXPECT_EQ(&t->domain(), &cpu);
  EXPECT_EQ(cpu.members(), (std::vector<Process*>{t}));

  Process* d = k.spawn_thread("d", [] {});
  EXPECT_EQ(&d->domain(), &k.sync_domain());

  // A module-level default pulls a whole subtree into one domain; child
  // modules inherit it unless they override.
  struct Leaf : Module {
    Process* p;
    explicit Leaf(Module& parent) : Module(parent, "leaf") {
      p = thread("t", [] {});
    }
  };
  struct Root : Module {
    Leaf* leaf;
    Root(Kernel& kernel, SyncDomain& domain) : Module(kernel, "root") {
      set_default_domain(domain);
      leaf = new Leaf(*this);
    }
    ~Root() override { delete leaf; }
  };
  Root root(k, periph);
  EXPECT_EQ(&root.default_domain(), &periph);
  EXPECT_EQ(&root.leaf->p->domain(), &periph);

  // Spawning into a foreign kernel's domain is a configuration bug.
  Kernel other;
  ThreadOptions bad;
  bad.domain = &cpu;
  EXPECT_THROW(other.spawn_thread("x", [] {}, bad), SimulationError);
}

TEST(MultiDomain, DomainsSyncIndependentlyUnderDifferentQuanta) {
  // Two workers annotate the same 1000 ns of local time in 10 ns steps;
  // the fast domain (quantum 10 ns) synchronizes at every step, the slow
  // one (quantum 100 ns) ten times less often.
  Kernel k;
  SyncDomain& fast = k.create_domain({.name = "fast", .quantum = 10_ns});
  SyncDomain& slow = k.create_domain({.name = "slow", .quantum = 100_ns});

  const auto worker = [&k] {
    for (int i = 0; i < 100; ++i) {
      k.current_domain().inc_and_sync_if_needed(10_ns);
    }
  };
  ThreadOptions in_fast;
  in_fast.domain = &fast;
  ThreadOptions in_slow;
  in_slow.domain = &slow;
  k.spawn_thread("fast_worker", worker, in_fast);
  k.spawn_thread("slow_worker", worker, in_slow);
  k.run();

  EXPECT_EQ(k.now(), 1000_ns);
  EXPECT_EQ(fast.syncs(SyncCause::Quantum), 100u);
  EXPECT_EQ(slow.syncs(SyncCause::Quantum), 10u);
  // The default domain saw none of it.
  EXPECT_EQ(k.sync_domain().syncs_performed(), 0u);
}

TEST(MultiDomain, PerDomainStatsSumToKernelAggregate) {
  Kernel k;
  SyncDomain& a = k.create_domain({.name = "a", .quantum = 10_ns});
  SyncDomain& b = k.create_domain(DomainOptions{.name = "b"});
  SmartFifo<int> fifo(k, "f", 2);

  ThreadOptions in_a;
  in_a.domain = &a;
  k.spawn_thread("producer", [&] {
    for (int i = 0; i < 8; ++i) {
      k.current_domain().inc_and_sync_if_needed(10_ns);
      fifo.write(i);  // may block internally full -> FifoFull sync in 'a'
    }
  }, in_a);
  ThreadOptions in_b;
  in_b.domain = &b;
  k.spawn_thread("consumer", [&] {
    for (int i = 0; i < 8; ++i) {
      k.current_domain().inc(25_ns);
      EXPECT_EQ(fifo.read(), i);  // FifoEmpty syncs land in 'b'
    }
    k.current_domain().sync();  // Explicit, in 'b'
  }, in_b);
  MethodOptions in_b_method;
  in_b_method.domain = &b;
  int rearms = 0;
  k.spawn_method("ticker", [&] {
    if (++rearms <= 3) {
      k.current_domain().inc(7_ns);
      k.current_domain().method_sync_trigger();
    }
  }, in_b_method);
  k.run();

  const KernelStats& s = k.stats();
  ASSERT_EQ(s.domains.size(), k.domains().size());
  std::uint64_t requests = 0, elided = 0, rearmed = 0;
  for (const DomainStats& d : s.domains) {
    requests += d.sync_requests;
    elided += d.syncs_elided;
    rearmed += d.method_rearms;
  }
  EXPECT_EQ(requests, s.sync_requests);
  EXPECT_EQ(elided, s.syncs_elided);
  EXPECT_EQ(rearmed, s.method_rearms);
  for (std::size_t c = 0; c < kSyncCauseCount; ++c) {
    std::uint64_t per_cause = 0;
    for (const DomainStats& d : s.domains) {
      per_cause += d.syncs_by_cause[c];
    }
    EXPECT_EQ(per_cause, s.syncs_by_cause[c])
        << "cause " << to_string(static_cast<SyncCause>(c));
  }
  // The invariant holds per domain, not just in aggregate.
  for (const DomainStats& d : s.domains) {
    EXPECT_EQ(d.sync_requests, d.syncs_performed() + d.syncs_elided)
        << "domain " << d.name;
  }
  // Something actually landed in both custom domains.
  EXPECT_GT(a.stats().sync_requests, 0u);
  EXPECT_GT(b.stats().sync_requests, 0u);
  EXPECT_EQ(b.stats().method_rearms, 3u);
}

/// Runs the Fig.-2-style producer/consumer over a Smart FIFO and returns
/// every local access date observed, optionally placing the two sides in
/// different domains.
std::vector<Time> run_smart_fifo_pipeline(bool split_domains) {
  Kernel k;
  SyncDomain* wd = &k.sync_domain();
  SyncDomain* rd = &k.sync_domain();
  if (split_domains) {
    wd = &k.create_domain({.name = "writer_side", .quantum = 50_ns});
    rd = &k.create_domain({.name = "reader_side", .quantum = 700_ns});
  }
  SmartFifo<int> fifo(k, "f", 3);
  std::vector<Time> dates;
  ThreadOptions wopts;
  wopts.domain = wd;
  k.spawn_thread("producer", [&] {
    for (int i = 0; i < 40; ++i) {
      k.current_domain().inc((i % 5 + 1) * 3_ns);
      fifo.write(i);
      dates.push_back(k.current_domain().local_time_stamp());
    }
  }, wopts);
  ThreadOptions ropts;
  ropts.domain = rd;
  k.spawn_thread("consumer", [&] {
    for (int i = 0; i < 40; ++i) {
      k.current_domain().inc((i % 3 + 1) * 4_ns);
      EXPECT_EQ(fifo.read(), i);
      dates.push_back(k.current_domain().local_time_stamp());
    }
  }, ropts);
  k.run();
  dates.push_back(k.now());
  return dates;
}

TEST(MultiDomain, CrossDomainSmartFifoBitExactWithSingleDomain) {
  // The Smart FIFO's cell date stamps carry timing across the domain
  // boundary: splitting writer and reader into domains with wildly
  // different quanta must not move a single access date (no quantum syncs
  // are involved -- inc() plus FIFO-driven syncs only).
  const std::vector<Time> single = run_smart_fifo_pipeline(false);
  const std::vector<Time> split = run_smart_fifo_pipeline(true);
  EXPECT_EQ(single, split);
}

TEST(MultiDomain, ReassignmentOnlyDuringElaboration) {
  Kernel k;
  SyncDomain& cpu = k.create_domain({.name = "cpu", .quantum = 10_ns});
  Process* t = k.spawn_thread("t", [&] {
    // Runs under the reassigned domain's quantum.
    EXPECT_EQ(&k.current_domain(), &cpu);
    k.current_domain().inc(10_ns);
    EXPECT_TRUE(k.current_domain().needs_sync());
    k.current_domain().sync(SyncCause::Quantum);
  });
  EXPECT_EQ(&t->domain(), &k.sync_domain());
  k.assign_domain(*t, cpu);  // before elaboration: fine
  EXPECT_EQ(&t->domain(), &cpu);
  EXPECT_TRUE(k.sync_domain().members().empty());
  k.run();
  EXPECT_EQ(cpu.syncs(SyncCause::Quantum), 1u);

  // After the first run() has initialized processes, membership is fixed.
  Process* u = k.spawn_thread("u", [] {});
  EXPECT_THROW(k.assign_domain(*u, cpu), SimulationError);
}

TEST(MultiDomain, SyncThroughForeignDomainIsError) {
  // Synchronizing through a domain the process is not a member of would
  // apply the wrong quantum and book the switch against the wrong
  // subsystem; channels must resolve Kernel::current_domain() instead.
  Kernel k;
  SyncDomain& cpu = k.create_domain(DomainOptions{.name = "cpu"});
  ThreadOptions opts;
  opts.domain = &cpu;
  k.spawn_thread("t", [&] {
    k.current_domain().inc(5_ns);
    k.sync_domain().sync();  // default domain, foreign to this process
  }, opts);
  EXPECT_THROW(k.run(), SimulationError);
}

TEST(MultiDomain, IncAndSyncThroughForeignDomainFailsWithoutSideEffects) {
  // Membership is checked before the clock moves, so the misrouted call
  // leaves the caller's offset (and the foreign domain's books) as they
  // were.
  Kernel k;
  SyncDomain& cpu = k.create_domain(DomainOptions{.name = "cpu"});
  ThreadOptions opts;
  opts.domain = &cpu;
  bool threw = false;
  Time offset_after;
  k.spawn_thread("t", [&] {
    cpu.inc(3_ns);
    try {
      k.sync_domain().inc_and_sync_if_needed(5_ns);  // foreign domain
    } catch (const SimulationError&) {
      threw = true;
    }
    offset_after = cpu.local_offset();
  }, opts);
  k.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(offset_after, 3_ns);
  EXPECT_EQ(k.sync_domain().stats().sync_requests, 0u);
}

TEST(MultiDomain, PerDomainDeltaLivelockLimit) {
  // Two methods of one domain re-triggering each other forever at one date
  // trip that domain's own limit -- with the kernel-wide limit disabled --
  // and the diagnostic names the culprit domain.
  Kernel k;
  SyncDomain& chatty = k.create_domain(DomainOptions{.name = "chatty"});
  chatty.set_delta_cycle_limit(50);
  Event ping(k, "ping");
  Event pong(k, "pong");
  MethodOptions a_opts;
  a_opts.domain = &chatty;
  a_opts.sensitivity.push_back(&ping);
  k.spawn_method("a", [&] { pong.notify_delta(); }, a_opts);
  MethodOptions b_opts;
  b_opts.domain = &chatty;
  b_opts.sensitivity.push_back(&pong);
  k.spawn_method("b", [&] { ping.notify_delta(); }, b_opts);
  try {
    k.run();
    FAIL() << "expected the domain delta-cycle limit to trip";
  } catch (const SimulationError& e) {
    EXPECT_NE(std::string(e.what()).find("chatty"), std::string::npos)
        << e.what();
  }
}

TEST(MultiDomain, PerDomainDeltaCountingIgnoresOtherDomainsActivity) {
  // A bounded burst of delta activity in a busy domain must not trip the
  // limit of a quiet domain, and a tight limit survives activity strictly
  // below it.
  Kernel k;
  SyncDomain& quiet = k.create_domain(DomainOptions{.name = "quiet"});
  quiet.set_delta_cycle_limit(3);
  int remaining = 20;
  k.spawn_thread("busy_default_domain", [&] {
    while (remaining-- > 0) {
      k.wait_delta();  // 20 consecutive deltas, all in the default domain
    }
  });
  ThreadOptions q;
  q.domain = &quiet;
  k.spawn_thread("quiet_member", [&] { k.wait(5_ns); }, q);
  k.run();  // must not throw
  EXPECT_EQ(k.now(), 5_ns);
}

TEST(MultiDomain, LaggingDomainIsTheOneFurthestBehind) {
  Kernel k;
  SyncDomain& ahead = k.create_domain(DomainOptions{.name = "ahead"});
  SyncDomain& behind = k.create_domain(DomainOptions{.name = "behind"});
  ThreadOptions a;
  a.domain = &ahead;
  k.spawn_thread("runner", [&] {
    k.current_domain().inc(500_ns);
    k.wait(1_ns);
  }, a);
  ThreadOptions b;
  b.domain = &behind;
  k.spawn_thread("crawler", [&] {
    k.current_domain().inc(20_ns);
    k.wait(1_ns);
  }, b);
  k.spawn_thread("observer", [&] {
    k.wait_delta();
    EXPECT_EQ(k.lagging_domain(), &k.sync_domain());  // observer: offset 0
    EXPECT_EQ(ahead.max_offset(), 500_ns);
    EXPECT_EQ(ahead.execution_front().value(), 500_ns);
    EXPECT_EQ(behind.execution_front().value(), 20_ns);
  });
  k.run();
}

TEST(MultiDomain, TimedQueueCompactionDropsSuperseded) {
  // Each earlier re-notification of an event supersedes the pending later
  // one, stranding a stale entry deep in the timed queue. Lazy deletion
  // alone would keep all of them until their (far-future) dates; the
  // compaction pass must drop them once they outnumber live entries,
  // without disturbing the live notification.
  Kernel k;
  Event e(k, "e");
  int fired = 0;
  MethodOptions opts;
  opts.sensitivity.push_back(&e);
  opts.dont_initialize = true;
  k.spawn_method("listener", [&] { fired++; }, opts);
  k.spawn_thread("renotifier", [&] {
    for (int i = 0; i < 500; ++i) {
      // Decreasing dates: every notify supersedes the previous entry.
      e.notify(Time(1'000'000 - i, TimeUnit::NS));
    }
    k.wait(1_ns);
  });
  k.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(k.now(), Time(1'000'000 - 499, TimeUnit::NS));
  EXPECT_GE(k.stats().timed_queue_compactions, 1u);
}

TEST(MultiDomain, DestroyedEventEntriesArePurgedBeforeCompaction) {
  // An event destroyed with notifications still in the timed queue must
  // leave no dangling entry behind: later queue churn (including the
  // compaction pass, which inspects entries deep in the queue) runs over
  // entries of live events only. Under ASan this is a use-after-free
  // regression test; everywhere it checks dates stay unperturbed.
  Kernel k;
  k.spawn_thread("churn", [&k] {
    {
      Event doomed(k, "doomed");
      doomed.notify(2_ms);
      Event superseded(k, "superseded");
      superseded.notify(3_ms);
      superseded.notify(1_ms);  // strand a stale entry too
    }  // both die with entries queued
    Event e(k, "e");
    for (int i = 0; i < 500; ++i) {
      e.notify(Time(1'000'000 - i, TimeUnit::NS));  // drive compaction
    }
    e.cancel();
    k.wait(5_ns);
  });
  k.run();
  EXPECT_EQ(k.now(), 5_ns);  // no destroyed/cancelled notification fired
  EXPECT_GE(k.stats().timed_queue_compactions, 1u);
}

TEST(MultiDomain, RunnableCountTracksDomainMembers) {
  Kernel k;
  SyncDomain& d = k.create_domain(DomainOptions{.name = "d"});
  ThreadOptions opts;
  opts.domain = &d;
  k.spawn_thread("t", [&] {
    // While running, this process is no longer in the runnable set.
    EXPECT_EQ(d.runnable_count(), 0u);
    k.wait(1_ns);
  }, opts);
  EXPECT_EQ(d.runnable_count(), 0u);
  k.run();
  EXPECT_EQ(d.runnable_count(), 0u);
}

TEST(MultiDomain, SplitDomainSocBitExactWithSingleDomain) {
  // The full case-study SoC partitioned into cpu/periph/noc domains must
  // produce the same dates as the default single-domain build: domain
  // membership moves only the attribution of the sync statistics.
  const auto run_soc = [](bool split) {
    Kernel kernel;
    tdsim::soc::SocConfig config;
    config.streams = 2;
    config.words_per_stream = 512;
    config.block_words = 64;
    config.split_domains = split;
    tdsim::soc::SocPlatform platform(kernel, config);
    const Time end = platform.run_to_completion();
    EXPECT_TRUE(platform.all_streams_correct());
    struct Out {
      Time end;
      Time core_done;
      std::uint64_t switches;
      std::uint64_t performed;
    };
    return Out{end, platform.core().all_done_date(),
               kernel.stats().context_switches,
               kernel.stats().syncs_performed()};
  };
  const auto single = run_soc(false);
  const auto split = run_soc(true);
  EXPECT_EQ(single.end, split.end);
  EXPECT_EQ(single.core_done, split.core_done);
  EXPECT_EQ(single.switches, split.switches);
  EXPECT_EQ(single.performed, split.performed);
}

TEST(MultiDomain, SplitDomainSocAttributesSyncsPerDomain) {
  Kernel kernel;
  tdsim::soc::SocConfig config;
  config.streams = 2;
  config.words_per_stream = 512;
  config.block_words = 64;
  config.split_domains = true;
  tdsim::soc::SocPlatform platform(kernel, config);
  platform.run_to_completion();
  const SyncDomain* cpu = kernel.find_domain("soc.cpu");
  const SyncDomain* periph = kernel.find_domain("soc.periph");
  ASSERT_NE(cpu, nullptr);
  ASSERT_NE(periph, nullptr);
  // The polling core's quantum-driven syncs land in the cpu domain, the
  // accelerators' FIFO-driven ones in the periph domain; nothing lands in
  // the default domain anymore.
  EXPECT_GT(cpu->syncs(SyncCause::Quantum), 0u);
  EXPECT_GT(periph->syncs(SyncCause::FifoFull) +
                periph->syncs(SyncCause::FifoEmpty),
            0u);
  EXPECT_EQ(kernel.sync_domain().stats().sync_requests, 0u);
}

TEST(MultiDomain, DomainBoundQuantumKeeper) {
  Kernel k;
  SyncDomain& cpu = k.create_domain({.name = "cpu", .quantum = 100_ns});
  ThreadOptions opts;
  opts.domain = &cpu;
  k.spawn_thread("t", [&] {
    QuantumKeeper qk(cpu);
    for (int i = 0; i < 10; ++i) {
      qk.inc_and_sync_if_needed(50_ns);
    }
  }, opts);
  k.run();
  EXPECT_EQ(k.now(), 500_ns);
  EXPECT_EQ(cpu.syncs(SyncCause::Quantum), 5u);
  // The default domain's books were never touched.
  EXPECT_EQ(k.sync_domain().syncs_performed(), 0u);
}

}  // namespace
}  // namespace tdsim
