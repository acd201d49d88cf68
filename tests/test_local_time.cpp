// Temporal-decoupling core: per-process LocalClock, SyncDomain quantum
// policy, the quantum keeper, and method-process offsets.
//
// Historically these behaviors lived behind the td:: free functions of
// core/local_time.h (removed after every consumer migrated); the tests
// exercise the subsystem directly through Kernel::sync_domain() and
// Process::clock() and must preserve bit-exact date behavior with the
// shim era.
#include <gtest/gtest.h>

#include <vector>

#include "kernel/kernel.h"
#include "kernel/local_clock.h"
#include "kernel/report.h"
#include "kernel/sync_domain.h"

namespace tdsim {
namespace {

TEST(LocalTime, IncAdvancesLocalDateNotGlobal) {
  Kernel k;
  k.spawn_thread("t", [&] {
    SyncDomain& sd = k.sync_domain();
    EXPECT_EQ(sd.local_time_stamp(), Time{});
    sd.inc(10_ns);
    EXPECT_EQ(sd.local_time_stamp(), 10_ns);
    EXPECT_EQ(k.now(), Time{});
    EXPECT_EQ(sd.local_offset(), 10_ns);
    EXPECT_FALSE(sd.is_synchronized());
  });
  k.run();
}

TEST(LocalTime, SyncCatchesGlobalUp) {
  Kernel k;
  k.spawn_thread("t", [&] {
    SyncDomain& sd = k.sync_domain();
    sd.inc(10_ns);
    sd.inc(5_ns);
    sd.sync();
    EXPECT_EQ(k.now(), 15_ns);
    EXPECT_EQ(sd.local_time_stamp(), 15_ns);
    EXPECT_TRUE(sd.is_synchronized());
  });
  k.run();
  EXPECT_EQ(k.now(), 15_ns);
}

TEST(LocalTime, SyncWhenSynchronizedIsFree) {
  Kernel k;
  k.spawn_thread("t", [&] {
    k.sync_domain().sync();
    k.sync_domain().sync();
  });
  k.run();
  // Only the initial dispatch; sync() of a synchronized process must not
  // yield.
  EXPECT_EQ(k.stats().context_switches, 1u);
  EXPECT_EQ(k.stats().sync_requests, 2u);
  EXPECT_EQ(k.stats().syncs_elided, 2u);
  EXPECT_EQ(k.stats().syncs_performed(), 0u);
}

TEST(LocalTime, IncThenSyncEquivalentToWait) {
  // The paper: "executing inc(d); sync() is equivalent to wait(d)".
  Kernel a;
  std::vector<Time> wait_stamps;
  a.spawn_thread("t", [&] {
    a.wait(20_ns);
    wait_stamps.push_back(a.now());
    a.wait(15_ns);
    wait_stamps.push_back(a.now());
  });
  a.run();

  Kernel b;
  std::vector<Time> td_stamps;
  b.spawn_thread("t", [&] {
    SyncDomain& sd = b.sync_domain();
    sd.inc(20_ns);
    sd.sync();
    td_stamps.push_back(b.now());
    sd.inc(15_ns);
    sd.sync();
    td_stamps.push_back(b.now());
  });
  b.run();

  EXPECT_EQ(wait_stamps, td_stamps);
}

TEST(LocalTime, AdvanceLocalToOnlyMovesForward) {
  Kernel k;
  k.spawn_thread("t", [&] {
    SyncDomain& sd = k.sync_domain();
    sd.inc(10_ns);
    sd.advance_local_to(5_ns);  // in the past: no-op
    EXPECT_EQ(sd.local_time_stamp(), 10_ns);
    sd.advance_local_to(30_ns);
    EXPECT_EQ(sd.local_time_stamp(), 30_ns);
  });
  k.run();
}

TEST(LocalTime, OffsetsAreIndependentPerProcess) {
  Kernel k;
  k.spawn_thread("a", [&] {
    k.sync_domain().inc(100_ns);
    EXPECT_EQ(k.sync_domain().local_offset(), 100_ns);
  });
  k.spawn_thread("b", [&] {
    EXPECT_EQ(k.sync_domain().local_offset(), Time{});
    k.sync_domain().inc(7_ns);
    EXPECT_EQ(k.sync_domain().local_offset(), 7_ns);
  });
  k.run();
}

TEST(LocalTime, ClockOfOtherProcess) {
  Kernel k;
  Process* a = k.spawn_thread("a", [&] {
    k.sync_domain().inc(100_ns);
    k.wait(1_ns);
  });
  k.spawn_thread("b", [&] {
    k.wait_delta();
    EXPECT_EQ(a->clock().now(), 100_ns);
    EXPECT_EQ(k.sync_domain().local_time_of(*a), 100_ns);
  });
  k.run();
}

TEST(LocalTime, MethodOffsetResetsEachActivation) {
  Kernel k;
  std::vector<Time> local_dates;
  int runs = 0;
  k.spawn_method("m", [&] {
    SyncDomain& sd = k.sync_domain();
    // Offset starts at zero every activation...
    EXPECT_EQ(sd.local_offset(), Time{});
    sd.inc(3_ns);
    local_dates.push_back(sd.local_time_stamp());
    if (++runs < 3) {
      sd.method_sync_trigger();  // re-arm at our local date
    }
  });
  k.run();
  EXPECT_EQ(local_dates, (std::vector<Time>{3_ns, 6_ns, 9_ns}));
}

TEST(LocalTime, SyncFromMethodWithOffsetIsError) {
  Kernel k;
  k.spawn_method("m", [&] {
    k.sync_domain().inc(1_ns);
    k.sync_domain().sync();
  });
  EXPECT_THROW(k.run(), SimulationError);
}

TEST(LocalTime, SyncFromSynchronizedMethodIsAllowed) {
  // get_size() calls sync(); a synchronized method must be able to use it.
  Kernel k;
  k.spawn_method("m", [&] { k.sync_domain().sync(); });
  k.run();
}

TEST(LocalTime, MethodSyncTriggerFromThreadIsError) {
  Kernel k;
  k.spawn_thread("t", [&] { k.sync_domain().method_sync_trigger(); });
  EXPECT_THROW(k.run(), SimulationError);
}

TEST(LocalTime, CurrentProcessOpsOutsideProcessAreErrors) {
  // The current-process conveniences need a running process of this kernel.
  Kernel k;
  EXPECT_THROW(k.sync_domain().inc(1_ns), SimulationError);
  EXPECT_THROW(k.sync_domain().inc_and_sync_if_needed(1_ns), SimulationError);
  EXPECT_THROW(k.sync_domain().sync(), SimulationError);
  EXPECT_THROW(k.sync_domain().local_offset(), SimulationError);
  // The ambient accessor additionally needs a running kernel at all.
  EXPECT_THROW(current_sync_domain(), SimulationError);
}

TEST(LocalTime, LocalTimeStampDegeneratesOutsideProcess) {
  // From scheduler/elaboration context the local date is the global date.
  Kernel k;
  EXPECT_EQ(k.sync_domain().local_time_stamp(), k.now());
}

TEST(QuantumKeeper, NeedsSyncOnceQuantumExhausted) {
  Kernel k;
  k.set_global_quantum(1_us);
  k.spawn_thread("t", [&] {
    QuantumKeeper qk(k);
    qk.inc(400_ns);
    EXPECT_FALSE(qk.need_sync());
    qk.inc(400_ns);
    EXPECT_FALSE(qk.need_sync());
    qk.inc(400_ns);
    EXPECT_TRUE(qk.need_sync());
    qk.sync();
    EXPECT_EQ(k.now(), 1200_ns);
  });
  k.run();
}

TEST(QuantumKeeper, IncAndSyncIfNeededBatchesContextSwitches) {
  Kernel k;
  k.set_global_quantum(1_us);
  k.spawn_thread("t", [&] {
    QuantumKeeper qk(k);
    for (int i = 0; i < 100; ++i) {
      qk.inc_and_sync_if_needed(100_ns);  // 10 inc per quantum
    }
    k.sync_domain().sync();
  });
  k.run();
  EXPECT_EQ(k.now(), 10_us);
  // 1 initial dispatch + 10 quantum syncs (the final sync coincides with
  // the 10th quantum boundary, already synchronized).
  EXPECT_LE(k.stats().context_switches, 12u);
  EXPECT_GE(k.stats().context_switches, 10u);
  // Every performed synchronization was quantum-driven.
  EXPECT_EQ(k.stats().syncs(SyncCause::Quantum),
            k.stats().syncs_performed());
}

TEST(QuantumKeeper, ZeroQuantumSyncsEveryAnnotation) {
  // The paper: "temporal decoupling can be disabled by setting it to zero".
  Kernel k;
  k.set_global_quantum(Time{});
  k.spawn_thread("t", [&] {
    QuantumKeeper qk(k);
    for (int i = 0; i < 5; ++i) {
      qk.inc_and_sync_if_needed(10_ns);
    }
  });
  k.run();
  EXPECT_EQ(k.now(), 50_ns);
  EXPECT_EQ(k.stats().context_switches, 6u);  // initial + 5 syncs
}

TEST(QuantumKeeper, RoutesThroughStoredKernelNotAmbient) {
  // The keeper must consult the quantum of the kernel it was built for,
  // through that kernel's SyncDomain -- not whatever kernel happens to be
  // ambient (the keeper and the ambient kernel agree here, but the policy
  // object must be the stored one).
  Kernel k;
  k.set_global_quantum(100_ns);
  k.spawn_thread("t", [&] {
    QuantumKeeper qk(k);
    qk.inc(50_ns);
    EXPECT_FALSE(qk.need_sync());
    // Tighten the quantum through the same domain the keeper stores.
    qk.kernel().sync_domain().set_quantum(10_ns);
    EXPECT_TRUE(qk.need_sync());
  });
  k.run();
}

TEST(LocalTime, QuantumErrorScenario) {
  // Paper SII.A: a cancellation message sent at date T may be seen up to a
  // quantum late by a decoupled receiver. Demonstrates why FIFO channels
  // need the Smart FIFO rather than quantum-based decoupling.
  Kernel k;
  k.set_global_quantum(1_us);
  bool flag = false;
  Time observed_at;
  k.spawn_thread("setter", [&] {
    SyncDomain& sd = k.sync_domain();
    flag = true;
    sd.inc(10_ns);  // flag=1; inc(10ns); flag=0 from the paper
    sd.sync();
    flag = false;
  });
  k.spawn_thread("poller", [&] {
    QuantumKeeper qk(k);
    qk.inc_and_sync_if_needed(1_us);  // quantum-paced polling
    observed_at = k.sync_domain().local_time_stamp();
    // The 10ns flag pulse is invisible at quantum granularity.
    EXPECT_FALSE(flag);
  });
  k.run();
  EXPECT_GE(observed_at, 10_ns);
}

}  // namespace
}  // namespace tdsim
