// Chunked publication (core/smart_fifo.h): cross-domain SmartFifo
// transfer under lookahead free-running stays bit-exact with per-element
// publication and with itself across worker counts, mid-run capacity
// changes are clean -- also while the peer is suspended in a blocking
// call -- partial chunks flush at horizons and at run() exit, and the
// reference channels (SyncFifo, Fifo) ignore the kernel's chunk default:
// they have no capacity, so every count stays the per-access one.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/smart_fifo.h"
#include "core/sync_fifo.h"
#include "kernel/fifo.h"
#include "kernel/kernel.h"
#include "kernel/kernel_config.h"
#include "kernel/sync_domain.h"

namespace tdsim {
namespace {

/// What must not move between chunked and per-element mode: every date
/// and every blocking decision. (Delta-cycle and notification counts do
/// legitimately shrink with batching, so they are compared only across
/// worker counts within one mode, never across modes.)
struct DateTrace {
  Time end;
  std::uint64_t writer_blocks = 0;
  std::uint64_t reader_blocks = 0;
  std::vector<Time> dates;
};

void expect_dates_equal(const DateTrace& a, const DateTrace& b,
                        const std::string& what) {
  EXPECT_EQ(a.end, b.end) << what;
  EXPECT_EQ(a.writer_blocks, b.writer_blocks) << what;
  EXPECT_EQ(a.reader_blocks, b.reader_blocks) << what;
  EXPECT_EQ(a.dates, b.dates) << what;
}

/// The scheduler-level fingerprint that must be identical across worker
/// counts within one mode (chunked or not): the parallel schedule may
/// never change what the sequential one computes.
struct SchedulerTrace {
  std::uint64_t delta_cycles = 0;
  std::uint64_t timed_waves = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t event_triggers = 0;
  std::uint64_t lookahead_advances = 0;
};

struct ClusterRun {
  DateTrace dates;
  SchedulerTrace sched;
};

/// Independent producer/consumer clusters, one cross-domain SmartFifo
/// each (the test_lookahead shape): groups free-run past the global
/// horizon, so chunk flushes happen inside lookahead extensions as well
/// as in the main loop. `chunk_capacity` 1 pins per-element mode even
/// when the TDSIM_CHUNKED env default is active, making the reference
/// side of the comparisons environment-proof.
ClusterRun run_clusters(std::size_t workers, std::size_t chunk_capacity,
                        std::size_t writes_per_cluster = 40,
                        std::size_t switch_capacity_at = 0) {
  Kernel k;
  k.set_workers(workers);
  k.set_lookahead_limit(64);
  struct Cluster {
    SyncDomain* producer_side;
    SyncDomain* consumer_side;
    std::unique_ptr<SmartFifo<int>> fifo;
    std::vector<Time> dates;
  };
  constexpr std::size_t kClusters = 3;
  std::vector<Cluster> clusters(kClusters);
  for (std::size_t c = 0; c < kClusters; ++c) {
    Cluster& cluster = clusters[c];
    const std::string suffix = std::to_string(c);
    cluster.producer_side = &k.create_domain(
        {.name = "chp" + suffix, .quantum = 40_ns, .concurrent = true});
    cluster.consumer_side = &k.create_domain(
        {.name = "chc" + suffix, .quantum = 300_ns, .concurrent = true});
    cluster.fifo = std::make_unique<SmartFifo<int>>(k, "chf" + suffix, 3);
    cluster.fifo->set_chunk_capacity(chunk_capacity);
    cluster.fifo->declare_cell_latency(40_ns);
    ThreadOptions popts;
    popts.domain = cluster.producer_side;
    k.spawn_thread("producer" + suffix,
                   [&k, &cluster, c, writes_per_cluster, switch_capacity_at,
                    chunk_capacity] {
      for (std::size_t i = 0; i < writes_per_cluster; ++i) {
        if (switch_capacity_at != 0 && i == switch_capacity_at) {
          // Mid-run mode switch from a process serialized with both
          // sides: element -> chunked on even clusters, chunked ->
          // element on odd ones (both directions must be clean).
          cluster.fifo->set_chunk_capacity(
              c % 2 == 0 ? chunk_capacity : 1);
        }
        k.current_domain().inc(
            (i % 5 + 1 + static_cast<int>(c)) * 3_ns);
        cluster.fifo->write(static_cast<int>(i));
      }
    }, popts);
    ThreadOptions copts;
    copts.domain = cluster.consumer_side;
    k.spawn_thread("consumer" + suffix,
                   [&k, &cluster, c, writes_per_cluster] {
      for (std::size_t i = 0; i < writes_per_cluster; ++i) {
        const int v = cluster.fifo->read();
        k.current_domain().inc((i % 3 + 1 + static_cast<int>(c)) * 4_ns);
        cluster.dates.push_back(k.current_domain().local_time_stamp());
        if (v != static_cast<int>(i)) {
          cluster.dates.push_back(Time::max());  // corruption marker
        }
      }
    }, copts);
  }
  k.run();
  ClusterRun result;
  result.dates.end = k.now();
  const KernelStats& stats = k.stats();
  result.sched.delta_cycles = stats.delta_cycles;
  result.sched.timed_waves = stats.timed_waves;
  result.sched.context_switches = stats.context_switches;
  result.sched.event_triggers = stats.event_triggers;
  result.sched.lookahead_advances = stats.lookahead_advances;
  for (Cluster& cluster : clusters) {
    result.dates.writer_blocks += cluster.fifo->writer_blocks();
    result.dates.reader_blocks += cluster.fifo->reader_blocks();
    result.dates.dates.insert(result.dates.dates.end(),
                              cluster.dates.begin(), cluster.dates.end());
  }
  return result;
}

TEST(ChunkedFifo, ChunkedDatesMatchPerElementMode) {
  const ClusterRun element = run_clusters(0, 1);
  for (std::size_t capacity : {2u, 5u, 16u, 64u}) {
    const ClusterRun chunked = run_clusters(0, capacity);
    expect_dates_equal(element.dates, chunked.dates,
                       "capacity=" + std::to_string(capacity));
  }
}

TEST(ChunkedFifo, ChunkedBitExactAcrossWorkersUnderFreeRun) {
  const ClusterRun sequential = run_clusters(0, 16);
  EXPECT_EQ(sequential.sched.lookahead_advances, 0u);
  for (std::size_t workers : {1u, 2u, 4u}) {
    const ClusterRun parallel = run_clusters(workers, 16);
    const std::string what = "workers=" + std::to_string(workers);
    expect_dates_equal(sequential.dates, parallel.dates, what);
    EXPECT_EQ(sequential.sched.delta_cycles, parallel.sched.delta_cycles)
        << what;
    EXPECT_EQ(sequential.sched.timed_waves, parallel.sched.timed_waves)
        << what;
    EXPECT_EQ(sequential.sched.context_switches,
              parallel.sched.context_switches)
        << what;
    EXPECT_EQ(sequential.sched.event_triggers, parallel.sched.event_triggers)
        << what;
    if (workers >= 2) {
      // The chunked clusters must actually have free-run past the global
      // horizon (flushing partial chunks inside the extensions), not
      // fallen back to the barrier.
      EXPECT_GT(parallel.sched.lookahead_advances, 0u) << what;
    }
  }
}

/// One side changes the FIFO's capacity from `from` to `to` while the
/// other side is suspended in a blocking call: the reader while the
/// writer waits on a full FIFO, or the writer while the reader waits on
/// an empty one. The switching side is the slow one, so its peer keeps
/// running into the blocking path; the switch happens at the first
/// access from kSwitchAt on that finds the peer inside its call, and the
/// switching side then synchronizes.
struct SuspendedSwitchRun {
  DateTrace dates;
  bool switched = false;
  /// The peer's block counter had moved inside the very call it was
  /// suspended in when the capacity changed.
  bool peer_blocked_in_call = false;
};

SuspendedSwitchRun run_switch_while_peer_suspended(std::size_t from,
                                                   std::size_t to,
                                                   bool reader_switches) {
  constexpr int kItems = 30;
  constexpr int kSwitchAt = 10;
  Kernel k;
  SmartFifo<int> fifo(k, "suspended_switch", 4);
  fifo.set_chunk_capacity(from);
  SuspendedSwitchRun run;
  std::vector<Time> writer_dates;
  std::vector<Time> reader_dates;
  bool writer_in_call = false;
  bool reader_in_call = false;
  std::uint64_t blocks_at_call = 0;
  const Time fast = 2_ns;
  const Time slow = 20_ns;
  const auto maybe_switch = [&](int i, bool peer_in_call,
                                std::uint64_t peer_blocks) {
    if (run.switched || i < kSwitchAt || !peer_in_call) {
      return;
    }
    run.peer_blocked_in_call = peer_blocks == blocks_at_call + 1;
    fifo.set_chunk_capacity(to);
    run.switched = true;
    // Suspend right after the change: a span the change failed to
    // publish would leave the peer asleep until this side's next access.
    k.sync_domain().sync();
  };
  k.spawn_thread("writer", [&] {
    for (int i = 0; i < kItems; ++i) {
      k.sync_domain().inc(reader_switches ? fast : slow);
      if (reader_switches) {
        blocks_at_call = fifo.writer_blocks();
      } else {
        maybe_switch(i, reader_in_call, fifo.reader_blocks());
      }
      writer_in_call = true;
      fifo.write(i);
      writer_in_call = false;
      writer_dates.push_back(k.sync_domain().local_time_stamp());
    }
  });
  k.spawn_thread("reader", [&] {
    for (int i = 0; i < kItems; ++i) {
      k.sync_domain().inc(reader_switches ? slow : fast);
      if (reader_switches) {
        maybe_switch(i, writer_in_call, fifo.writer_blocks());
      } else {
        blocks_at_call = fifo.reader_blocks();
      }
      reader_in_call = true;
      const int v = fifo.read();
      reader_in_call = false;
      reader_dates.push_back(v == i ? k.sync_domain().local_time_stamp()
                                    : Time::max());
    }
  });
  k.run();
  // dates.end stays unset: nothing observes the external-view events
  // here, so the kernel's end date may follow an unobserved re-arm that
  // a larger chunk schedules differently (see core/smart_fifo.h). Every
  // data-path date is recorded above.
  run.dates.dates = writer_dates;
  run.dates.dates.insert(run.dates.dates.end(), reader_dates.begin(),
                         reader_dates.end());
  run.dates.writer_blocks = fifo.writer_blocks();
  run.dates.reader_blocks = fifo.reader_blocks();
  return run;
}

TEST(ChunkedFifo, MidRunCapacitySwitchKeepsDatesExact) {
  const ClusterRun element = run_clusters(0, 1);
  for (std::size_t workers : {0u, 2u}) {
    const ClusterRun switched =
        run_clusters(workers, 16, 40, /*switch_capacity_at=*/20);
    expect_dates_equal(element.dates, switched.dates,
                       "mid-run switch, workers=" + std::to_string(workers));
  }
  // The same switches while the peer is suspended in a blocking call:
  // it resumes under the new capacity, with every date and block count
  // still those of per-element publication.
  struct Switch {
    std::size_t from, to;
  };
  for (bool reader_switches : {true, false}) {
    const SuspendedSwitchRun reference =
        run_switch_while_peer_suspended(1, 1, reader_switches);
    for (const Switch sw : {Switch{16, 1}, Switch{1, 16}, Switch{16, 4}}) {
      const std::string what =
          std::string(reader_switches ? "reader" : "writer") +
          " switches " + std::to_string(sw.from) + "->" +
          std::to_string(sw.to) + " with the peer suspended";
      const SuspendedSwitchRun run =
          run_switch_while_peer_suspended(sw.from, sw.to, reader_switches);
      ASSERT_TRUE(run.switched) << what;
      EXPECT_TRUE(run.peer_blocked_in_call) << what;
      expect_dates_equal(reference.dates, run.dates, what);
    }
  }
}

TEST(ChunkedFifo, PartialChunksFlushAtHorizonsAndRunExit) {
  // 37 writes with capacity 64: no write ever reaches a chunk boundary,
  // so every element the consumer sees was published by a flush point
  // (cascade iterations, lookahead waves, or the blocking paths). The
  // run completing with exact dates is the assertion -- an unflushed
  // chunk would leave the consumer suspended forever.
  const ClusterRun element = run_clusters(0, 1, 37);
  for (std::size_t workers : {0u, 2u}) {
    const ClusterRun chunked = run_clusters(workers, 64, 37);
    expect_dates_equal(element.dates, chunked.dates,
                       "partial chunks, workers=" + std::to_string(workers));
  }
}

/// chunk_capacity() is 0 on a per-element SmartFifo -- capacity 0 and 1
/// are the same publication rule -- and the capacity otherwise, whether
/// it came from the kernel default or from set_chunk_capacity.
TEST(ChunkedFifo, PerElementChannelsReportCapacityZero) {
  for (std::size_t kernel_default : {0u, 1u, 16u}) {
    Kernel k(KernelConfig{.default_chunk_capacity = kernel_default});
    SmartFifo<int> smart(k, "cap_smart", 4);
    const std::size_t want = kernel_default >= 2 ? kernel_default : 0;
    const std::string what = "default=" + std::to_string(kernel_default);
    EXPECT_EQ(smart.chunk_capacity(), want) << what;
    for (std::size_t capacity : {1u, 8u, 0u}) {
      smart.set_chunk_capacity(capacity);
      const std::size_t now = capacity >= 2 ? capacity : 0;
      EXPECT_EQ(smart.chunk_capacity(), now) << what;
    }
  }
}

/// What a reference channel's run must keep whatever the kernel's chunk
/// default: every date, the switch and delta counts, and the sync books.
struct ReferenceRun {
  Time end;
  std::uint64_t context_switches = 0;
  std::uint64_t delta_cycles = 0;
  std::uint64_t event_triggers = 0;
  std::uint64_t sync_requests = 0;
  std::uint64_t syncs_performed = 0;
  std::uint64_t syncs_explicit = 0;
  std::vector<int> order;
};

/// Two-domain SyncFifo transfer: every access synchronizes and books its
/// sync, so the reference model's sync count stays the per-access
/// baseline the Smart FIFO is measured against.
ReferenceRun run_sync_fifo(std::size_t chunk_default) {
  Kernel k(KernelConfig{.default_chunk_capacity = chunk_default});
  SyncDomain& prod = k.create_domain({.name = "sfp", .quantum = 100_ns});
  SyncDomain& cons = k.create_domain({.name = "sfc", .quantum = 100_ns});
  SyncFifo<int> fifo(k, "sf_ref", 4);
  ReferenceRun run;
  ThreadOptions popts;
  popts.domain = &prod;
  k.spawn_thread("sf_writer", [&] {
    for (int i = 0; i < 200; ++i) {
      k.current_domain().inc(7_ns);
      fifo.write(i);
    }
  }, popts);
  ThreadOptions copts;
  copts.domain = &cons;
  k.spawn_thread("sf_reader", [&] {
    for (int i = 0; i < 200; ++i) {
      run.order.push_back(fifo.read());
      k.current_domain().inc(9_ns);
    }
  }, copts);
  k.run();
  const KernelStats& stats = k.stats();
  run.end = k.now();
  run.context_switches = stats.context_switches;
  run.delta_cycles = stats.delta_cycles;
  run.sync_requests = stats.sync_requests;
  run.syncs_performed = stats.syncs_performed();
  run.syncs_explicit = stats.syncs(SyncCause::Explicit);
  return run;
}

/// Untimed kernel Fifo transfer: every access delta-notifies its event.
ReferenceRun run_plain_fifo(std::size_t chunk_default) {
  Kernel k(KernelConfig{.default_chunk_capacity = chunk_default});
  Fifo<int> fifo(k, "pf_ref", 4);
  ReferenceRun run;
  k.spawn_thread("pf_writer", [&] {
    for (int i = 0; i < 100; ++i) {
      fifo.write(i);
      k.wait(3_ns);
    }
  });
  k.spawn_thread("pf_reader", [&] {
    for (int i = 0; i < 100; ++i) {
      run.order.push_back(fifo.read());
      k.wait(5_ns);
    }
  });
  k.run();
  run.end = k.now();
  run.delta_cycles = k.stats().delta_cycles;
  run.event_triggers = k.stats().event_triggers;
  return run;
}

TEST(ChunkedFifo, ReferenceFifosIgnoreTheChunkDefault) {
  std::vector<int> expected_order(200);
  for (int i = 0; i < 200; ++i) {
    expected_order[i] = i;
  }
  const ReferenceRun sync_element = run_sync_fifo(0);
  const ReferenceRun sync_chunked = run_sync_fifo(16);
  EXPECT_EQ(sync_element.order, expected_order);
  EXPECT_EQ(sync_chunked.order, expected_order);
  EXPECT_EQ(sync_element.end, sync_chunked.end);
  EXPECT_EQ(sync_element.context_switches, sync_chunked.context_switches);
  EXPECT_EQ(sync_element.delta_cycles, sync_chunked.delta_cycles);
  EXPECT_EQ(sync_element.sync_requests, sync_chunked.sync_requests);
  EXPECT_EQ(sync_element.syncs_performed, sync_chunked.syncs_performed);
  EXPECT_EQ(sync_element.syncs_explicit, sync_chunked.syncs_explicit);
  // One request per access (200 writes + 200 reads): none is batched.
  EXPECT_EQ(sync_chunked.sync_requests, 400u);

  expected_order.resize(100);
  const ReferenceRun plain_element = run_plain_fifo(0);
  const ReferenceRun plain_chunked = run_plain_fifo(16);
  EXPECT_EQ(plain_element.order, expected_order);
  EXPECT_EQ(plain_chunked.order, expected_order);
  EXPECT_EQ(plain_element.end, plain_chunked.end);
  EXPECT_EQ(plain_element.delta_cycles, plain_chunked.delta_cycles);
  EXPECT_EQ(plain_element.event_triggers, plain_chunked.event_triggers);
}

}  // namespace
}  // namespace tdsim
