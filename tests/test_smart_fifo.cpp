// Smart FIFO unit semantics (paper SIII.A): date stamping, local-time
// bumps, blocking only on internal full/empty, side ordering.
#include "core/smart_fifo.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "kernel/kernel.h"
#include "kernel/kernel_config.h"
#include "kernel/report.h"
#include "kernel/sync_domain.h"

namespace tdsim {
namespace {

TEST(SmartFifo, ZeroDepthRejected) {
  Kernel k;
  EXPECT_THROW(SmartFifo<int>(k, "f", 0), SimulationError);
}

TEST(SmartFifo, TransfersDataInOrder) {
  Kernel k;
  SmartFifo<int> f(k, "f", 4);
  std::vector<int> got;
  k.spawn_thread("wr", [&] {
    for (int i = 0; i < 10; ++i) {
      f.write(i);
      k.sync_domain().inc(10_ns);
    }
  });
  k.spawn_thread("rd", [&] {
    for (int i = 0; i < 10; ++i) {
      got.push_back(f.read());
      k.sync_domain().inc(10_ns);
    }
  });
  k.run();
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(got[i], i);
  }
}

TEST(SmartFifo, ReaderLocalDateBumpedToInsertionDate) {
  // Read step 2: "increase the reader process local time up to the
  // insertion date of the first busy cell".
  Kernel k;
  SmartFifo<int> f(k, "f", 4);
  Time reader_date;
  k.spawn_thread("wr", [&] {
    k.sync_domain().inc(30_ns);
    f.write(1);
  });
  k.spawn_thread("rd", [&] {
    (void)f.read();
    reader_date = k.sync_domain().local_time_stamp();
  });
  k.run();
  EXPECT_EQ(reader_date, 30_ns);
  // The writer executed first, so the data was internally present: the
  // reader never suspended -- only its local date was bumped.
  EXPECT_EQ(f.reader_blocks(), 0u);
  EXPECT_EQ(k.stats().context_switches, 2u);
}

TEST(SmartFifo, ReaderNotBumpedWhenDataAlreadyOld) {
  Kernel k;
  SmartFifo<int> f(k, "f", 4);
  Time reader_date;
  k.spawn_thread("wr", [&] { f.write(1); });  // inserted at 0
  k.spawn_thread("rd", [&] {
    k.sync_domain().inc(50_ns);
    (void)f.read();
    reader_date = k.sync_domain().local_time_stamp();
  });
  k.run();
  EXPECT_EQ(reader_date, 50_ns);
  EXPECT_EQ(f.reader_blocks(), 0u);
}

TEST(SmartFifo, WriterLocalDateBumpedToFreeingDate) {
  // Write step 2: the first free cell may have been freed "in the future";
  // the writer's local date must be raised to that freeing date.
  Kernel k;
  SmartFifo<int> f(k, "f", 1);
  Time second_write_date;
  k.spawn_thread("wr", [&] {
    f.write(1);   // insert @0
    k.sync_domain().inc(5_ns);
    f.write(2);   // cell freed @50 by the reader -> write lands at 50
    second_write_date = k.sync_domain().local_time_stamp();
  });
  k.spawn_thread("rd", [&] {
    k.sync_domain().inc(50_ns);
    (void)f.read();  // frees @50
    (void)f.read();
  });
  k.run();
  EXPECT_EQ(second_write_date, 50_ns);
}

TEST(SmartFifo, NoContextSwitchPerAccessWhenDepthSuffices) {
  // The headline property: a fully annotated transfer costs context
  // switches only at the internal full/empty boundaries, not per access.
  Kernel k;
  SmartFifo<int> f(k, "f", 1024);
  constexpr int kWords = 500;
  k.spawn_thread("wr", [&] {
    for (int i = 0; i < kWords; ++i) {
      f.write(i);
      k.sync_domain().inc(10_ns);
    }
  });
  k.spawn_thread("rd", [&] {
    for (int i = 0; i < kWords; ++i) {
      (void)f.read();
      k.sync_domain().inc(10_ns);
    }
  });
  k.run();
  // Writer runs to completion in its initial dispatch; reader likewise
  // (everything is buffered). Two context switches total.
  EXPECT_EQ(k.stats().context_switches, 2u);
  EXPECT_EQ(f.writer_blocks(), 0u);
  EXPECT_EQ(f.reader_blocks(), 0u);
}

TEST(SmartFifo, BlocksOnlyWhenInternallyFull) {
  Kernel k;
  SmartFifo<int> f(k, "f", 4);
  k.spawn_thread("wr", [&] {
    for (int i = 0; i < 12; ++i) {
      f.write(i);
      k.sync_domain().inc(1_ns);
    }
  });
  k.spawn_thread("rd", [&] {
    for (int i = 0; i < 12; ++i) {
      (void)f.read();
      k.sync_domain().inc(1_ns);
    }
  });
  k.run();
  // Writer fills 4 cells then suspends; reader drains 4 then suspends; etc.
  EXPECT_GT(f.writer_blocks(), 0u);
  EXPECT_LE(f.writer_blocks(), 3u);
}

TEST(SmartFifo, InternalSizeNeverExceedsDepth) {
  Kernel k;
  SmartFifo<int> f(k, "f", 3);
  k.spawn_thread("wr", [&] {
    for (int i = 0; i < 20; ++i) {
      EXPECT_LE(f.internal_size(), 3u);
      f.write(i);
    }
  });
  k.spawn_thread("rd", [&] {
    for (int i = 0; i < 20; ++i) {
      k.sync_domain().inc(5_ns);
      (void)f.read();
    }
  });
  k.run();
  EXPECT_EQ(f.internal_size(), 0u);
}

TEST(SmartFifo, Fig1TimingMatchesHandComputedReference) {
  // Paper Fig. 1 parameters: writer writes then waits 20 ns; reader waits
  // 15 ns then reads; depth 1. Reference dates: writes land at 0/20/40,
  // reads complete at 15/30/45.
  Kernel k;
  SmartFifo<int> f(k, "f", 1);
  std::vector<Time> write_dates, read_dates;
  k.spawn_thread("writer", [&] {
    for (int i = 1; i <= 3; ++i) {
      f.write(i);
      write_dates.push_back(k.sync_domain().local_time_stamp());
      k.sync_domain().inc(20_ns);
    }
  });
  k.spawn_thread("reader", [&] {
    for (int i = 1; i <= 3; ++i) {
      k.sync_domain().inc(15_ns);
      EXPECT_EQ(f.read(), i);
      read_dates.push_back(k.sync_domain().local_time_stamp());
    }
  });
  k.run();
  EXPECT_EQ(write_dates, (std::vector<Time>{0_ns, 20_ns, 40_ns}));
  EXPECT_EQ(read_dates, (std::vector<Time>{15_ns, 30_ns, 45_ns}));
}

TEST(SmartFifo, DecreasingWriteDatesAreAnError) {
  Kernel k;
  SmartFifo<int> f(k, "f", 4);
  k.spawn_thread("w1", [&] {
    k.sync_domain().inc(100_ns);
    f.write(1);
  });
  k.spawn_thread("w2", [&] {
    k.sync_domain().inc(10_ns);  // earlier date on the same side: needs an arbiter
    f.write(2);
  });
  k.spawn_thread("rd", [&] {
    (void)f.read();
    (void)f.read();
  });
  EXPECT_THROW(k.run(), SimulationError);
}

TEST(SmartFifo, DecreasingReadDatesAreAnError) {
  // The reader side is checked like the writer side: a second reader whose
  // local date lies before the first one's last read needs an arbiter.
  Kernel k;
  SmartFifo<int> f(k, "f", 4);
  k.spawn_thread("wr", [&] {
    f.write(1);
    f.write(2);
  });
  k.spawn_thread("r1", [&] {
    k.sync_domain().inc(100_ns);
    (void)f.read();
  });
  k.spawn_thread("r2", [&] {
    k.sync_domain().inc(10_ns);
    (void)f.read();
  });
  EXPECT_THROW(k.run(), SimulationError);
}

TEST(SmartFifo, DataPathOutsideAProcessOfItsKernelIsAnError) {
  // There is no local date to stamp from elaboration, nor from a process
  // that belongs to another kernel.
  Kernel k;
  SmartFifo<int> f(k, "f", 4);
  EXPECT_THROW(f.write(1), SimulationError);
  EXPECT_THROW((void)f.read(), SimulationError);
  EXPECT_EQ(f.total_writes(), 0u);

  Kernel other_writer;
  other_writer.spawn_thread("foreign_wr", [&] { f.write(1); });
  EXPECT_THROW(other_writer.run(), SimulationError);
  EXPECT_EQ(f.total_writes(), 0u);

  Kernel other_reader;
  other_reader.spawn_thread("foreign_rd", [&] { (void)f.read(); });
  EXPECT_THROW(other_reader.run(), SimulationError);
  EXPECT_EQ(f.total_reads(), 0u);
}

TEST(SmartFifo, SideOrderCheckCanBeDisabled) {
  Kernel k;
  SmartFifo<int> f(k, "f", 4);
  f.set_side_order_checking(false);
  k.spawn_thread("w1", [&] {
    k.sync_domain().inc(100_ns);
    f.write(1);
  });
  k.spawn_thread("w2", [&] {
    k.sync_domain().inc(10_ns);
    f.write(2);
  });
  k.spawn_thread("rd", [&] {
    (void)f.read();
    (void)f.read();
  });
  k.run();  // no throw
}

TEST(SmartFifo, EqualDatesOnSameSideAllowed) {
  Kernel k;
  SmartFifo<int> f(k, "f", 4);
  k.spawn_thread("wr", [&] {
    f.write(1);
    f.write(2);  // same local date: allowed (dates must not *decrease*)
  });
  k.spawn_thread("rd", [&] {
    (void)f.read();
    (void)f.read();
  });
  k.run();
}

TEST(SmartFifo, BurstWriteAdvancesPerWord) {
  Kernel k;
  SmartFifo<int> f(k, "f", 16);
  std::vector<int> words{1, 2, 3, 4};
  Time writer_end;
  std::vector<Time> read_dates;
  k.spawn_thread("wr", [&] {
    f.write_burst(words.begin(), words.end(), 10_ns);
    writer_end = k.sync_domain().local_time_stamp();
  });
  k.spawn_thread("rd", [&] {
    for (int i = 0; i < 4; ++i) {
      (void)f.read();
      read_dates.push_back(k.sync_domain().local_time_stamp());
    }
  });
  k.run();
  EXPECT_EQ(writer_end, 40_ns);
  // Words were inserted at 0/10/20/30; a fast reader sees those dates.
  EXPECT_EQ(read_dates, (std::vector<Time>{0_ns, 10_ns, 20_ns, 30_ns}));
}

TEST(SmartFifo, BurstReadCollectsWords) {
  Kernel k;
  SmartFifo<int> f(k, "f", 16);
  std::vector<int> got;
  k.spawn_thread("wr", [&] {
    for (int i = 1; i <= 6; ++i) {
      f.write(i);
      k.sync_domain().inc(5_ns);
    }
  });
  k.spawn_thread("rd", [&] {
    got.resize(6);
    f.read_burst(got.begin(), 6, 2_ns);
  });
  k.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(SmartFifo, CountersTrackTraffic) {
  Kernel k;
  SmartFifo<int> f(k, "f", 2);
  k.spawn_thread("wr", [&] {
    for (int i = 0; i < 7; ++i) {
      f.write(i);
    }
  });
  k.spawn_thread("rd", [&] {
    for (int i = 0; i < 7; ++i) {
      k.sync_domain().inc(1_ns);
      (void)f.read();
    }
  });
  k.run();
  EXPECT_EQ(f.total_writes(), 7u);
  EXPECT_EQ(f.total_reads(), 7u);
  EXPECT_EQ(f.depth(), 2u);
}

TEST(SmartFifo, ChainOfTwoFifosPreservesDates) {
  // source -> transmitter -> sink, the Fig. 5 topology in miniature.
  Kernel k;
  SmartFifo<int> f1(k, "f1", 2);
  SmartFifo<int> f2(k, "f2", 2);
  std::vector<Time> sink_dates;
  k.spawn_thread("source", [&] {
    for (int i = 0; i < 5; ++i) {
      f1.write(i);
      k.sync_domain().inc(10_ns);
    }
  });
  k.spawn_thread("transmitter", [&] {
    for (int i = 0; i < 5; ++i) {
      int v = f1.read();
      k.sync_domain().inc(4_ns);  // processing latency
      f2.write(v);
    }
  });
  k.spawn_thread("sink", [&] {
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(f2.read(), i);
      sink_dates.push_back(k.sync_domain().local_time_stamp());
      k.sync_domain().inc(10_ns);
    }
  });
  k.run();
  // Item i leaves the source at 10*i, spends 4 ns in the transmitter, and
  // the sink (also on a 10 ns cadence) picks it up at max(10*i+4, ...).
  EXPECT_EQ(sink_dates,
            (std::vector<Time>{4_ns, 14_ns, 24_ns, 34_ns, 44_ns}));
}

TEST(SmartFifo, WriterSyncsBeforeBlocking) {
  // Step 1 of write: "synchronize the writer process and wait". The sync
  // guarantees that wake-up dates can never be earlier than the writer's
  // intended access date.
  Kernel k;
  SmartFifo<int> f(k, "f", 1);
  Time unblock_date;
  k.spawn_thread("wr", [&] {
    f.write(1);
    k.sync_domain().inc(100_ns);
    f.write(2);  // blocks; cell freed by the reader at 60 < 100
    unblock_date = k.sync_domain().local_time_stamp();
  });
  k.spawn_thread("rd", [&] {
    k.sync_domain().inc(60_ns);
    k.sync_domain().sync();      // execute the read *after* the writer blocked
    (void)f.read();  // frees at 60
    (void)f.read();
  });
  k.run();
  // The real FIFO had space at 60; the writer wanted to write at 100, so
  // the write must land at 100, not at the wake-up date.
  EXPECT_EQ(unblock_date, 100_ns);
}

TEST(SmartFifo, MoveOnlyPayloadSupported) {
  Kernel k;
  SmartFifo<std::unique_ptr<int>> f(k, "f", 2);
  int got = 0;
  k.spawn_thread("wr", [&] { f.write(std::make_unique<int>(11)); });
  k.spawn_thread("rd", [&] { got = *f.read(); });
  k.run();
  EXPECT_EQ(got, 11);
}

// ---------------------------------------------------------------------
// Pinned per-element counts. Dates alone do not pin a per-element Smart
// FIFO (capacity 0 or 1): how it publishes also decides how many delta
// cycles, timed waves, event triggers, context switches and per-cause
// syncs a run takes, and how often each side blocks. These models pin
// those exact values, so a change in how a capacity-1 channel publishes
// shows up here even when every date still matches.
// ---------------------------------------------------------------------

struct PinnedCounts {
  std::uint64_t delta_cycles = 0;
  std::uint64_t timed_waves = 0;
  std::uint64_t event_triggers = 0;
  std::uint64_t context_switches = 0;
  /// One entry per domain, in creation order (the default domain first),
  /// each indexed by SyncCause.
  std::vector<std::array<std::uint64_t, kSyncCauseCount>> syncs_by_cause;
  std::uint64_t writer_blocks = 0;
  std::uint64_t reader_blocks = 0;
};

/// Explicit on every knob that moves counts, so the pins hold whatever
/// TDSIM_* variables the suite runs under.
KernelConfig per_element_config(std::size_t workers = 0) {
  return KernelConfig{.workers = workers,
                      .default_chunk_capacity = 0,
                      .adaptive_quantum = false,
                      .lookahead_limit = 64};
}

PinnedCounts capture_counts(const Kernel& k,
                            const std::vector<const SmartFifo<int>*>& fifos) {
  PinnedCounts counts;
  const KernelStats& stats = k.stats();
  counts.delta_cycles = stats.delta_cycles;
  counts.timed_waves = stats.timed_waves;
  counts.event_triggers = stats.event_triggers;
  counts.context_switches = stats.context_switches;
  for (const DomainStats& domain : stats.domains) {
    counts.syncs_by_cause.push_back(domain.syncs_by_cause);
  }
  for (const SmartFifo<int>* fifo : fifos) {
    counts.writer_blocks += fifo->writer_blocks();
    counts.reader_blocks += fifo->reader_blocks();
  }
  return counts;
}

void expect_counts(const PinnedCounts& got, const PinnedCounts& want,
                   const std::string& what) {
  EXPECT_EQ(got.delta_cycles, want.delta_cycles) << what;
  EXPECT_EQ(got.timed_waves, want.timed_waves) << what;
  EXPECT_EQ(got.event_triggers, want.event_triggers) << what;
  EXPECT_EQ(got.context_switches, want.context_switches) << what;
  EXPECT_EQ(got.syncs_by_cause, want.syncs_by_cause) << what;
  EXPECT_EQ(got.writer_blocks, want.writer_blocks) << what;
  EXPECT_EQ(got.reader_blocks, want.reader_blocks) << what;
}

/// Paper Fig. 1: writer writes then waits 20 ns, reader waits 15 ns then
/// reads, depth 1.
PinnedCounts run_fig1_pair(std::size_t capacity) {
  Kernel k(per_element_config());
  SmartFifo<int> f(k, "f", 1);
  f.set_chunk_capacity(capacity);
  k.spawn_thread("writer", [&] {
    for (int i = 1; i <= 3; ++i) {
      f.write(i);
      k.sync_domain().inc(20_ns);
    }
  });
  k.spawn_thread("reader", [&] {
    for (int i = 1; i <= 3; ++i) {
      k.sync_domain().inc(15_ns);
      EXPECT_EQ(f.read(), i);
    }
  });
  k.run();
  return capture_counts(k, {&f});
}

/// source -> transmitter -> sink over two FIFOs of `depth` cells, in a
/// 30 ns quantum the source honors. The sink is a synchronized observer
/// using the guarded is_empty()/not_empty_event() pattern, so the delayed
/// external-view events count too, and a decoupled monitor polls
/// get_size() on the first FIFO.
PinnedCounts run_three_stage_pipeline(std::size_t depth,
                                      std::size_t capacity) {
  Kernel k(per_element_config());
  k.sync_domain().set_quantum(30_ns);
  SmartFifo<int> f1(k, "f1", depth);
  SmartFifo<int> f2(k, "f2", depth);
  f1.set_chunk_capacity(capacity);
  f2.set_chunk_capacity(capacity);
  constexpr int kItems = 25;
  k.spawn_thread("source", [&] {
    for (int i = 0; i < kItems; ++i) {
      f1.write(i);
      k.sync_domain().inc_and_sync_if_needed(10_ns);
    }
  });
  k.spawn_thread("transmitter", [&] {
    for (int i = 0; i < kItems; ++i) {
      const int v = f1.read();
      k.sync_domain().inc(4_ns);
      f2.write(v);
    }
  });
  k.spawn_thread("sink", [&] {
    for (int i = 0; i < kItems; ++i) {
      while (f2.is_empty()) {
        k.wait(f2.not_empty_event());
      }
      EXPECT_EQ(f2.read(), i);
      k.wait(11_ns);
    }
  });
  k.spawn_thread("monitor", [&] {
    for (int i = 0; i < 8; ++i) {
      k.sync_domain().inc(37_ns);
      (void)f1.get_size();
    }
  });
  k.run();
  return capture_counts(k, {&f1, &f2});
}

/// Two producer/consumer clusters, each across two concurrent domains
/// with different quanta (the test_chunked_fifo shape): under workers the
/// clusters free-run past the global horizon on the pool.
PinnedCounts run_cross_domain_pairs(std::size_t workers,
                                    std::size_t capacity) {
  Kernel k(per_element_config(workers));
  std::vector<std::unique_ptr<SmartFifo<int>>> fifos;
  for (int c = 0; c < 2; ++c) {
    const std::string suffix = std::to_string(c);
    SyncDomain& producer_side = k.create_domain(
        {.name = "xp" + suffix, .quantum = 40_ns, .concurrent = true});
    SyncDomain& consumer_side = k.create_domain(
        {.name = "xc" + suffix, .quantum = 300_ns, .concurrent = true});
    fifos.push_back(std::make_unique<SmartFifo<int>>(k, "xf" + suffix, 3));
    SmartFifo<int>& fifo = *fifos.back();
    fifo.set_chunk_capacity(capacity);
    fifo.declare_cell_latency(40_ns);
    ThreadOptions popts;
    popts.domain = &producer_side;
    k.spawn_thread("producer" + suffix, [&k, &fifo, c] {
      for (int i = 0; i < 40; ++i) {
        k.current_domain().inc((i % 5 + 1 + c) * 3_ns);
        fifo.write(i);
      }
    }, popts);
    ThreadOptions copts;
    copts.domain = &consumer_side;
    k.spawn_thread("consumer" + suffix, [&k, &fifo, c] {
      for (int i = 0; i < 40; ++i) {
        EXPECT_EQ(fifo.read(), i);
        k.current_domain().inc((i % 3 + 1 + c) * 4_ns);
      }
    }, copts);
  }
  k.run();
  return capture_counts(k, {fifos[0].get(), fifos[1].get()});
}

// Capacity 0 is the constructor default under per_element_config(); 1 is
// the explicit per-element setting. Both must give the same counts.

TEST(SmartFifoPinnedCounts, Fig1Pair) {
  const PinnedCounts want{
      .delta_cycles = 10,
      .timed_waves = 5,
      .event_triggers = 12,
      .context_switches = 6,
      .syncs_by_cause = {{0, 0, 2, 2, 0, 0, 0}},
      .writer_blocks = 2,
      .reader_blocks = 2};
  for (std::size_t capacity : {0u, 1u}) {
    expect_counts(run_fig1_pair(capacity), want,
                  "capacity=" + std::to_string(capacity));
  }
}

TEST(SmartFifoPinnedCounts, ThreeStagePipelineDepth1) {
  const PinnedCounts want{
      .delta_cycles = 158,
      .timed_waves = 77,
      .event_triggers = 200,
      .context_switches = 117,
      .syncs_by_cause = {{0, 0, 41, 8, 0, 8, 0}},
      .writer_blocks = 41,
      .reader_blocks = 17};
  for (std::size_t capacity : {0u, 1u}) {
    expect_counts(run_three_stage_pipeline(1, capacity), want,
                  "capacity=" + std::to_string(capacity));
  }
}

TEST(SmartFifoPinnedCounts, ThreeStagePipelineDepth4) {
  const PinnedCounts want{
      .delta_cycles = 101,
      .timed_waves = 59,
      .event_triggers = 85,
      .context_switches = 62,
      .syncs_by_cause = {{0, 8, 1, 7, 0, 8, 0}},
      .writer_blocks = 1,
      .reader_blocks = 8};
  for (std::size_t capacity : {0u, 1u}) {
    expect_counts(run_three_stage_pipeline(4, capacity), want,
                  "capacity=" + std::to_string(capacity));
  }
}

TEST(SmartFifoPinnedCounts, CrossDomainPairsAtWorkers0And2) {
  const PinnedCounts want{
      .delta_cycles = 119,
      .timed_waves = 69,
      .event_triggers = 133,
      .context_switches = 59,
      .syncs_by_cause = {{0, 0, 0, 0, 0, 0, 0},
                         {0, 0, 13, 0, 0, 0, 0},
                         {0, 0, 0, 13, 0, 0, 0},
                         {0, 0, 13, 0, 0, 0, 0},
                         {0, 0, 0, 13, 0, 0, 0}},
      .writer_blocks = 26,
      .reader_blocks = 26};
  for (std::size_t workers : {0u, 2u}) {
    for (std::size_t capacity : {0u, 1u}) {
      expect_counts(run_cross_domain_pairs(workers, capacity), want,
                    "workers=" + std::to_string(workers) +
                        " capacity=" + std::to_string(capacity));
    }
  }
}

}  // namespace
}  // namespace tdsim
