// Kernel::build / snapshot / fork (kernel/snapshot.h): restart-from-log
// checkpointing. A kernel whose elaboration is routed through build()
// steps can be snapshotted after an arbitrary warm-up and forked into
// divergent variants, each bit-identical to a cold kernel constructed the
// same way -- the fleet primitive behind fleet::Supervisor.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/smart_fifo.h"
#include "kernel/kernel.h"
#include "kernel/report.h"
#include "kernel/snapshot.h"
#include "kernel/sync_domain.h"

namespace tdsim {
namespace {

/// Per-kernel model state for replayable builds: every build step resolves
/// its kernel's own slot here, so a replay into a forked kernel constructs
/// fresh state instead of touching the original's (std::map nodes are
/// address-stable, which the spawned lambdas rely on). State is kept per
/// pipeline tag -- each tag is its own concurrency group, and groups may
/// execute on different workers mid-run. Channels reference their kernel
/// in their destructors, so a kernel's slot must be dropped (drop())
/// before that kernel dies.
struct TagState {
  std::unique_ptr<SmartFifo<int>> fifo;
  std::vector<Time> dates;
  std::uint32_t checksum = 0;
};

struct Model {
  std::map<std::string, TagState> tags;

  std::vector<Time> dates() const {
    std::vector<Time> all;
    for (const auto& [tag, state] : tags) {
      all.insert(all.end(), state.dates.begin(), state.dates.end());
    }
    return all;
  }

  std::vector<std::uint32_t> checksums() const {
    std::vector<std::uint32_t> all;
    for (const auto& [tag, state] : tags) {
      all.push_back(state.checksum);
    }
    return all;
  }
};

struct ModelRegistry {
  std::map<const Kernel*, Model> slots;
  Model& of(const Kernel& k) { return slots[&k]; }
  void drop(const Kernel& k) { slots.erase(&k); }
};

/// One replayable build step: a producer/consumer pair over a Smart FIFO
/// in two concurrent domains. `tag` keeps names unique so the step can be
/// applied repeatedly (e.g. as a diverge step) to one kernel.
void build_pipeline(Kernel& k, ModelRegistry& models, const std::string& tag,
                    int words) {
  k.build([&models, tag, words](Kernel& kk) {
    TagState& state = models.of(kk).tags[tag];
    SyncDomain& prod = kk.create_domain(
        {.name = tag + "_prod", .quantum = 40_ns, .concurrent = true});
    SyncDomain& cons = kk.create_domain(
        {.name = tag + "_cons", .quantum = 300_ns, .concurrent = true});
    state.fifo = std::make_unique<SmartFifo<int>>(kk, tag + "_fifo", 3);
    SmartFifo<int>* fifo = state.fifo.get();
    ThreadOptions popts;
    popts.domain = &prod;
    kk.spawn_thread(tag + "_producer", [&kk, fifo, words] {
      for (int i = 0; i < words; ++i) {
        kk.current_domain().inc((i % 5 + 1) * 3_ns);
        fifo->write(i);
      }
    }, popts);
    ThreadOptions copts;
    copts.domain = &cons;
    kk.spawn_thread(tag + "_consumer", [&kk, fifo, &state, words] {
      for (int i = 0; i < words; ++i) {
        state.checksum = state.checksum * 31 +
                         static_cast<std::uint32_t>(fifo->read());
        kk.current_domain().inc((i % 3 + 1) * 4_ns);
        state.dates.push_back(kk.current_domain().local_time_stamp());
      }
    }, copts);
  });
}

struct Result {
  Time end;
  std::uint64_t delta_cycles = 0;
  std::uint64_t context_switches = 0;
  /// Dates concatenated per tag (tag-sorted), checksums alongside.
  std::vector<Time> dates;
  std::vector<std::uint32_t> checksums;

  void capture(const Kernel& k, const Model& model) {
    end = k.now();
    delta_cycles = k.stats().delta_cycles;
    context_switches = k.stats().context_switches;
    dates = model.dates();
    checksums = model.checksums();
  }

  bool operator==(const Result& o) const {
    return end == o.end && delta_cycles == o.delta_cycles &&
           context_switches == o.context_switches && dates == o.dates &&
           checksums == o.checksums;
  }
};

TEST(Snapshot, ForkReplaysToTheWarmPointAndFinishesBitExact) {
  ModelRegistry models;
  // Cold reference: the same construction run start to finish in one go.
  Result cold;
  {
    Kernel k;
    build_pipeline(k, models, "pipe", 40);
    k.run();
    cold.capture(k, models.of(k));
    models.drop(k);
  }

  {
    Kernel warm;
    build_pipeline(warm, models, "pipe", 40);
    warm.run(100_ns);  // warm-up slice; auto-logged
    const Snapshot snap = warm.snapshot();
    EXPECT_EQ(snap.warmed_to, 100_ns);

    // Two forks replay independently; each must land exactly at the warm
    // point and then finish bit-identical to the cold run.
    for (int i = 0; i < 2; ++i) {
      std::unique_ptr<Kernel> fork = Kernel::fork(snap);
      EXPECT_EQ(fork->now(), 100_ns);
      fork->run();
      Result forked;
      forked.capture(*fork, models.of(*fork));
      EXPECT_TRUE(forked == cold) << "fork " << i;
      models.drop(*fork);
    }
    // The original continues unperturbed by having been snapshotted.
    warm.run();
    Result continued;
    continued.capture(warm, models.of(warm));
    EXPECT_TRUE(continued == cold);
    models.drop(warm);
  }
}

TEST(Snapshot, ForkedKernelsAreThemselvesForkable) {
  ModelRegistry models;
  Kernel root;
  build_pipeline(root, models, "chain", 30);
  root.run(80_ns);
  const Snapshot snap = root.snapshot();

  std::unique_ptr<Kernel> child = Kernel::fork(snap);
  child->run(200_ns);  // advance further, auto-logged in the child
  const Snapshot child_snap = child->snapshot();
  EXPECT_EQ(child_snap.warmed_to, 200_ns);

  std::unique_ptr<Kernel> grandchild = Kernel::fork(child_snap);
  EXPECT_EQ(grandchild->now(), 200_ns);
  grandchild->run();
  child->run();
  Result from_child;
  from_child.capture(*child, models.of(*child));
  Result from_grandchild;
  from_grandchild.capture(*grandchild, models.of(*grandchild));
  EXPECT_TRUE(from_child == from_grandchild);
  models.drop(*grandchild);
  models.drop(*child);
  models.drop(root);
}

TEST(Snapshot, DivergeStepMakesVariants) {
  ModelRegistry models;
  Kernel base;
  build_pipeline(base, models, "a", 20);
  base.run(50_ns);
  const Snapshot snap = base.snapshot();

  // Variant: one extra pipeline grafted at the fork point. Must match a
  // cold kernel built with both pipelines from scratch (the second one
  // added at the same 50 ns point).
  ForkOptions options;
  options.diverge = [&models](Kernel& kk) {
    build_pipeline(kk, models, "b", 10);
  };
  std::unique_ptr<Kernel> variant = Kernel::fork(snap, std::move(options));
  variant->run();

  {
    Kernel cold;
    build_pipeline(cold, models, "a", 20);
    cold.run(50_ns);
    build_pipeline(cold, models, "b", 10);
    cold.run();
    EXPECT_EQ(variant->now(), cold.now());
    EXPECT_EQ(variant->stats().delta_cycles, cold.stats().delta_cycles);
    EXPECT_EQ(models.of(*variant).dates(), models.of(cold).dates());
    EXPECT_EQ(models.of(*variant).checksums(), models.of(cold).checksums());
    models.drop(cold);
  }

  // The un-diverged base still runs only its own pipeline: the diverge
  // step landed in the fork alone.
  base.run();
  EXPECT_EQ(models.of(base).dates().size(), 20u);
  EXPECT_EQ(models.of(*variant).dates().size(), 30u);
  models.drop(*variant);
  models.drop(base);
}

TEST(Snapshot, ExecutionConfigOverridesKeepDatesIdentical) {
  // workers / chunking are execution-only knobs: forking the same
  // snapshot under different values must not move a date.
  ModelRegistry models;
  Kernel base;
  build_pipeline(base, models, "cfg", 40);
  base.run(100_ns);
  const Snapshot snap = base.snapshot();

  std::unique_ptr<Kernel> seq = Kernel::fork(snap);
  std::unique_ptr<Kernel> par =
      Kernel::fork(snap, {.config = KernelConfig{.workers = 4}});
  EXPECT_EQ(par->workers(), 4u);
  EXPECT_EQ(seq->workers(), base.workers());
  seq->run();
  par->run();
  EXPECT_EQ(seq->now(), par->now());
  EXPECT_EQ(seq->stats().delta_cycles, par->stats().delta_cycles);
  EXPECT_EQ(models.of(*seq).dates(), models.of(*par).dates());
  EXPECT_EQ(models.of(*seq).checksums(), models.of(*par).checksums());
  models.drop(*par);
  models.drop(*seq);
  models.drop(base);
}

TEST(Snapshot, ElaborationOutsideBuildDisqualifiesSnapshot) {
  Kernel k;
  k.spawn_thread("loose", [&k] { k.wait(1_ns); });  // not inside build()
  EXPECT_THROW(k.snapshot(), SimulationError);
}

TEST(Snapshot, SnapshotInsideARunningProcessIsAnError) {
  Kernel k;
  k.build([](Kernel& kk) {
    kk.spawn_thread("snapper", [&kk] {
      kk.wait(5_ns);
      kk.snapshot();  // from simulation context: must throw
    });
  });
  EXPECT_THROW(k.run(), SimulationError);
}

TEST(Snapshot, NondeterministicBuildStepIsCaughtByTheFingerprint) {
  // A build step that depends on how often it ran replays differently;
  // the fork's fingerprint check must catch it instead of silently
  // handing back a divergent kernel.
  Kernel k;
  int calls = 0;
  k.build([&calls](Kernel& kk) {
    if (calls++ == 0) {
      kk.spawn_thread("only_first_time", [&kk] { kk.wait(3_ns); });
    }
  });
  k.run(10_ns);
  const Snapshot snap = k.snapshot();
  EXPECT_THROW(Kernel::fork(snap), SimulationError);
}

TEST(Snapshot, EmptyKernelSnapshotsTrivially) {
  Kernel k;
  const Snapshot snap = k.snapshot();  // nothing built, nothing run
  EXPECT_EQ(snap.warmed_to, Time{});
  EXPECT_TRUE(snap.log.empty());
  std::unique_ptr<Kernel> fork = Kernel::fork(snap);
  EXPECT_EQ(fork->now(), Time{});
}

}  // namespace
}  // namespace tdsim
