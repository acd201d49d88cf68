// scale_churn: 100 concurrent domains in a mesh of 1 us decoupled links,
// 10k worker processes living three lives each, on workers=3 -- the model
// of the repo's bench_scale. Every life annotates 1000 fine-grained steps
// under a 100 ns quantum and terminates; a manager per domain respawns the
// next generation, so spawn and the StackPool run inside the simulation,
// the lookahead bound is derived over a 100-node graph every horizon, and
// the timed queue holds thousands of entries. The seed draws every life's
// initial accumulator.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "kernel/kernel.h"
#include "kernel/sync_domain.h"
#include "suite.h"
#include "traced.h"

namespace tdbench {

namespace {

using tdsim::Kernel;
using tdsim::SyncDomain;
using tdsim::ThreadOptions;
using tdsim::Time;
using namespace tdsim::time_literals;

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kStackBytes = 128 * 1024;
constexpr Time kStep = 10_ns;
constexpr Time kQuantum = 100_ns;

struct ScaleSize {
  std::size_t domains;
  std::size_t procs;
  std::uint64_t lives;
  std::uint64_t steps;
};

}  // namespace

RepOutput run_scale_churn(const RepContext& ctx) {
  const ScaleSize size = ctx.smoke ? ScaleSize{9, 90, 3, 100}
                                   : ScaleSize{100, 10'000, 3, 1000};
  struct Cluster {
    SyncDomain* domain = nullptr;
    /// Folded in group-schedule order: bit-identical across workers.
    std::uint64_t fold = 0;
    std::uint64_t lives_done = 0;
    std::unique_ptr<SpanSink> sink;
  };
  const Time life_span = Time::from_ps(size.steps * kStep.ps());
  const auto slots_of = [&size](std::size_t c) {
    return size.procs / size.domains + (c < size.procs % size.domains ? 1 : 0);
  };

  RepOutput out;
  out.workers = kWorkers;
  Phase setup(ctx.tracer, Op::Setup);
  SpanSink* main = main_sink(ctx.tracer);
  Kernel kernel(explicit_config(kWorkers));
  std::vector<Cluster> clusters(size.domains);
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    clusters[c].domain = &kernel.create_domain(
        {.name = "cl" + std::to_string(c), .quantum = kQuantum,
         .concurrent = true});
    if (ctx.tracer != nullptr) {
      clusters[c].sink = ctx.tracer->make_sink(clusters.size());
    }
  }
  // Decoupled mesh links: nothing crosses sooner than 1 us, so the groups
  // stay separate and free-run on lookahead.
  const auto rows = static_cast<std::size_t>(
      std::floor(std::sqrt(static_cast<double>(size.domains))));
  const std::size_t cols = (size.domains + rows - 1) / rows;
  for (std::size_t c = 0; c < size.domains; ++c) {
    if ((c % cols) + 1 < cols && c + 1 < size.domains) {
      kernel.link_domains(*clusters[c].domain, *clusters[c + 1].domain, 1_us,
                          "mesh_x");
    }
    if (c + cols < size.domains) {
      kernel.link_domains(*clusters[c].domain, *clusters[c + cols].domain,
                          1_us, "mesh_y");
    }
  }

  const auto spawn_life = [&](SpanSink* sink, Op op, std::size_t c,
                              std::size_t slot, std::uint64_t gen) {
    Cluster& cl = clusters[c];
    ThreadOptions opts;
    opts.domain = cl.domain;
    opts.stack_size = kStackBytes;
    const std::uint64_t seed =
        Rng(ctx.seed ^ ((c * 0x10003ull + slot) * 0x3f1ull + gen)).next();
    spawn(sink, op, kernel,
          "c" + std::to_string(c) + "_w" + std::to_string(slot) + "_g" +
              std::to_string(gen),
          [&kernel, &cl, &size, seed] {
            SyncDomain& domain = kernel.current_domain();
            SpanSink* sink = cl.sink.get();
            std::uint64_t acc = seed;
            for (std::uint64_t s = 0; s < size.steps; ++s) {
              acc = acc * 6364136223846793005ull + s;
              sync_inc_and_sync(sink, domain, kStep);
            }
            cl.fold = cl.fold * 31 + acc;
            ++cl.lives_done;
          },
          opts);
  };

  for (std::size_t c = 0; c < clusters.size(); ++c) {
    for (std::size_t slot = 0; slot < slots_of(c); ++slot) {
      spawn_life(main, Op::Spawn, c, slot, 0);
    }
    ThreadOptions opts;
    opts.domain = clusters[c].domain;
    spawn(main, Op::Spawn, kernel, "mgr" + std::to_string(c),
          [&kernel, &size, &spawn_life, &slots_of, &clusters, c, life_span] {
            for (std::uint64_t gen = 1; gen < size.lives; ++gen) {
              kernel.wait(life_span);
              for (std::size_t slot = 0; slot < slots_of(c); ++slot) {
                spawn_life(clusters[c].sink.get(), Op::Respawn, c, slot, gen);
              }
            }
          },
          opts);
  }
  end_setup(out, setup, kernel);
  if (ctx.setup_only) {
    return out;
  }

  Phase run(ctx.tracer, Op::Run);
  kernel.run();
  out.run_s = run.stop();

  Digest outputs;
  for (Cluster& cl : clusters) {
    if (cl.lives_done != slots_of(&cl - clusters.data()) * size.lives) {
      out.fail(cl.domain->name() + ": not every life completed");
    }
    outputs.add(cl.fold);
    if (cl.sink != nullptr) {
      ctx.tracer->absorb(std::move(cl.sink));
    }
  }
  if (kernel.now() != life_span * size.lives) {
    out.fail("final date is not lives x life span");
  }
  if (kernel.stats().processes_spawned != size.procs * size.lives +
                                              size.domains) {
    out.fail("spawn count does not match the churn plan");
  }
  outputs.add(kernel.now().ps());
  out.outputs = outputs.value();
  Digest counts;
  record_kernel_stats(kernel.stats(), counts, out);
  return out;
}

}  // namespace tdbench
