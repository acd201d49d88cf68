// multidomain_lookahead / multidomain_adaptive: independent clusters of a
// cpu domain (fixed 100 ns quantum, workers polling a cancellation flag)
// and a periph domain (bus masters annotating fine-grained steps), linked
// by a Smart-FIFO DMA stream, on workers=3. The same model as the repo's
// bench_multidomain_soc. The lookahead variant fixes the periph quantum at
// 1 us, so groups free-run whole waves; the adaptive variant seeds an
// adaptive QuantumPolicy at 100 ns, whose controller pins the groups to
// barrier rounds. The seed draws every process's spin seed.
#include <memory>
#include <string>
#include <vector>

#include "core/smart_fifo.h"
#include "kernel/kernel.h"
#include "kernel/quantum_controller.h"
#include "kernel/sync_domain.h"
#include "suite.h"
#include "traced.h"

namespace tdbench {

namespace {

using tdsim::Kernel;
using tdsim::QuantumPolicy;
using tdsim::SmartFifo;
using tdsim::SyncDomain;
using tdsim::ThreadOptions;
using tdsim::Time;
using tdsim::TimeUnit;
using namespace tdsim::time_literals;

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kCpuWorkers = 2;
constexpr std::size_t kPeriphMasters = 4;
constexpr std::uint64_t kWork = 200;
constexpr Time kStep = 10_ns;
constexpr Time kCpuQuantum = 100_ns;

struct MultidomainSize {
  std::size_t clusters;
  std::uint64_t steps;
  std::uint64_t stream_words;
};

RepOutput run_multidomain(const RepContext& ctx, const MultidomainSize& size,
                          bool adaptive) {
  struct Cluster {
    SyncDomain* cpu = nullptr;
    SyncDomain* periph = nullptr;
    bool cancelled = false;
    std::vector<Time> observed;
    std::unique_ptr<SmartFifo<std::uint32_t>> stream;
    std::uint32_t checksum = 0;
    Time stream_done;
    std::uint64_t work_acc = 0;
    std::unique_ptr<SpanSink> sink;
  };

  // Just past a cpu quantum boundary: the worst observation case.
  const Time cancel_at =
      Time(size.steps / 2 * kStep.ps() / 1000 + 1, TimeUnit::NS);
  QuantumPolicy policy;
  policy.min_quantum = 100_ns;
  policy.max_quantum = 100_us;
  policy.grow_share_pct = 60;
  policy.min_syncs_per_decision = 8;
  Rng rng(ctx.seed);

  RepOutput out;
  out.workers = kWorkers;
  Phase setup(ctx.tracer, Op::Setup);
  SpanSink* main = main_sink(ctx.tracer);
  Kernel kernel(explicit_config(kWorkers));
  // After the kernel: channels must die before it.
  std::vector<Cluster> clusters(size.clusters);
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    Cluster& cl = clusters[c];
    const std::string suffix = std::to_string(c);
    if (ctx.tracer != nullptr) {
      cl.sink = ctx.tracer->make_sink(clusters.size());
    }
    SpanSink* sink = cl.sink.get();
    cl.cpu = &kernel.create_domain(
        {.name = "cpu" + suffix, .quantum = kCpuQuantum, .concurrent = true});
    tdsim::DomainOptions periph{.name = "periph" + suffix,
                                .quantum = adaptive ? 100_ns : 1_us,
                                .concurrent = true};
    if (adaptive) {
      periph.policy = policy;
    }
    cl.periph = &kernel.create_domain(periph);
    cl.observed.resize(kCpuWorkers);
    cl.stream = std::make_unique<SmartFifo<std::uint32_t>>(
        kernel, "dma_stream" + suffix, 16);
    cl.stream->declare_cell_latency(kCpuQuantum);

    ThreadOptions cpu_opts;
    cpu_opts.domain = cl.cpu;
    ThreadOptions periph_opts;
    periph_opts.domain = cl.periph;
    spawn(main, Op::Spawn, kernel, "canceller" + suffix, [&kernel, &cl,
                                                          cancel_at] {
      kernel.wait(cancel_at);
      cl.cancelled = true;
    }, cpu_opts);
    for (std::size_t w = 0; w < kCpuWorkers; ++w) {
      const std::uint64_t seed = rng.next();
      spawn(main, Op::Spawn, kernel, "cpu" + suffix + "_" + std::to_string(w),
            [&kernel, &cl, &size, sink, w, seed] {
              SyncDomain& domain = kernel.current_domain();
              std::uint64_t acc = seed;
              for (std::uint64_t i = 0; i < size.steps; ++i) {
                acc = model_spin(sink, acc, kWork);
                sync_inc_and_sync(sink, domain, kStep);
                if (cl.cancelled) {
                  cl.observed[w] = domain.local_time_stamp();
                  break;
                }
              }
              cl.work_acc += acc;
            },
            cpu_opts);
    }
    for (std::size_t m = 0; m < kPeriphMasters; ++m) {
      const std::uint64_t seed = rng.next();
      spawn(main, Op::Spawn, kernel,
            "periph" + suffix + "_" + std::to_string(m),
            [&kernel, &cl, &size, sink, seed] {
              SyncDomain& domain = kernel.current_domain();
              std::uint64_t acc = seed;
              for (std::uint64_t i = 0; i < size.steps; ++i) {
                acc = model_spin(sink, acc, kWork);
                sync_inc_and_sync(sink, domain, kStep);
              }
              cl.work_acc += acc;
            },
            periph_opts);
    }
    spawn(main, Op::Spawn, kernel, "dma" + suffix, [&kernel, &cl, &size,
                                                    sink] {
      SyncDomain& domain = kernel.current_domain();
      for (std::uint64_t i = 0; i < size.stream_words; ++i) {
        sync_inc(sink, domain, 3_ns);
        fifo_write(sink, *cl.stream, static_cast<std::uint32_t>(i));
      }
    }, periph_opts);
    spawn(main, Op::Spawn, kernel, "stream_sink" + suffix, [&kernel, &cl,
                                                            &size, sink] {
      SyncDomain& domain = kernel.current_domain();
      for (std::uint64_t i = 0; i < size.stream_words; ++i) {
        cl.checksum = cl.checksum * 31 + fifo_read(sink, *cl.stream);
        sync_inc(sink, domain, 4_ns);
      }
      cl.stream_done = domain.local_time_stamp();
    }, cpu_opts);
  }
  end_setup(out, setup, kernel);
  if (ctx.setup_only) {
    return out;
  }

  Phase run(ctx.tracer, Op::Run);
  kernel.run();
  out.run_s = run.stop();

  std::uint32_t expected = 0;
  for (std::uint64_t i = 0; i < size.stream_words; ++i) {
    expected = expected * 31 + static_cast<std::uint32_t>(i);
  }
  Digest outputs;
  std::uint64_t calls = 0;
  std::uint64_t blocked = 0;
  for (Cluster& cl : clusters) {
    for (Time t : cl.observed) {
      // The cancellation is observed within one cpu quantum (paper SII.A).
      if (t < cancel_at || t - cancel_at > kCpuQuantum) {
        out.fail(cl.cpu->name() + ": cancellation observed out of bound");
      }
      outputs.add(t.ps());
    }
    if (cl.checksum != expected) {
      out.fail(cl.stream->name() + ": stream checksum mismatch");
    }
    if (cl.stream_done != clusters.front().stream_done ||
        cl.periph->quantum() != clusters.front().periph->quantum()) {
      out.fail(cl.periph->name() + ": symmetric clusters diverged");
    }
    outputs.add(cl.stream_done.ps());
    outputs.add(cl.checksum);
    outputs.add(cl.work_acc);
    outputs.add(cl.periph->quantum().ps());
    calls += cl.stream->total_writes() + cl.stream->total_reads();
    blocked += cl.stream->writer_blocks() + cl.stream->reader_blocks();
    if (cl.sink != nullptr) {
      ctx.tracer->absorb(std::move(cl.sink));
    }
  }
  outputs.add(calls);
  out.outputs = outputs.value();
  out.layer["fifo.calls"] = double(calls);
  out.layer["fifo.blocked"] = double(blocked);
  out.layer["qc.final_quantum_ps"] =
      double(clusters.front().periph->quantum().ps());
  Digest counts;
  counts.add(blocked);
  record_kernel_stats(kernel.stats(), counts, out);
  return out;
}

}  // namespace

RepOutput run_multidomain_lookahead(const RepContext& ctx) {
  return run_multidomain(
      ctx, ctx.smoke ? MultidomainSize{2, 2000, 400}
                     : MultidomainSize{8, 200'000, 20'000},
      false);
}

RepOutput run_multidomain_adaptive(const RepContext& ctx) {
  return run_multidomain(
      ctx, ctx.smoke ? MultidomainSize{2, 2000, 400}
                     : MultidomainSize{8, 150'000, 20'000},
      true);
}

}  // namespace tdbench
