// fifo_narrow / fifo_wide: the paper's Fig. 5 source -> transmitter ->
// sink pipeline with Smart FIFOs (TDfull), bench-owned so its channel and
// annotation calls can carry spans. Rates vary per block from the seed:
// the source runs at x k and the sink at x (4 - k), k in {1, 2, 3}, so
// producer- and consumer-limited phases alternate and both blocking paths
// run. fifo_narrow publishes per element; fifo_wide runs its channels in
// chunked mode, which moves no date.
#include <memory>
#include <vector>

#include "core/smart_fifo.h"
#include "kernel/kernel.h"
#include "suite.h"
#include "traced.h"

namespace tdbench {

namespace {

using tdsim::Kernel;
using tdsim::SmartFifo;
using tdsim::SyncDomain;
using tdsim::Time;
using namespace tdsim::time_literals;

struct PipelineSize {
  std::size_t depth;
  std::uint64_t blocks;
  std::uint64_t words_per_block;
  /// 0: per-element publication; 2 or more: chunked (core/chunk_protocol.h).
  std::size_t chunk_capacity;
};

constexpr Time kSourcePerWord = 3_ns;
constexpr Time kTransmitPerWord = 2_ns;
constexpr Time kSinkPerWord = 3_ns;
constexpr Time kPerBlock = 20_ns;
constexpr std::uint32_t kScramble = 0xA5A5A5A5u;

RepOutput run_pipeline(const RepContext& ctx, const PipelineSize& size) {
  RepOutput out;
  SpanSink* sink = main_sink(ctx.tracer);
  Rng rng(ctx.seed);
  std::vector<std::uint8_t> rate(size.blocks);
  for (std::uint8_t& k : rate) {
    k = static_cast<std::uint8_t>(1 + rng.below(3));
  }
  const std::uint64_t total = size.blocks * size.words_per_block;

  struct SinkState {
    std::uint32_t checksum = 0;
    Time completion;
    bool done = false;
  } result;

  Phase setup(ctx.tracer, Op::Setup);
  Kernel kernel(explicit_config(0, size.chunk_capacity));
  SmartFifo<std::uint32_t> fifo_a(kernel, "pipeline.fifo_a", size.depth);
  SmartFifo<std::uint32_t> fifo_b(kernel, "pipeline.fifo_b", size.depth);
  spawn(sink, Op::Spawn, kernel, "pipeline.source", [&] {
    SyncDomain& domain = kernel.current_domain();
    std::uint32_t word = 0;
    for (std::uint64_t b = 0; b < size.blocks; ++b) {
      sync_inc(sink, domain, kPerBlock);
      const Time per_word = kSourcePerWord * rate[b];
      for (std::uint64_t w = 0; w < size.words_per_block; ++w) {
        sync_inc(sink, domain, per_word);
        fifo_write(sink, fifo_a, word++);
      }
    }
  });
  spawn(sink, Op::Spawn, kernel, "pipeline.transmit", [&] {
    SyncDomain& domain = kernel.current_domain();
    for (std::uint64_t i = 0; i < total; ++i) {
      const std::uint32_t word = fifo_read(sink, fifo_a);
      sync_inc(sink, domain, kTransmitPerWord);
      fifo_write(sink, fifo_b, word ^ kScramble);
    }
  });
  spawn(sink, Op::Spawn, kernel, "pipeline.sink", [&] {
    SyncDomain& domain = kernel.current_domain();
    for (std::uint64_t b = 0; b < size.blocks; ++b) {
      sync_inc(sink, domain, kPerBlock);
      const Time per_word = kSinkPerWord * (4 - rate[b]);
      for (std::uint64_t w = 0; w < size.words_per_block; ++w) {
        const std::uint32_t word = fifo_read(sink, fifo_b);
        sync_inc(sink, domain, per_word);
        result.checksum = result.checksum * 31 + word;
      }
    }
    result.completion = domain.local_time_stamp();
    result.done = true;
  });
  end_setup(out, setup, kernel);
  if (ctx.setup_only) {
    return out;
  }

  Phase run(ctx.tracer, Op::Run);
  kernel.run();
  out.run_s = run.stop();

  std::uint32_t expected = 0;
  for (std::uint64_t i = 0; i < total; ++i) {
    expected = expected * 31 + (static_cast<std::uint32_t>(i) ^ kScramble);
  }
  if (!result.done) {
    out.fail("sink did not finish");
  }
  if (result.checksum != expected) {
    out.fail("sink checksum mismatch");
  }
  Digest outputs;
  outputs.add(result.completion.ps());
  outputs.add(kernel.now().ps());
  outputs.add(result.checksum);
  Digest counts;
  std::uint64_t calls = 0;
  std::uint64_t blocked = 0;
  for (const SmartFifo<std::uint32_t>* fifo : {&fifo_a, &fifo_b}) {
    if (fifo->total_writes() != total || fifo->total_reads() != total) {
      out.fail(fifo->name() + ": not every word crossed");
    }
    if (fifo->chunk_capacity() != size.chunk_capacity) {
      out.fail(fifo->name() + ": not in the workload's publication mode");
    }
    outputs.add(fifo->total_writes());
    outputs.add(fifo->total_reads());
    counts.add(fifo->writer_blocks());
    counts.add(fifo->reader_blocks());
    calls += fifo->total_writes() + fifo->total_reads();
    blocked += fifo->writer_blocks() + fifo->reader_blocks();
  }
  out.outputs = outputs.value();
  out.layer["fifo.calls"] = double(calls);
  out.layer["fifo.blocked"] = double(blocked);
  record_kernel_stats(kernel.stats(), counts, out);
  return out;
}

}  // namespace

RepOutput run_fifo_narrow(const RepContext& ctx) {
  return run_pipeline(ctx, ctx.smoke ? PipelineSize{4, 40, 100, 0}
                                     : PipelineSize{4, 1000, 1000, 0});
}

RepOutput run_fifo_wide(const RepContext& ctx) {
  return run_pipeline(ctx, ctx.smoke ? PipelineSize{256, 200, 100, 16}
                                     : PipelineSize{256, 12000, 1000, 16});
}

}  // namespace tdbench
