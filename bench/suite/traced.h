// The workloads' calls into tdsim's public functions, each wrapped in a
// span when the repetition is traced (sink non-null) and called directly
// otherwise.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "core/smart_fifo.h"
#include "kernel/kernel.h"
#include "kernel/sync_domain.h"
#include "span.h"
#include "suite.h"

namespace tdbench {

/// The driving thread's sink, or null when untraced.
inline SpanSink* main_sink(Tracer* tracer) {
  return tracer != nullptr ? &tracer->main() : nullptr;
}

template <typename T>
void fifo_write(SpanSink* sink, tdsim::SmartFifo<T>& fifo, T value) {
  if (sink == nullptr) {
    fifo.write(std::move(value));
    return;
  }
  const std::uint64_t blocks = fifo.writer_blocks();
  const std::int64_t start = SpanSink::now_ns();
  fifo.write(std::move(value));
  const std::int64_t end = SpanSink::now_ns();
  sink->record(Op::FifoWrite,
               fifo.writer_blocks() != blocks ? Outcome::Suspended
                                              : Outcome::Fast,
               start, end);
}

template <typename T>
T fifo_read(SpanSink* sink, tdsim::SmartFifo<T>& fifo) {
  if (sink == nullptr) {
    return fifo.read();
  }
  const std::uint64_t blocks = fifo.reader_blocks();
  const std::int64_t start = SpanSink::now_ns();
  T value = fifo.read();
  const std::int64_t end = SpanSink::now_ns();
  sink->record(Op::FifoRead,
               fifo.reader_blocks() != blocks ? Outcome::Suspended
                                              : Outcome::Fast,
               start, end);
  return value;
}

inline void sync_inc(SpanSink* sink, tdsim::SyncDomain& domain,
                     tdsim::Time duration) {
  if (sink == nullptr) {
    domain.inc(duration);
    return;
  }
  const std::int64_t start = SpanSink::now_ns();
  domain.inc(duration);
  sink->record(Op::SyncInc, Outcome::Fast, start, SpanSink::now_ns());
  sink->quantum_ps_sum += double(domain.quantum().ps());
}

/// A call counts as a performed sync when it leaves the local offset at
/// zero (the duration is never zero, so only a sync can do that).
inline void sync_inc_and_sync(SpanSink* sink, tdsim::SyncDomain& domain,
                              tdsim::Time duration) {
  if (sink == nullptr) {
    domain.inc_and_sync_if_needed(duration);
    return;
  }
  const std::int64_t start = SpanSink::now_ns();
  domain.inc_and_sync_if_needed(duration);
  const std::int64_t end = SpanSink::now_ns();
  sink->record(Op::SyncIncAndSync,
               domain.local_offset().is_zero() ? Outcome::Suspended
                                               : Outcome::Fast,
               start, end);
  sink->quantum_ps_sum += double(domain.quantum().ps());
}

inline std::uint64_t model_spin(SpanSink* sink, std::uint64_t seed,
                                std::uint64_t iters) {
  if (sink == nullptr) {
    return spin_work(seed, iters);
  }
  const std::int64_t start = SpanSink::now_ns();
  const std::uint64_t x = spin_work(seed, iters);
  sink->record(Op::ModelSpin, Outcome::Fast, start, SpanSink::now_ns());
  return x;
}

/// `op` is Op::Spawn during elaboration, Op::Respawn from a process.
inline void spawn(SpanSink* sink, Op op, tdsim::Kernel& kernel,
                  std::string name, std::function<void()> body,
                  tdsim::ThreadOptions opts = {}) {
  if (sink == nullptr) {
    kernel.spawn_thread(std::move(name), std::move(body), opts);
    return;
  }
  const std::int64_t start = SpanSink::now_ns();
  kernel.spawn_thread(std::move(name), std::move(body), opts);
  sink->record(op, Outcome::Fast, start, SpanSink::now_ns());
}

/// Times one elaboration or run phase on the driving thread: always
/// returns host seconds, and records a root span when traced.
class Phase {
 public:
  Phase(Tracer* tracer, Op op)
      : tracer_(tracer),
        op_(op),
        start_(tracer != nullptr ? tracer->begin_root()
                                 : SpanSink::now_ns()) {}

  double stop() {
    const std::int64_t end = SpanSink::now_ns();
    if (tracer_ != nullptr) {
      tracer_->end_root(op_, start_);
    }
    return double(end - start_) * 1e-9;
  }

 private:
  Tracer* tracer_;
  Op op_;
  std::int64_t start_;
};

/// Closes the elaboration phase of a repetition.
inline void end_setup(RepOutput& out, Phase& setup,
                      const tdsim::Kernel& kernel) {
  out.setup_s = setup.stop();
  out.rss_setup_mb = current_rss_mb();
  out.config = kernel.config();
}

}  // namespace tdbench
