// Common interface over the three FIFO channel flavours used throughout the
// reproduction (paper SIV.B compares models built on each):
//   * Fifo        -- regular channel, untimed models (via UntimedFifo),
//   * SyncFifo    -- regular channel + sync() per access ("TDless"),
//   * SmartFifo   -- the paper's contribution ("TDfull").
// Scenarios written against this interface can run unchanged in every mode,
// which is what the dual-mode validation of paper SIV.A requires.
#pragma once

#include <cstddef>
#include <cstdint>

#include "kernel/event.h"

namespace tdsim {

template <typename T>
class FifoInterface {
 public:
  virtual ~FifoInterface() = default;

  // Writer-side interface (paper Fig. 4): high-rate, dates must be ordered.
  virtual void write(T value) = 0;
  virtual bool is_full() = 0;
  virtual Event& not_full_event() = 0;

  // Reader-side interface: high-rate, dates must be ordered.
  virtual T read() = 0;
  virtual bool is_empty() = 0;
  virtual Event& not_empty_event() = 0;

  // Monitor interface: low-rate.
  virtual std::size_t get_size() = 0;

  virtual std::size_t depth() const = 0;

  /// Publication granularity (see core/smart_fifo.h): a capacity >= 2
  /// batches the channel's per-access bookkeeping (delta notifications,
  /// per-access sync books, external-view transitions) once per chunk of
  /// that many accesses; 0 or 1 runs it on every access (per-element).
  /// Legal mid-run. Channels without batching ignore it. Data-path dates
  /// never depend on the capacity; only counts do. chunk_capacity()
  /// reports 0 for a per-element channel.
  virtual void set_chunk_capacity(std::size_t) {}
  virtual std::size_t chunk_capacity() const { return 0; }

  /// Lifetime counters for benchmarks and tests.
  virtual std::uint64_t total_writes() const = 0;
  virtual std::uint64_t total_reads() const = 0;
};

}  // namespace tdsim
