// Common interface over the three FIFO channel flavours used throughout the
// reproduction (paper SIV.B compares models built on each):
//   * Fifo        -- regular channel, untimed models (via UntimedFifo),
//   * SyncFifo    -- regular channel + sync() per access ("TDless"),
//   * SmartFifo   -- the paper's contribution ("TDfull").
// Scenarios written against this interface can run unchanged in every mode,
// which is what the dual-mode validation of paper SIV.A requires. Chunked
// publication is not part of the interface: only SmartFifo has a chunk
// capacity (set it on the SmartFifo itself).
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

  /// Lifetime counters for benchmarks and tests.
  virtual std::uint64_t total_writes() const = 0;
  virtual std::uint64_t total_reads() const = 0;
};

}  // namespace tdsim
