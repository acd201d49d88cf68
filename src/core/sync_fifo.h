// Reference timed FIFO ("TDless", paper SII.B): a regular FIFO with a
// sync() at the beginning of each public method. One context switch per
// access, but "it represents the behavior and the timing of the real system
// as faithfully as possible" -- the Smart FIFO must match its dates exactly.
// Every access books its sync, so this channel's sync counts are the
// per-access baseline the Smart FIFO's elided switches are read against;
// chunk capacity is a Smart FIFO property only (core/smart_fifo.h).
//
// Also UntimedFifo, the regular FIFO behind the FifoInterface, for the
// untimed model of the paper's Fig. 5 benchmark.
#pragma once

#include <string>
#include <utility>

#include "core/fifo_interface.h"
#include "kernel/domain_link.h"
#include "kernel/fifo.h"
#include "kernel/kernel.h"
#include "kernel/sync_domain.h"

namespace tdsim {

template <typename T>
class SyncFifo final : public FifoInterface<T> {
 public:
  SyncFifo(Kernel& kernel, std::string name, std::size_t depth)
      : kernel_(kernel), fifo_(kernel, std::move(name), depth) {
    domain_link_.set_label(fifo_.name());
  }

  /// Declares the FIFO's minimum modeling latency on both links (the
  /// probes' own and the underlying FIFO's) -- see Fifo::declare_min_latency.
  void declare_min_latency(Time latency) {
    domain_link_.set_min_latency(latency);
    fifo_.declare_min_latency(latency);
  }

  void write(T value) override {
    kernel_.current_domain().sync(SyncCause::Explicit);
    fifo_.write(std::move(value));
  }

  T read() override {
    kernel_.current_domain().sync(SyncCause::Explicit);
    return fifo_.read();
  }

  bool is_full() override {
    SyncDomain& domain = kernel_.current_domain();
    domain_link_.touch(domain);
    domain.sync(SyncCause::Explicit);
    return fifo_.full();
  }

  bool is_empty() override {
    SyncDomain& domain = kernel_.current_domain();
    domain_link_.touch(domain);
    domain.sync(SyncCause::Explicit);
    return fifo_.empty();
  }

  std::size_t get_size() override {
    SyncDomain& domain = kernel_.current_domain();
    domain_link_.touch(domain);
    domain.sync(SyncCause::Monitor);
    return fifo_.num_available();
  }

  /// Fires on every write; a synchronized observer re-checking is_empty()
  /// sees exactly the regular FIFO's state.
  Event& not_empty_event() override { return fifo_.data_written_event(); }
  Event& not_full_event() override { return fifo_.data_read_event(); }

  std::size_t depth() const override { return fifo_.depth(); }
  std::uint64_t total_writes() const override { return fifo_.total_writes(); }
  std::uint64_t total_reads() const override { return fifo_.total_reads(); }

  Fifo<T>& underlying() { return fifo_; }

 private:
  Kernel& kernel_;
  /// The full()/empty() probes bypass Fifo's own link; track them here.
  DomainLink domain_link_;
  Fifo<T> fifo_;
};

/// The plain FIFO behind the common interface, for untimed models: accesses
/// carry no timing and never synchronize (processes in an untimed model
/// have a zero offset anyway).
template <typename T>
class UntimedFifo final : public FifoInterface<T> {
 public:
  UntimedFifo(Kernel& kernel, std::string name, std::size_t depth)
      : fifo_(kernel, std::move(name), depth) {}

  void write(T value) override { fifo_.write(std::move(value)); }
  T read() override { return fifo_.read(); }
  bool is_full() override { return fifo_.full(); }
  bool is_empty() override { return fifo_.empty(); }
  std::size_t get_size() override { return fifo_.num_available(); }
  Event& not_empty_event() override { return fifo_.data_written_event(); }
  Event& not_full_event() override { return fifo_.data_read_event(); }
  std::size_t depth() const override { return fifo_.depth(); }
  std::uint64_t total_writes() const override { return fifo_.total_writes(); }
  std::uint64_t total_reads() const override { return fifo_.total_reads(); }

  Fifo<T>& underlying() { return fifo_; }

 private:
  Fifo<T> fifo_;
};

}  // namespace tdsim
