// Reference timed FIFO ("TDless", paper SII.B): a regular FIFO with a
// sync() at the beginning of each public method. One context switch per
// access, but "it represents the behavior and the timing of the real system
// as faithfully as possible" -- the Smart FIFO must match its dates exactly.
//
// Chunk capacity (set_chunk_capacity, or the TDSIM_CHUNKED default)
// batches the data-path sync *accounting*: every access still performs
// the identical date-faithful synchronization (the timing recurrence of
// the reference model is untouchable), but only the first access of each
// chunk books the per-cause sync (SyncDomain::sync_unbooked for the
// rest), and the capacity is forwarded to the underlying Fifo's
// notification batching. Capacity 0 or 1 books every access. Data-path
// dates never depend on the capacity; the syncs_fifo books (and the
// accuracy signals the adaptive quantum controller derives from them)
// shrink by the chunk factor. The low-rate probes (is_full / is_empty /
// get_size) keep full per-access accounting.
//
// Also UntimedFifo, the regular FIFO behind the FifoInterface, for the
// untimed model of the paper's Fig. 5 benchmark.
#pragma once

#include <algorithm>
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
    set_chunk_capacity(kernel_.default_chunk_capacity());
  }

  /// Sync-cause hint for the adaptive quantum controller: the per-access
  /// syncs of this reference FIFO are attributed to `cause` (default
  /// SyncCause::Explicit, the historical attribution -- both are
  /// accuracy_relevant()). A model that treats a SyncFifo as a
  /// date-accurate hand-off point can reclassify it as
  /// SyncCause::SyncPoint to make the controller's decision trace name
  /// the pressure precisely.
  void set_data_sync_cause(SyncCause cause) { data_sync_cause_ = cause; }

  /// Declares the FIFO's minimum modeling latency on both links (the
  /// probes' own and the underlying FIFO's) -- see Fifo::declare_min_latency.
  void declare_min_latency(Time latency) {
    domain_link_.set_min_latency(latency);
    fifo_.declare_min_latency(latency);
  }

  void write(T value) override {
    sync_data_access(write_phase_);
    fifo_.write(std::move(value));
  }

  T read() override {
    sync_data_access(read_phase_);
    return fifo_.read();
  }

  bool is_full() override {
    SyncDomain& domain = kernel_.current_domain();
    domain_link_.touch(domain);
    domain.sync(data_sync_cause_);
    return fifo_.full();
  }

  bool is_empty() override {
    SyncDomain& domain = kernel_.current_domain();
    domain_link_.touch(domain);
    domain.sync(data_sync_cause_);
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

  /// Sync-book batching (see the header comment); also forwarded to the
  /// underlying Fifo's notification batching. A change starts a new
  /// chunk on both sides.
  void set_chunk_capacity(std::size_t capacity) override {
    chunk_capacity_ = std::max<std::size_t>(1, capacity);
    write_phase_ = 0;
    read_phase_ = 0;
    fifo_.set_chunk_capacity(capacity);
  }
  std::size_t chunk_capacity() const override {
    return fifo_.chunk_capacity();
  }

  Fifo<T>& underlying() { return fifo_; }

 private:
  /// The date-faithful per-access sync; only the access at phase 0 of
  /// each chunk books it under the per-cause counters.
  void sync_data_access(std::size_t& phase) {
    SyncDomain& domain = kernel_.current_domain();
    if (phase == 0) {
      domain.sync(data_sync_cause_);
    } else {
      domain.sync_unbooked();
    }
    if (++phase == chunk_capacity_) {
      phase = 0;
    }
  }

  Kernel& kernel_;
  /// The full()/empty() probes bypass Fifo's own link; track them here.
  DomainLink domain_link_;
  Fifo<T> fifo_;
  /// See set_data_sync_cause().
  SyncCause data_sync_cause_ = SyncCause::Explicit;
  /// Sync-book threshold, >= 1 (1 = book every data access).
  std::size_t chunk_capacity_ = 1;
  /// Position of the next write / read within its chunk.
  std::size_t write_phase_ = 0;
  std::size_t read_phase_ = 0;
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

  /// Forward to the underlying Fifo's notification batching (there is no
  /// sync to elide in an untimed model).
  void set_chunk_capacity(std::size_t capacity) override {
    fifo_.set_chunk_capacity(capacity);
  }
  std::size_t chunk_capacity() const override {
    return fifo_.chunk_capacity();
  }

  Fifo<T>& underlying() { return fifo_; }

 private:
  Fifo<T> fifo_;
};

}  // namespace tdsim
