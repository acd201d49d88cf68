// Regular bounded FIFO channel (sc_fifo analog) with immediate visibility:
// a value written at date t is readable at date t. Blocking accesses are for
// thread processes; non-blocking accessors and events serve method
// processes. This is the channel used by the paper's untimed model and, via
// SyncFifo, by the "TDless" reference model.
//
// Chunk capacity (set_chunk_capacity, or the TDSIM_CHUNKED default): the
// buffer itself is always immediately visible; the capacity only sets how
// often the data_written / data_read delta notifications fire. They fire
// on the empty<->non-empty and full<->non-full transitions (the only
// wake-relevant ones for the blocking loops), once every chunk_capacity
// accesses -- every access at capacity 0 or 1 -- and, at capacity >= 2,
// at every kernel flush point (Kernel::ChunkFlushListener). Blocking
// dates never depend on the capacity; only the number of delta
// notifications observers see does.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <string>
#include <utility>

#include "kernel/domain_link.h"
#include "kernel/event.h"
#include "kernel/kernel.h"
#include "kernel/report.h"

namespace tdsim {

template <typename T>
class Fifo : public ChunkFlushListener {
 public:
  /// A FIFO with `depth` cells (depth must be at least one, matching a
  /// hardware FIFO).
  Fifo(Kernel& kernel, std::string name, std::size_t depth)
      : kernel_(kernel),
        name_(std::move(name)),
        depth_(depth),
        data_written_(kernel, name_ + ".data_written"),
        data_read_(kernel, name_ + ".data_read") {
    if (depth_ == 0) {
      Report::error("Fifo " + name_ + ": depth must be >= 1");
    }
    set_chunk_capacity(kernel_.default_chunk_capacity());
  }

  ~Fifo() override {
    if (chunk_capacity_ >= 2) {
      kernel_.unregister_chunk_flush(this);
    }
  }

  /// Blocking write; suspends the calling thread while the FIFO is full.
  void write(T value) {
    domain_link_.touch(kernel_.current_domain());
    while (buffer_.size() == depth_) {
      writes_blocked_++;
      kernel_.wait(data_read_);
    }
    buffer_.push_back(std::move(value));
    total_writes_++;
    note_written();
  }

  /// Blocking read; suspends the calling thread while the FIFO is empty.
  T read() {
    domain_link_.touch(kernel_.current_domain());
    while (buffer_.empty()) {
      reads_blocked_++;
      kernel_.wait(data_written_);
    }
    T value = std::move(buffer_.front());
    buffer_.pop_front();
    total_reads_++;
    note_read();
    return value;
  }

  /// Non-blocking write; returns false when full.
  bool nb_write(T value) {
    domain_link_.touch(kernel_.current_domain());
    if (buffer_.size() == depth_) {
      return false;
    }
    buffer_.push_back(std::move(value));
    total_writes_++;
    note_written();
    return true;
  }

  /// Non-blocking read; returns false when empty.
  bool nb_read(T& out) {
    domain_link_.touch(kernel_.current_domain());
    if (buffer_.empty()) {
      return false;
    }
    out = std::move(buffer_.front());
    buffer_.pop_front();
    total_reads_++;
    note_read();
    return true;
  }

  /// Oldest element; FIFO must not be empty.
  const T& front() const {
    if (buffer_.empty()) {
      Report::error("Fifo " + name_ + ": front() on empty FIFO");
    }
    return buffer_.front();
  }

  bool empty() const { return buffer_.empty(); }
  bool full() const { return buffer_.size() == depth_; }
  std::size_t num_available() const { return buffer_.size(); }
  std::size_t num_free() const { return depth_ - buffer_.size(); }
  std::size_t depth() const { return depth_; }
  const std::string& name() const { return name_; }
  Kernel& kernel() const { return kernel_; }

  /// Delta-notified after each successful write / read.
  Event& data_written_event() { return data_written_; }
  Event& data_read_event() { return data_read_; }

  /// Declares this FIFO's minimum modeling latency (see
  /// DomainLink::set_min_latency): diagnostic for the merged link, and the
  /// value for a decoupled Kernel::link_domains(a, b, min_latency) when
  /// the hand-off is restructured for per-group lookahead.
  void declare_min_latency(Time latency) {
    domain_link_.set_min_latency(latency);
  }
  Time declared_min_latency() const { return domain_link_.min_latency(); }

  /// Notification batching (see the header comment). Fires any pending
  /// notifications first; a capacity >= 2 registers the FIFO as a kernel
  /// flush listener, 0 or 1 notifies on every access.
  void set_chunk_capacity(std::size_t capacity) {
    flush_chunks();
    const bool was_chunked = chunk_capacity_ >= 2;
    chunk_capacity_ = std::max<std::size_t>(1, capacity);
    if (chunk_capacity_ >= 2 && !was_chunked) {
      kernel_.register_chunk_flush(this);
    } else if (chunk_capacity_ < 2 && was_chunked) {
      kernel_.unregister_chunk_flush(this);
    }
  }
  /// 0 for a per-element FIFO.
  std::size_t chunk_capacity() const {
    return chunk_capacity_ >= 2 ? chunk_capacity_ : 0;
  }

  /// Kernel flush point (horizons, lookahead waves, run() exit): fire the
  /// batched delta notifications so pollers observe a settled channel.
  bool flush_chunks() override {
    bool any = false;
    if (pending_written_ != 0) {
      pending_written_ = 0;
      data_written_.notify_delta();
      any = true;
    }
    if (pending_read_ != 0) {
      pending_read_ = 0;
      data_read_.notify_delta();
      any = true;
    }
    return any;
  }

  SyncDomain* chunk_home_domain() const override {
    return domain_link_.first_domain();
  }

  // Lifetime access counters, for tests and benchmarks.
  std::uint64_t total_writes() const { return total_writes_; }
  std::uint64_t total_reads() const { return total_reads_; }
  std::uint64_t writes_blocked() const { return writes_blocked_; }
  std::uint64_t reads_blocked() const { return reads_blocked_; }

 private:
  /// Post-write notification: once chunk_capacity_ writes are pending,
  /// on the empty->non-empty transition (the wake-relevant one), and at
  /// kernel flush points.
  void note_written() {
    if (++pending_written_ >= chunk_capacity_ || buffer_.size() == 1) {
      pending_written_ = 0;
      data_written_.notify_delta();
    }
  }

  /// Post-read analog of note_written() (full->non-full transition).
  void note_read() {
    if (++pending_read_ >= chunk_capacity_ || buffer_.size() == depth_ - 1) {
      pending_read_ = 0;
      data_read_.notify_delta();
    }
  }

  Kernel& kernel_;
  std::string name_;
  std::size_t depth_;
  /// Declares writer/reader domains to the parallel scheduler; labeled so
  /// Kernel::explain_group() can name this FIFO.
  DomainLink domain_link_{name_};
  std::deque<T> buffer_;
  Event data_written_;
  Event data_read_;
  std::uint64_t total_writes_ = 0;
  std::uint64_t total_reads_ = 0;
  std::uint64_t writes_blocked_ = 0;
  std::uint64_t reads_blocked_ = 0;
  /// Notification threshold, >= 1 (1 = notify on every access).
  std::size_t chunk_capacity_ = 1;
  std::size_t pending_written_ = 0;
  std::size_t pending_read_ = 0;
};

}  // namespace tdsim
