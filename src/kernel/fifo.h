// Regular bounded FIFO channel (sc_fifo analog) with immediate visibility:
// a value written at date t is readable at date t. Blocking accesses are for
// thread processes; non-blocking accessors and events serve method
// processes. This is the channel used by the paper's untimed model and, via
// SyncFifo, by the "TDless" reference model.
#pragma once

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
class Fifo {
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
    data_written_.notify_delta();
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
    data_read_.notify_delta();
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
    data_written_.notify_delta();
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
    data_read_.notify_delta();
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

  // Lifetime access counters, for tests and benchmarks.
  std::uint64_t total_writes() const { return total_writes_; }
  std::uint64_t total_reads() const { return total_reads_; }
  std::uint64_t writes_blocked() const { return writes_blocked_; }
  std::uint64_t reads_blocked() const { return reads_blocked_; }

 private:
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
};

}  // namespace tdsim
