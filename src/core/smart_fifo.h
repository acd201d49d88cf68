// The Smart FIFO (paper SIII) -- the primary contribution of the
// reproduction.
//
// A bounded FIFO channel aware of the per-process local dates of temporal
// decoupling. Each cell stores the date of its last data insertion and the
// date of its last freeing:
//
//   * write raises the writer's local date to the first free cell's freeing
//     date, then stamps the insertion;
//   * read raises the reader's local date to the first busy cell's
//     insertion date, then stamps the freeing;
//   * a context switch happens only when the FIFO is *internally* full
//     (writer) or empty (reader): the process synchronizes and waits.
//
// This computes exactly the bounded-Kahn timing recurrence of the reference
// model (regular FIFO + one synchronization per access) while eliding
// almost all context switches; the test suite asserts bit-exact date
// equality between the two (paper SIV.A).
//
// Three interfaces are provided, per paper Fig. 4:
//   * writer side: write / is_full / not_full_event  (ordered dates),
//   * reader side: read / is_empty / not_empty_event (ordered dates),
//   * monitor    : get_size (synchronizing, low rate).
//
// Each side must always be accessed by the same process (or by processes
// whose access dates never decrease); this is checked at runtime. Use
// WriteArbiter / ReadArbiter when several processes share a side.
//
// Every synchronizing operation resolves the *calling process's* own
// SyncDomain (Kernel::current_domain()), so the writer and the reader may
// belong to different domains with different quanta: the cell date stamps
// carry the timing across the domain boundary unchanged.
//
// Publication (one path, any capacity): each side stamps its cells, then
// *publishes* them, which runs the per-access bookkeeping -- the delta
// wake of a blocked peer and the external-view transition checks -- once
// per published span (the DomainLink touch likewise runs once per span).
// A side publishes when its pending count reaches the chunk capacity
// (set_chunk_capacity, or the TDSIM_CHUNKED default): capacity 0 or 1
// publishes on every access, which is the paper's per-element FIFO, and
// capacity >= 2 batches the bookkeeping once per chunk. The mutation
// hooks (core/mutations.h) apply at every capacity. Occupancy, the
// blocking conditions and the block counters always read the operation
// totals, never the published prefixes: both sides of a channel share a
// concurrency group (DomainLink::touch merges them on first contact), so
// every access is serialized by the kernel and the totals are the ground
// truth on both sides. The published prefixes only delimit notification
// state -- the spans whose wakes and external-view events have not fired.
// Cross-worker visibility of the stamped cells comes from the
// Scheduler's mutex-guarded task handoff, as for every other piece of a
// group's state.
//
// Scheduling contract (what keeps every capacity bit-exact on the data
// path): every publication happens at a simulated date no later than the
// dates stamped on the published elements. A side publishes at chunk
// boundaries from its own process; the blocking paths publish both sides
// before suspending; and a channel at capacity >= 2 registers as a
// Kernel::ChunkFlushListener, so the kernel publishes every dirty chunk
// once per delta-cascade iteration (post-update, in Kernel::run() and,
// group-filtered, in the lookahead free-run cascades). Nothing
// unpublished survives a drained cascade and simulated time never
// advances past a dirty chunk, so a woken side always resumes at a date
// the element stamps dominate and the timing recurrence computes the
// per-element dates. Only the counts batched per chunk (delta
// notifications, external-event schedulings) change with the capacity.
// One visible artifact: a run whose last pending work is an *unobserved*
// external-view re-arm can end at a slightly different kernel date,
// because a larger chunk schedules fewer of those notifications; a
// synchronized observer of the events still sees every state change at
// the stamped dates. A capacity change publishes both sides first, so it
// is legal mid-run, even while the peer is suspended in a blocking call.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/fifo_interface.h"
#include "core/mutations.h"
#include "kernel/domain_link.h"
#include "kernel/event.h"
#include "kernel/kernel.h"
#include "kernel/local_clock.h"
#include "kernel/process.h"
#include "kernel/report.h"
#include "kernel/sync_domain.h"

namespace tdsim {

template <typename T>
class SmartFifo final : public FifoInterface<T>, public ChunkFlushListener {
 public:
  /// A Smart FIFO with as many cells as the hardware FIFO it models.
  /// `mutations`, when non-null, must outlive the FIFO (testing only).
  SmartFifo(Kernel& kernel, std::string name, std::size_t depth,
            const SmartFifoMutations* mutations = nullptr)
      : kernel_(kernel),
        name_(std::move(name)),
        cells_(depth),
        mutations_(mutations),
        internal_data_(kernel, name_ + ".internal_data"),
        internal_space_(kernel, name_ + ".internal_space"),
        not_empty_(kernel, name_ + ".not_empty"),
        not_full_(kernel, name_ + ".not_full") {
    if (depth == 0) {
      Report::error("SmartFifo " + name_ + ": depth must be >= 1");
    }
    set_chunk_capacity(kernel_.default_chunk_capacity());
  }

  ~SmartFifo() override {
    if (chunk_capacity_ >= 2) {
      kernel_.unregister_chunk_flush(this);
    }
  }

  // ------------------------------------------------------------------
  // Writer-side interface
  // ------------------------------------------------------------------

  /// Blocking write (paper SIII.A). The data is stamped with the writer's
  /// local date. Suspends (one context switch) only when every cell is
  /// internally busy. Callable from a method process only when guarded by
  /// is_full().
  void write(T value) override {
    // The writer's process, domain and clock are resolved once per access
    // (one thread-local read), and the local date is read once and shared
    // by the side-order check, the time bump and the stamp: a write that
    // neither blocks nor publishes calls nothing but Kernel::thread_exec().
    // This is the channel-side hot path the adaptive quantum tuner leans
    // on -- see "sync-cause hinting" below.
    Process& p = require_process("write");
    SyncDomain& domain = p.domain();
    LocalClock& clock = p.clock();
    const SmartFifoMutations* m = mutations_;  // read once per access
    if (total_writes_ == writes_published_) {
      domain_link_.touch(domain);  // once per chunk
    }
    Time date = clock.now();
    check_side_order(date, last_write_date_, "write");
    if (total_writes_ - total_reads_ == cells_.size()) {
      // Step 1: internally full -- synchronize, then wait for a free cell.
      // Both sides publish first: a reader waiting on internal_data_ needs
      // the blocked span's wake, and the reader's next publication is what
      // fires internal_space_. The synchronization may already let the
      // (possibly decoupled, but behind in execution order) reader run and
      // free cells, so the condition is re-checked before suspending.
      flush_chunks();
      writer_blocks_++;
      if (!mutated(m, &SmartFifoMutations::skip_sync_on_block)) {
        domain.sync(SyncCause::FifoFull);
      }
      while (total_writes_ - total_reads_ == cells_.size()) {
        kernel_.wait(internal_space_);
      }
      date = clock.now();  // the suspension moved the global date
    }
    Cell& cell = cells_[write_index_];
    // Step 2: the cell may still be "occupied" in real time; push the
    // writer's local date to the date the cell was freed.
    if (!mutated(m, &SmartFifoMutations::skip_writer_time_bump)) {
      raise_local_date(clock, date, cell.freeing_date);
    }
    last_write_date_ = date;
    // Step 3: fill the cell and stamp the insertion.
    cell.data = std::move(value);
    cell.busy = true;
    if (!mutated(m, &SmartFifoMutations::skip_insertion_date)) {
      cell.insertion_date = date;
    }
    write_index_ = next_index(write_index_);
    total_writes_++;
    // Step 4: publish -- wake a blocked reader, update the external view --
    // once the pending span reaches the chunk capacity (every write at 1).
    if (total_writes_ - writes_published_ >= chunk_capacity_) {
      publish_writes();
    }
  }

  /// External view of fullness at the caller's local date (paper SIII.B):
  /// full iff every cell is internally busy, or the first free cell's
  /// freeing date is still in the future. Constant time.
  bool is_full() override {
    Process* p = kernel_.current_process();
    domain_link_.touch(p != nullptr ? p->domain() : kernel_.sync_domain());
    if (total_writes_ - total_reads_ == cells_.size()) {
      return true;
    }
    if (mutated(mutations_, &SmartFifoMutations::naive_is_full)) {
      return false;
    }
    const Time freeing = cells_[write_index_].freeing_date;
    // From scheduler context (no process) the local date degenerates to
    // the global date, as local_time_stamp() used to.
    if (freeing > (p != nullptr ? p->clock().now() : kernel_.now())) {
      // Externally full until `freeing`. Re-arm the delayed notification:
      // an earlier pending notification may already have fired (waking the
      // caller spuriously) and consumed the one scheduled by read().
      schedule_external(not_full_, freeing);
      return true;
    }
    return false;
  }

  /// Notified (with a delay reaching the relevant freeing date) when the
  /// external view transitions away from full.
  Event& not_full_event() override { return not_full_; }

  // ------------------------------------------------------------------
  // Reader-side interface
  // ------------------------------------------------------------------

  /// Blocking read, symmetrical to write (paper SIII.A).
  T read() override {
    Process& p = require_process("read");
    SyncDomain& domain = p.domain();
    LocalClock& clock = p.clock();
    const SmartFifoMutations* m = mutations_;
    if (total_reads_ == reads_published_) {
      domain_link_.touch(domain);
    }
    Time date = clock.now();
    check_side_order(date, last_read_date_, "read");
    if (total_writes_ == total_reads_) {
      // Internally empty -- publish both sides, synchronize, then wait for
      // data; re-check after the synchronization (see write()).
      flush_chunks();
      reader_blocks_++;
      if (!mutated(m, &SmartFifoMutations::skip_sync_on_block)) {
        domain.sync(SyncCause::FifoEmpty);
      }
      while (total_writes_ == total_reads_) {
        kernel_.wait(internal_data_);
      }
      date = clock.now();
    }
    Cell& cell = cells_[read_index_];
    // The data may not have arrived yet in real time; push the reader's
    // local date to the insertion date.
    if (!mutated(m, &SmartFifoMutations::skip_reader_time_bump)) {
      raise_local_date(clock, date, cell.insertion_date);
    }
    last_read_date_ = date;
    T value = std::move(cell.data);
    cell.busy = false;
    if (!mutated(m, &SmartFifoMutations::skip_freeing_date)) {
      cell.freeing_date = date;
    }
    read_index_ = next_index(read_index_);
    total_reads_++;
    // Publish: wake a blocked writer, update the external view.
    if (total_reads_ - reads_published_ >= chunk_capacity_) {
      publish_reads();
    }
    return value;
  }

  /// External view of emptiness at the caller's local date (paper SIII.B):
  /// empty iff every cell is internally free, or the first busy cell's
  /// insertion date is still in the future. Constant time ("two tests
  /// instead of one for a regular FIFO").
  bool is_empty() override {
    Process* p = kernel_.current_process();
    domain_link_.touch(p != nullptr ? p->domain() : kernel_.sync_domain());
    if (total_writes_ == total_reads_) {
      return true;
    }
    if (mutated(mutations_, &SmartFifoMutations::naive_is_empty)) {
      return false;
    }
    const Time insertion = cells_[read_index_].insertion_date;
    if (insertion > (p != nullptr ? p->clock().now() : kernel_.now())) {
      // Externally empty until `insertion`; re-arm the delayed
      // notification (see is_full()).
      schedule_external(not_empty_, insertion);
      return true;
    }
    return false;
  }

  /// Notified (delayed to the relevant insertion date) when the external
  /// view transitions away from empty.
  Event& not_empty_event() override { return not_empty_; }

  // ------------------------------------------------------------------
  // Monitor interface (paper SIII.C)
  // ------------------------------------------------------------------

  /// Real occupancy of the modeled hardware FIFO at the caller's date.
  /// Synchronizes the caller, then reconstructs the occupancy from the
  /// per-cell (insertion date, freeing date) pairs; a cell's internal state
  /// may be ahead of its real state because writers and readers run ahead
  /// of the global date. Linear in the depth -- this is the low-rate
  /// interface.
  std::size_t get_size() override {
    Process& p = require_process("get_size");
    SyncDomain& domain = p.domain();
    domain_link_.touch(domain);
    // 1. synchronize the caller (the monitor interface is the low-rate,
    // synchronizing one).
    domain.sync(SyncCause::Monitor);
    monitor_queries_++;
    if (mutated(mutations_, &SmartFifoMutations::naive_get_size)) {
      return internal_size();
    }
    const Time now = kernel_.now();
    std::size_t count = 0;
    // 2. iterate over both internally busy and internally free cells.
    for (const Cell& cell : cells_) {
      if (cell.busy) {
        // Really busy if the insertion already happened, or if the cell
        // was freed-and-refilled ahead of real time (the previous data is
        // then still present at `now`).
        if (cell.insertion_date <= now || cell.freeing_date > now) {
          count++;
        }
      } else {
        // Really busy if the freeing is still ahead of real time and the
        // data insertion already happened.
        if (cell.freeing_date > now && cell.insertion_date <= now) {
          count++;
        }
      }
    }
    return count;
  }

  // ------------------------------------------------------------------
  // Burst extension (paper SIV.C: "slightly extended to manage efficiently
  // the packetization")
  // ------------------------------------------------------------------

  /// Writes `values`, advancing the writer's local date by `per_word`
  /// after each word, with a single side-ordering check. This is what a
  /// packetizing network interface uses to emit a whole packet.
  template <typename It>
  void write_burst(It first, It last, Time per_word) {
    LocalClock& clock = require_process("write_burst").clock();
    for (It it = first; it != last; ++it) {
      write(*it);
      clock.inc(per_word);
    }
  }

  /// Reads `count` words into `out`, advancing the reader's local date by
  /// `per_word` after each word.
  template <typename OutIt>
  void read_burst(OutIt out, std::size_t count, Time per_word) {
    LocalClock& clock = require_process("read_burst").clock();
    for (std::size_t i = 0; i < count; ++i) {
      *out++ = read();
      clock.inc(per_word);
    }
  }

  // ------------------------------------------------------------------
  // Introspection
  // ------------------------------------------------------------------

  std::size_t depth() const override { return cells_.size(); }
  const std::string& name() const { return name_; }
  Kernel& kernel() const { return kernel_; }

  /// Internal occupancy (how many cells hold data, regardless of dates).
  /// Debug only -- the real occupancy is get_size().
  std::size_t internal_size() const {
    return static_cast<std::size_t>(total_writes_ - total_reads_);
  }

  /// Publication granularity (see the header comment): each side
  /// publishes every `capacity` accesses; 0 or 1 publishes on every
  /// access. Publishes both sides first, so a change is legal mid-run
  /// from any context serialized with both sides -- typically one of the
  /// channel's own processes, or elaboration -- even while the peer is
  /// suspended in a blocking access. Only capacities >= 2 register with
  /// the kernel's flush points.
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
  std::size_t chunk_capacity() const {
    return chunk_capacity_ >= 2 ? chunk_capacity_ : 0;
  }

  /// Kernel flush point (horizons, lookahead waves, blocking paths):
  /// publishes both sides' pending spans. Returns whether anything was
  /// published (the kernel re-runs the delta cascade if so).
  bool flush_chunks() override {
    const bool wrote = publish_writes();
    const bool freed = publish_reads();
    return wrote || freed;
  }

  /// The channel's concurrency group, for group-filtered flushes inside
  /// lookahead free-run extensions.
  SyncDomain* chunk_home_domain() const override {
    return domain_link_.first_domain();
  }

  std::uint64_t total_writes() const override { return total_writes_; }
  std::uint64_t total_reads() const override { return total_reads_; }
  /// Number of times the writer (reader) suspended on an internally
  /// full (empty) FIFO -- i.e. the context switches the paper counts.
  std::uint64_t writer_blocks() const { return writer_blocks_; }
  std::uint64_t reader_blocks() const { return reader_blocks_; }
  std::uint64_t monitor_queries() const { return monitor_queries_; }

  /// Disables the runtime check that dates never decrease on a side.
  /// Only for benchmarks measuring the check's cost.
  void set_side_order_checking(bool enabled) { check_side_order_ = enabled; }

  /// Declares this FIFO's minimum modeling latency to the concurrency
  /// machinery (DomainLink::set_min_latency): shown by
  /// Kernel::explain_group() and the value to hand to the decoupled
  /// Kernel::link_domains(a, b, min_latency) overload when the coupling is
  /// restructured for per-group lookahead.
  void declare_min_latency(Time latency) {
    domain_link_.set_min_latency(latency);
  }

  /// Derived declaration for the common case: a hardware FIFO whose cells
  /// each take `per_cell` to traverse imposes at least depth x per_cell of
  /// back-pressure latency between the sides.
  void declare_cell_latency(Time per_cell) {
    declare_min_latency(Time::from_ps(per_cell.ps() * cells_.size()));
  }

 private:
  struct Cell {
    T data{};
    /// Date of the last data insertion into this cell.
    Time insertion_date{};
    /// Date of the last freeing of this cell.
    Time freeing_date{};
    bool busy = false;
  };

  /// Whether the injected bug `flag` is on. Callers on the data path pass
  /// mutations_ read once per access, so a FIFO without injected bugs
  /// pays a register test per hook, not a load.
  static bool mutated(const SmartFifoMutations* m,
                      bool SmartFifoMutations::* flag) {
    return m != nullptr && m->*flag;
  }

  std::size_t next_index(std::size_t i) const {
    return (i + 1 == cells_.size()) ? 0 : i + 1;
  }

  /// The ring position `back` accesses before position `index`. Only a
  /// capacity above the depth lets `back` exceed the depth.
  std::size_t index_before(std::size_t index, std::uint64_t back) const {
    const std::size_t depth = cells_.size();
    const std::size_t b =
        static_cast<std::size_t>(back <= depth ? back : back % depth);
    return index >= b ? index - b : index + depth - b;
  }

  /// The calling process -- the data-path interfaces are only usable from
  /// inside a simulation process of this FIFO's kernel (there is no local
  /// date to stamp otherwise).
  Process& require_process(const char* what) const {
    Process* p = kernel_.current_process();
    if (p == nullptr) [[unlikely]] {
      outside_process_error(what);
    }
    return *p;
  }

  /// Both sides require non-decreasing access dates (paper Fig. 4
  /// "requires ordered dates"); violating this means an arbiter is
  /// missing in the design. `date` is the caller's local date.
  void check_side_order(Time date, Time last_date, const char* side) const {
    if (check_side_order_ && date < last_date) [[unlikely]] {
      side_order_error(date, last_date, side);
    }
  }

  /// Raises the caller's local date `date` (its clock's now()) to `stamp`
  /// when the stamp is in its future -- LocalClock::advance_to without
  /// re-reading the global date.
  static void raise_local_date(LocalClock& clock, Time& date, Time stamp) {
    if (stamp > date) {
      clock.inc(stamp - date);
      date = stamp;
    }
  }

  [[noreturn, gnu::cold, gnu::noinline]] void outside_process_error(
      const char* what) const {
    Report::error("SmartFifo " + name_ + ": " + what +
                  " called outside of a simulation process");
  }

  [[noreturn, gnu::cold, gnu::noinline]] void side_order_error(
      Time date, Time last_date, const char* side) const {
    Report::error("SmartFifo " + name_ + ": " + side +
                  " access date went backwards (" + date.to_string() +
                  " after " + last_date.to_string() +
                  "); an arbiter is required");
  }

  /// Schedules an external-view event at absolute date `at`. The
  /// notification is delayed so that synchronized observers see the state
  /// change exactly when the real FIFO changes (paper SIII.B). A kernel
  /// flush point can publish from scheduler context at a date past the
  /// stamped one; a stale `at` then degrades to a delta notification
  /// instead of underflowing the delay.
  void schedule_external(Event& event, Time at) {
    const Time now = kernel_.now();
    if (at < now ||
        mutated(mutations_, &SmartFifoMutations::undelayed_external_events)) {
      event.notify_delta();
    } else {
      event.notify(at - now);
    }
  }

  /// Publishes the pending write span: one delta wake, and the
  /// external-view transition checks run once against the span's
  /// boundary cells.
  bool publish_writes() {
    const std::uint64_t pending = total_writes_ - writes_published_;
    if (pending == 0) {
      return false;
    }
    // Transition tests run on the *published* view (what the events have
    // told observers so far); the published view catches up to the totals
    // at every cascade iteration, so every empty->nonempty transition
    // fires here no later than one flush after the truth changed -- at
    // the same simulated date.
    const bool was_published_empty = (writes_published_ == reads_published_);
    writes_published_ = total_writes_;
    internal_data_.notify_delta();
    if (was_published_empty) {
      // not_empty case 1: data appears at the first published insertion.
      const Cell& first = cells_[index_before(write_index_, pending)];
      schedule_external(not_empty_, first.insertion_date);
    }
    // not_full case 2: the next write target exists but stays occupied in
    // real time until its freeing date.
    if (total_writes_ - reads_published_ < cells_.size()) {
      const Time freeing = cells_[write_index_].freeing_date;
      if (freeing > last_write_date_) {
        schedule_external(not_full_, freeing);
      }
    }
    return true;
  }

  /// Reader-side mirror of publish_writes().
  bool publish_reads() {
    const std::uint64_t pending = total_reads_ - reads_published_;
    if (pending == 0) {
      return false;
    }
    const bool was_published_full =
        (writes_published_ - reads_published_ == cells_.size());
    reads_published_ = total_reads_;
    internal_space_.notify_delta();
    if (was_published_full) {
      // not_full case 1: space appears at the first published freeing.
      const Cell& first = cells_[index_before(read_index_, pending)];
      schedule_external(not_full_, first.freeing_date);
    }
    // not_empty case 2: published data remains but only arrives in real
    // time at its insertion date.
    if (writes_published_ != total_reads_) {
      const Time insertion = cells_[read_index_].insertion_date;
      if (insertion > last_read_date_) {
        schedule_external(not_empty_, insertion);
      }
    }
    return true;
  }

  Kernel& kernel_;
  std::string name_;
  std::vector<Cell> cells_;
  /// Injected bugs (testing only); null for every other FIFO.
  const SmartFifoMutations* mutations_;
  /// Writer and reader may live in different domains (the cell stamps
  /// carry the dates across); the link declares that ordering to the
  /// parallel scheduler and, labeled with the FIFO's name, shows up in
  /// Kernel::explain_group(). Sync-cause hinting: the blocking paths
  /// attribute their syncs precisely (FifoFull / FifoEmpty / Monitor, all
  /// accuracy_relevant()), which is exactly the signal the adaptive
  /// quantum controller shrinks the quantum on.
  DomainLink domain_link_{name_};

  Time last_write_date_{};
  Time last_read_date_{};
  bool check_side_order_ = true;

  /// Immediate (delta) wake-ups for suspended blocking calls.
  Event internal_data_;
  Event internal_space_;
  /// Delayed external-view events (paper Fig. 4).
  Event not_empty_;
  Event not_full_;

  /// Operation totals: the ground truth for occupancy on both sides.
  std::uint64_t total_writes_ = 0;
  std::uint64_t total_reads_ = 0;
  /// The prefixes of the totals already published (see the header
  /// comment).
  std::uint64_t writes_published_ = 0;
  std::uint64_t reads_published_ = 0;
  /// Ring positions of the next write and read: total % depth, kept as
  /// maintained indices so no access pays a division.
  std::size_t write_index_ = 0;
  std::size_t read_index_ = 0;
  /// Publication threshold, >= 1 (1 = per-element publication).
  std::size_t chunk_capacity_ = 1;

  std::uint64_t writer_blocks_ = 0;
  std::uint64_t reader_blocks_ = 0;
  std::uint64_t monitor_queries_ = 0;
};

}  // namespace tdsim
