// Spans for the traced repetition. Recorded only in bench/suite code,
// around calls into tdsim's public functions; the kernel itself carries
// no instrumentation.
//
// Each span is aggregated per (op, outcome) -- count, sum and a log2
// histogram for p50/p99 -- and the first spans are also kept raw (op,
// start, end, parent) for the Chrome trace-event file. A SpanSink belongs
// to one serialized execution context: the driving thread, or one
// concurrency group of a parallel workload. Groups are serialized, so a
// sink's hot path needs no atomics; sinks are merged into the Tracer once
// their group is quiescent. The cost of an empty span is calibrated at
// start-up and subtracted from every span.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace tdbench {

enum class Op : std::uint8_t {
  Run,              ///< Kernel::run / run_to_completion / Supervisor::run
  Setup,            ///< elaboration, Kernel construction to last spawn
  Spawn,            ///< Kernel::spawn_thread during elaboration
  Respawn,          ///< Kernel::spawn_thread from a running process
  FifoWrite,        ///< SmartFifo::write
  FifoRead,         ///< SmartFifo::read
  SyncInc,          ///< SyncDomain::inc
  SyncIncAndSync,   ///< SyncDomain::inc_and_sync_if_needed
  ModelSpin,        ///< the workload's own per-step computation
  SnapshotCapture,  ///< Kernel::snapshot
  ForkReplay,       ///< Kernel::fork
  FleetScenario,    ///< one scenario, fork through completion callback
  kCount,
};

inline constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::kCount);

const char* to_string(Op op);

/// Fast: the call returned without suspending its process. Suspended: it
/// synchronized or blocked, so its span also covers whatever else the
/// kernel ran in between.
enum class Outcome : std::uint8_t { Fast, Suspended };

struct SpanAgg {
  static constexpr std::size_t kBuckets = 40;
  std::uint64_t count = 0;
  std::int64_t sum_ns = 0;
  /// Bucket b counts spans of [2^b, 2^(b+1)) ns; bucket 0 also takes 0.
  std::array<std::uint64_t, kBuckets> log2_hist{};

  void add(std::int64_t ns);
  void merge(const SpanAgg& o);
  /// Upper edge of the bucket holding quantile q, in ns.
  double quantile_ns(double q) const;
  double mean_ns() const { return count == 0 ? 0.0 : double(sum_ns) / count; }
};

struct RawSpan {
  Op op;
  Outcome outcome;
  std::uint32_t sink;
  /// Id of the enclosing root span (a root carries its own id).
  std::uint32_t parent;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class SpanSink {
 public:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void record(Op op, Outcome outcome, std::int64_t start_ns,
              std::int64_t end_ns) {
    std::int64_t d = end_ns - start_ns - overhead_ns_;
    if (d < 0) {
      d = 0;
    }
    agg_[static_cast<std::size_t>(op)][static_cast<std::size_t>(outcome)]
        .add(d);
    if (raw_.size() < raw_cap_) {
      raw_.push_back({op, outcome, id_, *root_, start_ns, start_ns + d});
    }
  }

  /// Sum of SyncDomain::quantum() seen by traced sync calls, in ps.
  double quantum_ps_sum = 0;

 private:
  friend class Tracer;
  SpanSink(std::uint32_t id, std::size_t raw_cap, std::int64_t overhead_ns,
           const std::uint32_t* root)
      : id_(id), raw_cap_(raw_cap), overhead_ns_(overhead_ns), root_(root) {
    raw_.reserve(raw_cap_);
  }

  std::uint32_t id_;
  std::size_t raw_cap_;
  std::int64_t overhead_ns_;
  /// The Tracer's open root span; written only while no group runs.
  const std::uint32_t* root_;
  std::array<std::array<SpanAgg, 2>, kOpCount> agg_{};
  std::vector<RawSpan> raw_;
};

class Tracer {
 public:
  /// Keeps at most this many raw spans for the trace file.
  static constexpr std::size_t kRawBudget = 100'000;

  /// Calibrates the empty-span cost.
  Tracer();

  /// Subtracted from every span: the gap between two clock reads.
  std::int64_t overhead_ns() const { return overhead_ns_; }

  /// What one span costs the code around it (clock reads + aggregation);
  /// the kernel's self time discounts it for every span inside the run.
  double span_cost_ns() const { return span_cost_ns_; }

  /// The driving thread's sink.
  SpanSink& main() { return *main_; }

  /// A sink for one serialized context; `expected` siblings share what
  /// is left of the raw-span budget.
  std::unique_ptr<SpanSink> make_sink(std::size_t expected = 1);

  /// Merges a quiescent sink and frees it.
  void absorb(std::unique_ptr<SpanSink> sink);

  /// Root spans on the main sink; spans recorded between begin_root and
  /// end_root name the root as their parent.
  std::int64_t begin_root();
  void end_root(Op op, std::int64_t start_ns);

  /// Merged aggregate over every absorbed sink and the main sink.
  SpanAgg total(Op op, Outcome outcome) const;
  SpanAgg total(Op op) const;
  double quantum_ps_sum() const;

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t overhead_ns_ = 0;
  double span_cost_ns_ = 0;
  std::uint32_t root_ = 0;
  std::uint32_t roots_opened_ = 0;
  std::uint32_t next_sink_id_ = 0;
  std::size_t raw_handed_out_ = 0;
  std::unique_ptr<SpanSink> main_;
  std::array<std::array<SpanAgg, 2>, kOpCount> merged_{};
  double merged_quantum_ps_ = 0;
  std::vector<RawSpan> raw_;
};

}  // namespace tdbench
