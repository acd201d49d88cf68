#include "span.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace tdbench {

const char* to_string(Op op) {
  switch (op) {
    case Op::Run: return "kernel.run";
    case Op::Setup: return "elab.setup";
    case Op::Spawn: return "elab.spawn";
    case Op::Respawn: return "elab.respawn";
    case Op::FifoWrite: return "fifo.write";
    case Op::FifoRead: return "fifo.read";
    case Op::SyncInc: return "sync.inc";
    case Op::SyncIncAndSync: return "sync.inc_and_sync_if_needed";
    case Op::ModelSpin: return "model.spin";
    case Op::SnapshotCapture: return "snapshot.capture";
    case Op::ForkReplay: return "fork.replay";
    case Op::FleetScenario: return "fleet.scenario";
    case Op::kCount: break;
  }
  return "?";
}

void SpanAgg::add(std::int64_t ns) {
  ++count;
  sum_ns += ns;
  const auto u = static_cast<std::uint64_t>(ns);
  const std::size_t b = u == 0 ? 0 : static_cast<std::size_t>(std::bit_width(u) - 1);
  ++log2_hist[std::min(b, kBuckets - 1)];
}

void SpanAgg::merge(const SpanAgg& o) {
  count += o.count;
  sum_ns += o.sum_ns;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    log2_hist[b] += o.log2_hist[b];
  }
}

double SpanAgg::quantile_ns(double q) const {
  if (count == 0) {
    return 0;
  }
  const auto rank = static_cast<std::uint64_t>(q * double(count - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += log2_hist[b];
    if (seen >= rank) {
      return double(std::uint64_t{2} << b);
    }
  }
  return double(std::uint64_t{1} << kBuckets);
}

Tracer::Tracer() {
  // The cost of an empty span is the gap between two back-to-back clock
  // reads; the median of many is subtracted from every recorded span.
  std::vector<std::int64_t> gaps(20'001);
  for (std::int64_t& gap : gaps) {
    const std::int64_t start = SpanSink::now_ns();
    gap = SpanSink::now_ns() - start;
  }
  std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2, gaps.end());
  overhead_ns_ = gaps[gaps.size() / 2];

  // The whole cost a span adds to its caller: two clock reads plus the
  // aggregation, timed over blocks of empty spans into a throwaway sink.
  SpanSink probe(0, 0, overhead_ns_, &root_);
  constexpr int kBlock = 1000;
  std::vector<double> per_span(41);
  for (double& cost : per_span) {
    const std::int64_t start = SpanSink::now_ns();
    for (int i = 0; i < kBlock; ++i) {
      probe.record(Op::Run, Outcome::Fast, SpanSink::now_ns(),
                   SpanSink::now_ns());
    }
    cost = double(SpanSink::now_ns() - start) / kBlock;
  }
  std::nth_element(per_span.begin(), per_span.begin() + per_span.size() / 2,
                   per_span.end());
  span_cost_ns_ = per_span[per_span.size() / 2];

  main_.reset(new SpanSink(next_sink_id_++, kRawBudget, overhead_ns_, &root_));
}

std::unique_ptr<SpanSink> Tracer::make_sink(std::size_t expected) {
  const std::size_t left = kRawBudget - raw_handed_out_;
  const std::size_t cap =
      std::min(left, kRawBudget / std::max<std::size_t>(1, expected));
  raw_handed_out_ += cap;
  return std::unique_ptr<SpanSink>(
      new SpanSink(next_sink_id_++, cap, overhead_ns_, &root_));
}

void Tracer::absorb(std::unique_ptr<SpanSink> sink) {
  for (std::size_t op = 0; op < kOpCount; ++op) {
    for (std::size_t outcome = 0; outcome < 2; ++outcome) {
      merged_[op][outcome].merge(sink->agg_[op][outcome]);
    }
  }
  merged_quantum_ps_ += sink->quantum_ps_sum;
  raw_.insert(raw_.end(), sink->raw_.begin(), sink->raw_.end());
}

std::int64_t Tracer::begin_root() {
  root_ = ++roots_opened_;
  return SpanSink::now_ns();
}

void Tracer::end_root(Op op, std::int64_t start_ns) {
  // Recorded while still open, so a root's parent field is its own id.
  main_->record(op, Outcome::Fast, start_ns, SpanSink::now_ns());
  root_ = 0;
}

SpanAgg Tracer::total(Op op, Outcome outcome) const {
  SpanAgg agg = merged_[static_cast<std::size_t>(op)]
                       [static_cast<std::size_t>(outcome)];
  agg.merge(main_->agg_[static_cast<std::size_t>(op)]
                       [static_cast<std::size_t>(outcome)]);
  return agg;
}

SpanAgg Tracer::total(Op op) const {
  SpanAgg agg = total(op, Outcome::Fast);
  agg.merge(total(op, Outcome::Suspended));
  return agg;
}

double Tracer::quantum_ps_sum() const {
  return merged_quantum_ps_ + main_->quantum_ps_sum;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::vector<RawSpan> spans = raw_;
  spans.insert(spans.end(), main_->raw_.begin(), main_->raw_.end());
  std::sort(spans.begin(), spans.end(),
            [](const RawSpan& a, const RawSpan& b) {
              return a.start_ns < b.start_ns;
            });
  if (spans.size() > kRawBudget) {
    spans.resize(kRawBudget);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const RawSpan& s = spans[i];
    const bool root = s.op == Op::Run || s.op == Op::Setup;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"%s\":%u}}",
                 i == 0 ? "" : ",", to_string(s.op),
                 s.outcome == Outcome::Fast ? "fast" : "suspended", s.sink,
                 double(s.start_ns - t0) / 1e3,
                 double(s.end_ns - s.start_ns) / 1e3, root ? "id" : "parent",
                 s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace tdbench
