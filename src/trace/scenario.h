// Dual-mode scenario harness (paper SIV.A): "Each test is executed in two
// modes: 1. using regular FIFOs and no temporal decoupling, 2. using the
// Smart FIFO and temporal decoupling". We additionally run the Smart FIFO
// with chunked publication, and the case-study baseline (decoupled
// processes + synchronizing FIFOs); every mode must produce the reference
// mode's reordered trace.
//
// A scenario is written once against ScenarioEnv; the harness instantiates
// it per mode, runs it in a fresh kernel, and compares the recorded traces.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/fifo_interface.h"
#include "core/mutations.h"
#include "core/smart_fifo.h"
#include "core/sync_fifo.h"
#include "trace/trace.h"

namespace tdsim::trace {

/// The chunk capacity of Mode::SmartChunked (TDSIM_CHUNKED=1's default).
inline constexpr std::size_t kScenarioChunkCapacity = 16;

enum class Mode {
  /// Regular FIFO + plain wait() annotations: the reference (paper "timed
  /// with no decoupling and regular FIFO").
  Reference,
  /// Smart FIFO + inc() annotations: the paper's solution ("TDfull").
  SmartDecoupled,
  /// SmartDecoupled with every Smart FIFO at chunk capacity
  /// kScenarioChunkCapacity: publication batched per chunk.
  SmartChunked,
  /// Synchronizing FIFO + inc() annotations: the case-study baseline
  /// ("FIFOs that call sync at each access").
  SyncDecoupled,
};

inline const char* mode_name(Mode m) {
  switch (m) {
    case Mode::Reference: return "Reference";
    case Mode::SmartDecoupled: return "SmartDecoupled";
    case Mode::SmartChunked: return "SmartChunked";
    case Mode::SyncDecoupled: return "SyncDecoupled";
  }
  return "?";
}

/// Per-mode environment handed to a scenario. Owns the kernel, the trace
/// recorder, and every FIFO the scenario creates.
class ScenarioEnv {
 public:
  explicit ScenarioEnv(Mode mode,
                       const SmartFifoMutations* mutations = nullptr)
      : mode_(mode), mutations_(mutations), recorder_(kernel_) {}

  Kernel& kernel() { return kernel_; }
  Recorder& recorder() { return recorder_; }
  Mode mode() const { return mode_; }
  bool decoupled() const { return mode_ != Mode::Reference; }

  /// Timing annotation: inc() when decoupled, wait() otherwise. Must be
  /// called from a thread process (in decoupled modes, also from methods).
  void delay(Time d) {
    if (decoupled()) {
      kernel_.current_domain().inc(d);
    } else {
      kernel_.wait(d);
    }
  }

  /// Creates the mode-appropriate FIFO. The environment keeps ownership.
  FifoInterface<int>& fifo(const std::string& name, std::size_t depth) {
    switch (mode_) {
      case Mode::SmartDecoupled:
      case Mode::SmartChunked: {
        auto smart = std::make_unique<SmartFifo<int>>(kernel_, name, depth,
                                                      mutations_);
        if (mode_ == Mode::SmartChunked) {
          smart->set_chunk_capacity(kScenarioChunkCapacity);
        }
        fifos_.push_back(std::move(smart));
        break;
      }
      case Mode::Reference:
      case Mode::SyncDecoupled:
        fifos_.push_back(
            std::make_unique<SyncFifo<int>>(kernel_, name, depth));
        break;
    }
    return *fifos_.back();
  }

  /// Records a trace line stamped with the current process's local date.
  void log(std::string text) { recorder_.record(std::move(text)); }
  void log(const std::string& tag, std::uint64_t value) {
    recorder_.record(tag, value);
  }

 private:
  Mode mode_;
  const SmartFifoMutations* mutations_;
  Kernel kernel_;
  Recorder recorder_;
  std::vector<std::unique_ptr<FifoInterface<int>>> fifos_;
};

/// A scenario elaborates processes against the environment; the harness
/// then runs the kernel to completion.
using Scenario = std::function<void(ScenarioEnv&)>;

/// Runs `scenario` in `mode` and returns the environment (holding the
/// recorded trace). `until` bounds runaway scenarios.
inline std::unique_ptr<ScenarioEnv> run_scenario(
    const Scenario& scenario, Mode mode,
    const SmartFifoMutations* mutations = nullptr,
    Time until = Time::max()) {
  auto env = std::make_unique<ScenarioEnv>(mode, mutations);
  scenario(*env);
  env->kernel().run(until);
  return env;
}

}  // namespace tdsim::trace
