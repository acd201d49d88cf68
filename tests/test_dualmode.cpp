// Dual-mode validation (paper SIV.A): every scenario runs in the reference
// mode (regular FIFO, no decoupling), in the Smart FIFO mode (full temporal
// decoupling), in the Smart FIFO mode with chunked publication (capacity
// 16), and in the case-study baseline mode (decoupled processes,
// synchronizing FIFOs). After reordering by date, the traces must be
// identical -- behavior and timing unchanged, only the schedule differs.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "trace/scenario.h"

namespace tdsim {
namespace {

using trace::Mode;
using trace::Scenario;
using trace::ScenarioEnv;

/// Runs `scenario` in every mode and asserts each mode's sorted trace
/// equals the Reference one.
void expect_all_modes_equal(const Scenario& scenario) {
  auto reference = trace::run_scenario(scenario, Mode::Reference);
  ASSERT_GT(reference->recorder().size(), 0u) << "scenario recorded nothing";
  for (Mode mode : {Mode::SmartDecoupled, Mode::SmartChunked,
                    Mode::SyncDecoupled}) {
    auto run = trace::run_scenario(scenario, mode);
    const auto diff =
        trace::compare_sorted(reference->recorder(), run->recorder());
    EXPECT_FALSE(diff.has_value())
        << "Reference vs " << trace::mode_name(mode) << ": " << *diff;
  }
}

/// Writer writes then delays `write_period`; reader delays `read_period`
/// then reads. The paper's Fig. 1 shape, parameterized.
Scenario producer_consumer(std::size_t depth, Time write_period,
                           Time read_period, int items) {
  return [=](ScenarioEnv& env) {
    auto& fifo = env.fifo("f", depth);
    env.kernel().spawn_thread("writer", [&env, &fifo, write_period, items] {
      for (int i = 0; i < items; ++i) {
        fifo.write(i);
        env.log("wrote", static_cast<std::uint64_t>(i));
        env.delay(write_period);
      }
    });
    env.kernel().spawn_thread("reader", [&env, &fifo, read_period, items] {
      for (int i = 0; i < items; ++i) {
        env.delay(read_period);
        const int v = fifo.read();
        env.log("read", static_cast<std::uint64_t>(v));
      }
    });
  };
}

TEST(DualMode, Fig1Basic) {
  expect_all_modes_equal(producer_consumer(1, 20_ns, 15_ns, 3));
}

TEST(DualMode, FastProducerSlowConsumer) {
  expect_all_modes_equal(producer_consumer(4, 2_ns, 50_ns, 40));
}

TEST(DualMode, SlowProducerFastConsumer) {
  expect_all_modes_equal(producer_consumer(4, 50_ns, 2_ns, 40));
}

TEST(DualMode, MatchedRates) {
  expect_all_modes_equal(producer_consumer(8, 10_ns, 10_ns, 100));
}

TEST(DualMode, ZeroDelayWriter) {
  // All writes carry the same date; reads are paced.
  expect_all_modes_equal(producer_consumer(2, Time{}, 7_ns, 20));
}

class DualModeDepthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DualModeDepthSweep, Fig1ParametersAcrossDepths) {
  expect_all_modes_equal(producer_consumer(GetParam(), 20_ns, 15_ns, 30));
}

TEST_P(DualModeDepthSweep, InvertedRatesAcrossDepths) {
  expect_all_modes_equal(producer_consumer(GetParam(), 15_ns, 20_ns, 30));
}

INSTANTIATE_TEST_SUITE_P(Depths, DualModeDepthSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 64));

TEST(DualMode, BurstyProducer) {
  // Bursts of back-to-back writes separated by long gaps.
  expect_all_modes_equal([](ScenarioEnv& env) {
    auto& fifo = env.fifo("f", 4);
    env.kernel().spawn_thread("writer", [&env, &fifo] {
      for (int burst = 0; burst < 6; ++burst) {
        for (int i = 0; i < 5; ++i) {
          fifo.write(burst * 5 + i);
          env.log("wrote", static_cast<std::uint64_t>(burst * 5 + i));
          env.delay(1_ns);
        }
        env.delay(200_ns);
      }
    });
    env.kernel().spawn_thread("reader", [&env, &fifo] {
      for (int i = 0; i < 30; ++i) {
        const int v = fifo.read();
        env.log("read", static_cast<std::uint64_t>(v));
        env.delay(12_ns);
      }
    });
  });
}

TEST(DualMode, ThreeStagePipeline) {
  // The Fig. 5 topology: source -> transmitter -> sink over two FIFOs.
  expect_all_modes_equal([](ScenarioEnv& env) {
    auto& f1 = env.fifo("f1", 2);
    auto& f2 = env.fifo("f2", 2);
    env.kernel().spawn_thread("source", [&env, &f1] {
      for (int i = 0; i < 25; ++i) {
        f1.write(i);
        env.delay(10_ns);
      }
    });
    env.kernel().spawn_thread("transmitter", [&env, &f1, &f2] {
      for (int i = 0; i < 25; ++i) {
        const int v = f1.read();
        env.delay(4_ns);
        f2.write(v * 2);
        env.log("forwarded", static_cast<std::uint64_t>(v));
      }
    });
    env.kernel().spawn_thread("sink", [&env, &f2] {
      for (int i = 0; i < 25; ++i) {
        const int v = f2.read();
        env.log("sink", static_cast<std::uint64_t>(v));
        env.delay(11_ns);
      }
    });
  });
}

TEST(DualMode, FeedbackLoop) {
  // Request/response ping-pong through two FIFOs: blocking happens on both
  // sides alternately.
  expect_all_modes_equal([](ScenarioEnv& env) {
    auto& req = env.fifo("req", 1);
    auto& rsp = env.fifo("rsp", 1);
    env.kernel().spawn_thread("client", [&env, &req, &rsp] {
      for (int i = 0; i < 15; ++i) {
        req.write(i);
        env.delay(3_ns);
        const int v = rsp.read();
        env.log("response", static_cast<std::uint64_t>(v));
        env.delay(5_ns);
      }
    });
    env.kernel().spawn_thread("server", [&env, &req, &rsp] {
      for (int i = 0; i < 15; ++i) {
        const int v = req.read();
        env.delay(7_ns);
        rsp.write(v + 100);
        env.log("served", static_cast<std::uint64_t>(v));
      }
    });
  });
}

TEST(DualMode, ManyParallelStreams) {
  // Several independent producer/consumer pairs with different cadences in
  // one simulation; decoupling reorders their execution heavily.
  expect_all_modes_equal([](ScenarioEnv& env) {
    for (int s = 0; s < 5; ++s) {
      auto& fifo = env.fifo("f" + std::to_string(s), 1 + s);
      const Time wp = Time::from_ps(1000 * (s + 1));
      const Time rp = Time::from_ps(1500 * (5 - s));
      const std::string tag = "s" + std::to_string(s);
      env.kernel().spawn_thread(tag + ".writer", [&env, &fifo, wp, tag] {
        for (int i = 0; i < 20; ++i) {
          fifo.write(i);
          env.log(tag + ".wrote", static_cast<std::uint64_t>(i));
          env.delay(wp);
        }
      });
      env.kernel().spawn_thread(tag + ".reader", [&env, &fifo, rp, tag] {
        for (int i = 0; i < 20; ++i) {
          env.delay(rp);
          env.log(tag + ".read",
                  static_cast<std::uint64_t>(fifo.read()));
        }
      });
    }
  });
}

TEST(DualMode, WriterFinishesEarly) {
  // Writer terminates long before the reader drains the FIFO.
  expect_all_modes_equal([](ScenarioEnv& env) {
    auto& fifo = env.fifo("f", 8);
    env.kernel().spawn_thread("writer", [&env, &fifo] {
      for (int i = 0; i < 8; ++i) {
        fifo.write(i);
      }
      env.log("writer-done");
    });
    env.kernel().spawn_thread("reader", [&env, &fifo] {
      for (int i = 0; i < 8; ++i) {
        env.delay(100_ns);
        env.log("read", static_cast<std::uint64_t>(fifo.read()));
      }
    });
  });
}

// ---------------------------------------------------------------------
// Seeded random scenarios (paper: "some are random... random tests use
// twice the same seed").
// ---------------------------------------------------------------------

struct RandomParams {
  std::uint32_t seed;
  std::size_t depth;
};

class DualModeRandom : public ::testing::TestWithParam<RandomParams> {};

TEST_P(DualModeRandom, RandomRatesAndJitter) {
  const RandomParams params = GetParam();
  expect_all_modes_equal([params](ScenarioEnv& env) {
    auto& fifo = env.fifo("f", params.depth);
    env.kernel().spawn_thread("writer", [&env, &fifo, params] {
      std::mt19937 rng(params.seed);  // same seed in every mode
      std::uniform_int_distribution<int> delay(0, 30);
      for (int i = 0; i < 60; ++i) {
        fifo.write(i);
        env.log("wrote", static_cast<std::uint64_t>(i));
        env.delay(Time(static_cast<std::uint64_t>(delay(rng)), TimeUnit::NS));
      }
    });
    env.kernel().spawn_thread("reader", [&env, &fifo, params] {
      std::mt19937 rng(params.seed ^ 0x9e3779b9u);
      std::uniform_int_distribution<int> delay(0, 30);
      for (int i = 0; i < 60; ++i) {
        env.delay(Time(static_cast<std::uint64_t>(delay(rng)), TimeUnit::NS));
        env.log("read", static_cast<std::uint64_t>(fifo.read()));
      }
    });
  });
}

TEST_P(DualModeRandom, RandomPipeline) {
  const RandomParams params = GetParam();
  expect_all_modes_equal([params](ScenarioEnv& env) {
    auto& f1 = env.fifo("f1", params.depth);
    auto& f2 = env.fifo("f2", 1 + params.depth / 2);
    env.kernel().spawn_thread("source", [&env, &f1, params] {
      std::mt19937 rng(params.seed * 3 + 1);
      std::uniform_int_distribution<int> delay(0, 12);
      for (int i = 0; i < 50; ++i) {
        f1.write(i);
        env.delay(Time(static_cast<std::uint64_t>(delay(rng)), TimeUnit::NS));
      }
    });
    env.kernel().spawn_thread("stage", [&env, &f1, &f2, params] {
      std::mt19937 rng(params.seed * 7 + 5);
      std::uniform_int_distribution<int> delay(0, 12);
      for (int i = 0; i < 50; ++i) {
        const int v = f1.read();
        env.delay(Time(static_cast<std::uint64_t>(delay(rng)), TimeUnit::NS));
        f2.write(v);
      }
    });
    env.kernel().spawn_thread("sink", [&env, &f2, params] {
      std::mt19937 rng(params.seed * 11 + 13);
      std::uniform_int_distribution<int> delay(0, 12);
      for (int i = 0; i < 50; ++i) {
        env.log("sink", static_cast<std::uint64_t>(f2.read()));
        env.delay(Time(static_cast<std::uint64_t>(delay(rng)), TimeUnit::NS));
      }
    });
  });
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DualModeRandom,
    ::testing::Values(RandomParams{1, 1}, RandomParams{2, 2},
                      RandomParams{3, 4}, RandomParams{4, 8},
                      RandomParams{5, 3}, RandomParams{42, 1},
                      RandomParams{77, 16}, RandomParams{123, 5},
                      RandomParams{2024, 2}, RandomParams{31337, 7}),
    [](const ::testing::TestParamInfo<RandomParams>& info) {
      return "seed" + std::to_string(info.param.seed) + "_depth" +
             std::to_string(info.param.depth);
    });

// ---------------------------------------------------------------------
// Context-switch comparison: the decoupled mode must not only be equal in
// timing but strictly cheaper in context switches once depth > 1.
// ---------------------------------------------------------------------

TEST(DualMode, SmartModeUsesFewerContextSwitches) {
  const Scenario scenario = producer_consumer(16, 10_ns, 10_ns, 200);
  auto reference = trace::run_scenario(scenario, Mode::Reference);
  const auto& ref_stats = reference->kernel().stats();
  // Reference: ~1 context switch per access (2 processes x 200 accesses).
  EXPECT_GT(ref_stats.context_switches, 300u);
  for (Mode mode : {Mode::SmartDecoupled, Mode::SmartChunked}) {
    auto smart = trace::run_scenario(scenario, mode);
    // Smart: only at internal full/empty boundaries.
    EXPECT_LT(smart->kernel().stats().context_switches,
              ref_stats.context_switches / 4)
        << trace::mode_name(mode);
  }
}

}  // namespace
}  // namespace tdsim
