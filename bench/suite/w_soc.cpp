// soc_casestudy: the paper's SIV.C heterogeneous SoC (soc::SocPlatform,
// Smart flavour, 4x4 stream NoC, one control core polling over the bus).
// The platform is library code, so its spans are the construction and the
// run; everything inside shows in the kernel counters. The seed moves the
// control core's sub-nanosecond poll phase, which shifts every
// observation date without changing the traffic.
#include "kernel/kernel.h"
#include "soc/soc_platform.h"
#include "suite.h"
#include "traced.h"

namespace tdbench {

RepOutput run_soc_casestudy(const RepContext& ctx) {
  using tdsim::Time;
  using tdsim::TimeUnit;

  tdsim::soc::SocConfig config;
  config.flavor = tdsim::soc::FifoFlavor::Smart;
  config.mesh_columns = ctx.smoke ? 2 : 4;
  config.mesh_rows = ctx.smoke ? 2 : 4;
  config.streams = ctx.smoke ? 4 : 16;
  config.words_per_stream = ctx.smoke ? 2048 : 98304;
  // Off the integer-nanosecond grid the streams run on (see
  // ControlCore::Config::poll_phase): 100..900 ps.
  Rng rng(ctx.seed);
  config.poll_phase = Time(100 * (1 + rng.below(9)), TimeUnit::PS);

  RepOutput out;
  Phase setup(ctx.tracer, Op::Setup);
  tdsim::Kernel kernel(explicit_config(0));
  tdsim::soc::SocPlatform platform(kernel, config);
  end_setup(out, setup, kernel);
  if (ctx.setup_only) {
    return out;
  }

  Phase run(ctx.tracer, Op::Run);
  const Time end = platform.run_to_completion();
  out.run_s = run.stop();

  if (!platform.all_streams_correct()) {
    out.fail("a stream checksum mismatched");
  }
  Digest outputs;
  outputs.add(end.ps());
  outputs.add(platform.core().all_done_date().ps());
  outputs.add(platform.core().polls());
  for (std::size_t s = 0; s < config.streams; ++s) {
    outputs.add(platform.sink_checksum(s));
  }
  const std::uint64_t accesses = platform.total_fifo_accesses();
  if (accesses != 6 * config.streams * config.words_per_stream) {
    out.fail("FIFO access count does not cover every word");
  }
  outputs.add(accesses);
  out.outputs = outputs.value();
  out.layer["soc.fifo_accesses"] = double(accesses);
  Digest counts;
  record_kernel_stats(kernel.stats(), counts, out);
  return out;
}

}  // namespace tdbench
