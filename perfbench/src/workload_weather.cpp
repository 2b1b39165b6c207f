// Workload `weather-graph`: miniWeather 256 x 128 on 1 A100 model through
// context::graph(), one epoch per time step, ~10k steps of 24 parallel_for
// submissions each. The same submit pipeline as `taskgraph`, but lowered
// through graph capture, epoch memoization and executable updates
// (Fig. 10), so the cudastf graph backend and the fence path are measured
// here and nowhere else. Timing-only bodies; the seed adds up to 63 steps.
//
// The benchmark steps the simulation itself (run_steps(1), then
// ctx.fence()) instead of stf_options::fence_per_step, which submits the
// same sequence, so that each fence is a call it can time.
#include <cmath>

#include "harness.hpp"
#include "miniweather/core.hpp"
#include "miniweather/stf_driver.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using trace::layer;

/// Submissions per time step: two direction sweeps x three RK stages x
/// four parallel_for (halo, flux, tendency, apply); no I/O tasks.
constexpr std::uint64_t tasks_per_step = 2 * 3 * 4;

/// Submits `steps` steps, each followed by an epoch fence.
void step_with_fences(cudastf::context& ctx, miniweather::stf_simulation& sim,
                      std::size_t steps) {
  for (std::size_t s = 0; s < steps; ++s) {
    {
      trace::scope s_app(layer::app);
      sim.run_steps(1);
    }
    trace::scope s_fence(layer::cudastf_fence);
    ctx.fence();
  }
}

rep_result weather_rep(std::uint64_t seed) {
  rep_result r;
  const std::size_t steps = 10000 + mix_seed(seed) % 64;
  miniweather::config c;
  c.nx = 256;
  c.nz = 128;
  c.tc = miniweather::testcase::injection;
  rep_timer timer;
  cudasim::platform plat(1, cudasim::a100_desc());
  plat.set_copy_payloads(false);
  cudastf::context ctx = cudastf::context::graph(plat);
  miniweather::stf_simulation sim(ctx, c, cudastf::exec_place::device(0),
                                  {.compute = false, .fence_per_step = false});
  timer.submit_starts(r);
  step_with_fences(ctx, sim, steps);
  r.tasks = steps * tasks_per_step;
  finish_rep(ctx, timer, r);
  return r;
}

/// The same stepping with numerical bodies on a 48 x 24 domain, against
/// the serial reference driver (the tolerance of the repository's tests).
std::string weather_check(std::uint64_t seed) {
  constexpr std::size_t steps = 8;
  miniweather::config c;
  c.nx = 48;
  c.nz = 24;
  c.sim_time = 20.0;
  c.tc = seed % 2 == 0 ? miniweather::testcase::injection
                       : miniweather::testcase::thermal;
  miniweather::fields ref(c);
  miniweather::init_fields(c, ref);
  for (std::size_t s = 0; s < steps; ++s) {
    miniweather::step_serial(c, ref, s);
  }

  cudasim::platform plat(1, cudasim::a100_desc());
  cudastf::context ctx = cudastf::context::graph(plat);
  miniweather::stf_simulation sim(ctx, c, cudastf::exec_place::device(0),
                                  {.fence_per_step = false});
  step_with_fences(ctx, sim, steps);
  const cudastf::error_report report = ctx.finalize();
  if (!report.ok()) {
    return "compute-on instance failed: " + report.to_string();
  }
  const miniweather::dbuffer& got = sim.host_fields().state;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - ref.state[i]) < 1e-11)) {
      return "state differs from the serial driver at " + std::to_string(i);
    }
  }
  return "";
}

}  // namespace

workload weather_graph_workload() {
  return {"weather-graph", true, weather_check, weather_rep};
}

}  // namespace perfbench
