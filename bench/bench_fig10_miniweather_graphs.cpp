// Fig. 10 — performance gains from the CUDA-graph backend on small
// miniWeather problem sizes on one A100: the epoch mechanism builds,
// memoizes and re-launches one executable graph per time step, cutting
// per-kernel launch latency. Also reports the §VII-D small-problem
// comparison (500x250, 1000 s) including the modelled CPU baseline.
//
// With --json, emits one JSON record per measurement on stdout (a single
// array) for regression tracking; see BENCH_fig10.json. Every value is
// virtual time or a count, so the output is identical on any host.
#include <cstdio>
#include <cstring>

#include "miniweather/baselines.hpp"
#include "miniweather/stf_driver.hpp"

namespace {

using namespace miniweather;

double run_backend(const config& c, bool graph,
                   cudastf::backend_stats* st = nullptr) {
  cudasim::scoped_platform sp(1, cudasim::a100_desc());
  sp.get().set_copy_payloads(false);
  cudastf::context ctx = graph ? cudastf::context::graph(sp.get())
                               : cudastf::context(sp.get());
  stf_simulation sim(ctx, c, cudastf::exec_place::device(0),
                     {.compute = false, .fence_per_step = true});
  sim.run();
  ctx.finalize();
  if (st != nullptr) {
    *st = ctx.stats();
  }
  return sp.get().now();
}

double run_baseline_profile(const config& c, const baseline_profile& prof) {
  cudasim::scoped_platform sp(1, cudasim::a100_desc());
  sp.get().set_copy_payloads(false);
  fields f(c, false);
  return run_baseline(sp.get(), c, f, prof, 1, false);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json]\n", argv[0]);
      return 2;
    }
  }

  if (json) {
    std::printf("[");
  } else {
    std::printf("Fig. 10: CUDA-graph backend gains on small miniWeather "
                "domains (one A100, injection)\n\n");
    std::printf("%-14s %-8s %-12s %-12s %-8s\n", "domain", "steps",
                "stream (s)", "graph (s)", "gain");
  }
  const char* sep = "";
  for (auto [nx, nz] : {std::pair<std::size_t, std::size_t>{256, 128},
                        {512, 256},
                        {1024, 512},
                        {2048, 1024},
                        {4096, 2048},
                        {8192, 4096}}) {
    config c;
    c.nx = nx;
    c.nz = nz;
    c.tc = testcase::injection;
    // Fixed step count per size keeps total work proportional to the domain.
    c.sim_time = 300.0 * c.dt();
    cudastf::backend_stats st;
    const double t_stream = run_backend(c, false);
    const double t_graph = run_backend(c, true, &st);
    const double gain = (t_stream / t_graph - 1.0) * 100.0;
    if (json) {
      std::printf(
          "%s\n  {\"phase\": \"domain\", \"nx\": %zu, \"nz\": %zu, "
          "\"steps\": %zu, \"stream_s\": %.6e, \"graph_s\": %.6e, "
          "\"gain_pct\": %.3f, \"instantiations\": %llu, \"updates\": %llu, "
          "\"launches\": %llu}",
          sep, nx, nz, c.num_steps(), t_stream, t_graph, gain,
          static_cast<unsigned long long>(st.graph_instantiations),
          static_cast<unsigned long long>(st.graph_updates),
          static_cast<unsigned long long>(st.graph_launches));
      sep = ",";
    } else {
      std::printf("%5zux%-8zu %-8zu %-12.4f %-12.4f %+.1f%%\n", nx, nz,
                  c.num_steps(), t_stream, t_graph, gain);
    }
  }

  config small;
  small.nx = 500;
  small.nz = 250;
  small.sim_time = 1000.0;
  small.tc = testcase::injection;
  const std::pair<const char*, double> rows[] = {
      {"cpu_1core_model", cpu_model_seconds(small, 1)},
      {"cpu_32core_model", cpu_model_seconds(small, 32)},
      {"yakl", run_baseline_profile(small, yakl_profile())},
      {"openacc", run_baseline_profile(small, openacc_profile())},
      {"cudastf_stream", run_backend(small, false)},
      {"cudastf_graph", run_backend(small, true)}};
  if (json) {
    for (const auto& [variant, seconds] : rows) {
      std::printf(
          ",\n  {\"phase\": \"small_problem\", \"variant\": \"%s\", "
          "\"seconds\": %.6e}",
          variant, seconds);
    }
    std::printf("\n]\n");
    return 0;
  }
  std::printf("\n§VII-D small problem (500x250 cells, 1000 simulated seconds):\n");
  std::printf("  CPU 1 core  (model) : %8.1f s\n", rows[0].second);
  std::printf("  CPU 32 cores (model): %8.1f s\n", rows[1].second);
  std::printf("  YAKL, 1 A100        : %8.2f s\n", rows[2].second);
  std::printf("  OpenACC, 1 A100     : %8.2f s\n", rows[3].second);
  std::printf("  CUDASTF stream      : %8.2f s\n", rows[4].second);
  std::printf("  CUDASTF graph       : %8.2f s\n", rows[5].second);
  std::printf(
      "\nExpected shape: graph gains small at tiny domains, peaking around\n"
      "2048x1024 (paper: ~30%%), then shrinking as kernels grow; on the\n"
      "500x250 problem the graph backend is the fastest GPU variant\n"
      "(paper: 1.39 s vs 2.03 s stream) and every GPU variant beats 32 CPU\n"
      "cores (paper: 32.6 s).\n");
  return 0;
}
