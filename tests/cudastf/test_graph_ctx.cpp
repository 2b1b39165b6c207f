// Graph backend (§III): functional equivalence with the stream backend,
// epochs, executable-graph memoization via exec-update, and the latency
// advantage for small kernels.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cudastf/cudastf.hpp"

namespace {

using namespace cudastf;

cudasim::device_desc tdesc() {
  auto d = cudasim::test_desc();
  d.mem_capacity = 512u << 20;
  return d;
}

// A small iterative computation used by several tests: x = (x*2 + 1) per
// iteration, with y accumulating x. Returns final (x[0], y[0]).
std::pair<double, double> run_iterations(context& ctx, cudasim::platform& p,
                                         int iters, bool use_fence) {
  double X[32], Y[32];
  for (int i = 0; i < 32; ++i) {
    X[i] = 1.0;
    Y[i] = 0.0;
  }
  auto lX = ctx.logical_data(X, "X");
  auto lY = ctx.logical_data(Y, "Y");
  for (int it = 0; it < iters; ++it) {
    ctx.task(lX.rw()).set_symbol("step")->*[&p](cudasim::stream& s,
                                                slice<double> x) {
      p.launch_kernel(s, {.name = "step"}, [=] {
        for (std::size_t i = 0; i < x.size(); ++i) {
          x(i) = x(i) * 2 + 1;
        }
      });
    };
    ctx.task(lX.read(), lY.rw()).set_symbol("acc")->*
        [&p](cudasim::stream& s, slice<const double> x, slice<double> y) {
          p.launch_kernel(s, {.name = "acc"}, [=] {
            for (std::size_t i = 0; i < x.size(); ++i) {
              y(i) += x(i);
            }
          });
        };
    if (use_fence) {
      ctx.fence();
    }
  }
  ctx.finalize();
  return {X[0], Y[0]};
}

TEST(GraphCtx, SameResultsAsStreamBackend) {
  cudasim::scoped_platform sp(2, tdesc());
  context sctx(sp.get());
  auto stream_result = run_iterations(sctx, sp.get(), 5, false);

  context gctx = context::graph(sp.get());
  auto graph_result = run_iterations(gctx, sp.get(), 5, true);

  EXPECT_DOUBLE_EQ(stream_result.first, graph_result.first);
  EXPECT_DOUBLE_EQ(stream_result.second, graph_result.second);
  EXPECT_DOUBLE_EQ(graph_result.first, 63.0);   // 1 -> 3 -> 7 -> 15 -> 31 -> 63
  EXPECT_DOUBLE_EQ(graph_result.second, 119.0); // 3+7+15+31+63
}

TEST(GraphCtx, EpochsMemoizeExecutableGraphs) {
  cudasim::scoped_platform sp(1, tdesc());
  context ctx = context::graph(sp.get());
  run_iterations(ctx, sp.get(), 10, true);
  const backend_stats& st = ctx.stats();
  // First epoch instantiates; epochs 2..10 have identical topology and
  // reuse via exec-update. (A final epoch may be produced by finalize's
  // write-back.)
  EXPECT_GE(st.graph_updates, 8u);
  EXPECT_LE(st.graph_instantiations, 3u);
  EXPECT_EQ(st.graph_launches, st.graph_updates + st.graph_instantiations);
}

TEST(GraphCtx, TopologyChangeInstantiatesAgain) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx = context::graph(p);
  double X[8] = {};
  auto lX = ctx.logical_data(X, "X");
  // Epoch A: one task. Epoch B: two tasks. Different summaries.
  ctx.task(lX.rw()).set_symbol("a")->*[&p](cudasim::stream& s, slice<double>) {
    p.launch_kernel(s, {.name = "a"}, {});
  };
  ctx.fence();
  ctx.task(lX.rw()).set_symbol("a")->*[&p](cudasim::stream& s, slice<double>) {
    p.launch_kernel(s, {.name = "a"}, {});
  };
  ctx.task(lX.rw()).set_symbol("b")->*[&p](cudasim::stream& s, slice<double>) {
    p.launch_kernel(s, {.name = "b"}, {});
  };
  ctx.fence();
  ctx.finalize();
  EXPECT_GE(ctx.stats().graph_instantiations, 2u);
}

// 40 epochs alternating two topologies, every body writing its epoch's
// index: each update swaps in the newest bodies, so the graph backend
// matches the stream backend byte for byte, with one executable per
// topology. Two warm-up epochs come first: they carry the first-touch
// copies, and their tasks wait on no earlier epoch.
TEST(GraphCtx, AlternatingTopologiesRunNewestBodies) {
  constexpr int warmup = 2;
  constexpr int epochs = 40;
  struct counts {
    std::uint64_t instantiations = 0;
    std::uint64_t updates = 0;
  };
  auto run = [](bool graph, std::vector<double>& out, counts* steady) {
    cudasim::scoped_platform sp(1, tdesc());
    cudasim::platform& p = sp.get();
    context ctx = graph ? context::graph(p) : context(p);
    std::vector<double> x(16, 1.0), log(warmup + epochs, 0.0);
    auto lx = ctx.logical_data(x.data(), x.size(), "x");
    auto llog = ctx.logical_data(log.data(), log.size(), "log");
    for (int e = 0; e < warmup + epochs; ++e) {
      if (e == warmup) {
        steady->instantiations = ctx.stats().graph_instantiations;
        steady->updates = ctx.stats().graph_updates;
      }
      ctx.task(lx.rw()).set_symbol("scale")->*
          [&p, e](cudasim::stream& s, slice<double> v) {
            p.launch_kernel(s, {.name = "scale"}, [=] {
              for (std::size_t i = 0; i < v.size(); ++i) {
                v(i) = v(i) * 0.5 + e;
              }
            });
          };
      if (e % 2 == 1) {
        ctx.task(lx.read(), llog.rw()).set_symbol("record")->*
            [&p, e](cudasim::stream& s, slice<const double> v,
                    slice<double> l) {
              p.launch_kernel(s, {.name = "record"}, [=] {
                l(static_cast<std::size_t>(e)) = v(0) + e;
              });
            };
      }
      ctx.fence();
    }
    steady->instantiations =
        ctx.stats().graph_instantiations - steady->instantiations;
    steady->updates = ctx.stats().graph_updates - steady->updates;
    EXPECT_TRUE(ctx.finalize().ok());
    out = x;
    out.insert(out.end(), log.begin(), log.end());
  };
  std::vector<double> ref, got;
  counts stream_counts, graph_counts;
  run(false, ref, &stream_counts);
  run(true, got, &graph_counts);
  ASSERT_EQ(got.size(), ref.size());
  EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(double)),
            0);
  EXPECT_NE(ref.back(), 0.0);  // the last epoch recorded
  EXPECT_EQ(graph_counts.instantiations, 2u);
  EXPECT_EQ(graph_counts.updates, static_cast<std::uint64_t>(epochs - 2));
}

TEST(GraphCtx, GraphBackendFasterForSmallKernels) {
  // The same 200-task workload; stream launch latency is 5us/kernel, graph
  // node latency 1us/kernel — graph epochs should win clearly.
  auto desc = tdesc();
  double stream_time = 0.0, graph_time = 0.0;
  {
    cudasim::scoped_platform sp(1, desc);
    context ctx(sp.get());
    run_iterations(ctx, sp.get(), 100, false);
    stream_time = sp.get().now();
  }
  {
    cudasim::scoped_platform sp(1, desc);
    context ctx = context::graph(sp.get());
    run_iterations(ctx, sp.get(), 100, true);
    graph_time = sp.get().now();
  }
  EXPECT_LT(graph_time, stream_time);
}

TEST(GraphCtx, MultiDeviceGraph) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  context ctx = context::graph(p);
  double X[16] = {};
  double Y[16] = {};
  auto lX = ctx.logical_data(X, "X");
  auto lY = ctx.logical_data(Y, "Y");
  ctx.task(exec_place::device(0), lX.rw())->*
      [&p](cudasim::stream& s, slice<double> x) {
        p.launch_kernel(s, {.name = "k0"}, [=] { x(0) = 1.0; });
      };
  ctx.task(exec_place::device(1), lX.read(), lY.rw())->*
      [&p](cudasim::stream& s, slice<const double> x, slice<double> y) {
        p.launch_kernel(s, {.name = "k1"}, [=] { y(0) = x(0) + 1.0; });
      };
  ctx.finalize();
  EXPECT_DOUBLE_EQ(Y[0], 2.0);
}

TEST(GraphCtx, HostTaskInsideGraph) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx = context::graph(p);
  double X[4] = {};
  auto lX = ctx.logical_data(X, "X");
  ctx.task(lX.rw())->*[&p](cudasim::stream& s, slice<double> x) {
    p.launch_kernel(s, {.name = "k"}, [=] { x(0) = 3.0; });
  };
  double seen = 0.0;
  ctx.host_launch(lX.read())->*[&seen](slice<const double> x) { seen = x(0); };
  ctx.finalize();
  EXPECT_DOUBLE_EQ(seen, 3.0);
}

TEST(GraphCtx, FenceWithNoWorkIsHarmless) {
  cudasim::scoped_platform sp(1, tdesc());
  context ctx = context::graph(sp.get());
  ctx.fence();
  ctx.fence();
  ctx.finalize();
  EXPECT_EQ(ctx.stats().graph_launches, 0u);
}

TEST(GraphCtx, RefusedEpochLaunchIsRelaunchedNotDropped) {
  // A transient fault can hit the whole-epoch graph launch itself (one
  // kernel-category op per launch) rather than a captured node. The refusal
  // enqueues none of the epoch's nodes and leaves a sticky status that
  // would refuse every later epoch too — the backend must relaunch in
  // place instead of silently dropping the work (DESIGN.md §7).
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  p.ensure_fault_injector().schedule(
      {.kind = cudasim::fault_kind::kernel_fault, .device = -1, .at_op = 9});
  context ctx = context::graph(p);
  constexpr std::size_t n = 128;
  std::vector<double> y(n, 0.0);
  {
    auto ly = ctx.logical_data(y.data(), n, "y");
    for (int t = 0; t < 12; ++t) {
      ctx.task(exec_place::device(t % 2), ly.rw()).set_symbol("step")->*
          [&p](cudasim::stream& s, slice<double> dy) {
            p.launch_kernel(s, {.name = "step"}, [=] {
              for (std::size_t i = 0; i < dy.size(); ++i) {
                dy(i) = dy(i) * 2.0 + 1.0;
              }
            });
          };
      if (t % 3 == 2) {
        ctx.fence();
      }
    }
    const error_report rep = ctx.finalize();
    EXPECT_TRUE(rep.ok()) << rep.to_string();
  }
  EXPECT_GE(ctx.stats().graph_launch_retries, 1u);
  EXPECT_DOUBLE_EQ(y[0], 4095.0);  // 12 iterations of y = y*2 + 1
}

TEST(GraphCtx, CheckpointRestartBitIdenticalUnderGraphs) {
  // A permanent capture-time fault under the graph backend must abort only
  // the refused node, roll back to the committed checkpoint and replay the
  // epoch — bit-identical to the fault-free graph run (DESIGN.md §7).
  auto run = [](bool faulty, std::vector<double>& y, backend_stats* stats) {
    cudasim::scoped_platform sp(2, tdesc());
    cudasim::platform& p = sp.get();
    if (faulty) {
      p.ensure_fault_injector().schedule({.kind =
                                              cudasim::fault_kind::kernel_fault,
                                          .device = -1,
                                          .at_op = 10});
    }
    context ctx = context::graph(p);
    ctx.set_retry_policy({.max_attempts = 1});
    if (faulty) {
      ctx.enable_checkpointing({.every_n_tasks = 4});
    }
    constexpr std::size_t n = 128;
    y.assign(n, 0.0);
    auto ly = ctx.logical_data(y.data(), n, "y");
    for (int t = 0; t < 12; ++t) {
      ctx.task(exec_place::device(t % 2), ly.rw()).set_symbol("step")->*
          [&p](cudasim::stream& s, slice<double> dy) {
            p.launch_kernel(s, {.name = "step"}, [=] {
              for (std::size_t i = 0; i < dy.size(); ++i) {
                dy(i) = dy(i) * 2.0 + 1.0;
              }
            });
          };
      if (t % 3 == 2) {
        ctx.fence();  // close an epoch mid-run like an iterative solver
      }
    }
    const error_report rep = ctx.finalize();
    EXPECT_TRUE(rep.ok()) << rep.to_string();
    if (stats != nullptr) {
      *stats = ctx.stats();
    }
  };
  std::vector<double> ref, got;
  backend_stats stats{};
  run(false, ref, nullptr);
  run(true, got, &stats);
  EXPECT_GE(stats.checkpoints_taken, 1u);
  EXPECT_GE(stats.rollbacks, 1u);
  EXPECT_GE(stats.tasks_replayed, 1u);
  ASSERT_EQ(got.size(), ref.size());
  EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(double)),
            0);
}

}  // namespace
