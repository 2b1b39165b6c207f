// Workloads `taskgraph` and `taskgraph-mt`: taskbench dependency graphs
// (Table I) submitted one ctx.task() at a time, each task launching one
// tiny kernel that folds its inputs into its own column. The payload is a
// few integer operations, so host time is the per-task cost of the submit
// pipeline (cudastf) plus DES scheduling (cudasim), with no transfers and
// no eviction.
//
// taskgraph:    one thread, stream backend, 1 device; STENCIL, RANDOM,
//               TREE and FFT graphs of width 64 (the RANDOM graph comes
//               from the seed). Isolates the single-threaded submit path.
// taskgraph-mt: the TRIVIAL graph (disjoint columns: the sharded fast path)
//               and the TREE graph (cross-column joins: the exclusive gate),
//               each submitted through ctx.parallel_submit(min(nproc, 4))
//               split by column. The only workload that runs the
//               multi-threaded submission machinery (threading.hpp, striped
//               locks), so a change there is claimed or refuted here.
#include <algorithm>
#include <thread>

#include "harness.hpp"
#include "taskbench/taskbench.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using cudastf::slice;
using taskbench::topology;
using trace::layer;
using u64 = std::uint64_t;

constexpr std::uint32_t width = 64;

/// Steps per graph: ~1k, so a repetition is ~0.3 s and a run holds many.
/// The seed adds up to 7 steps, which moves sim_time_s slightly.
std::uint32_t steps_for(u64 seed) {
  return 1024 + static_cast<std::uint32_t>(mix_seed(seed) % 8);
}

/// Order-sensitive fold of a column with up to three inputs (0 = absent).
/// Shared by the kernel bodies and the host reference.
u64 combine(u64 v, u64 a, u64 b, u64 c) {
  v = (v << 7 | v >> 57) * 0x9e3779b97f4a7c15ULL;
  return v + a * 0xbf58476d1ce4e5b9ULL + b * 0x94d049bb133111ebULL +
         c * 0xd6e8feb86659fd93ULL + 1;
}

const cudasim::kernel_desc& combine_kernel() {
  static const cudasim::kernel_desc k{.name = "combine", .flops = 8.0,
                                      .bytes = 32.0};
  return k;
}

/// One generated graph over its own `width` columns.
struct graph_part {
  std::vector<taskbench::task_node> tasks;
  std::vector<u64> initial;  ///< column values before the first task
  std::vector<u64> values;   ///< host backing, written back by finalize
  std::vector<cudastf::logical_data<slice<u64>>> cols;
};

graph_part make_part(cudastf::context& ctx, topology topo, std::uint32_t steps,
                     u64 seed) {
  graph_part g;
  g.tasks = taskbench::generate(topo, width, steps, mix_seed(seed));
  for (std::uint32_t i = 0; i < width; ++i) {
    g.initial.push_back(mix_seed(seed + 1 + i));
  }
  g.values = g.initial;
  for (std::uint32_t i = 0; i < width; ++i) {
    trace::scope s(layer::cudastf_register);
    g.cols.push_back(ctx.logical_data(&g.values[i], 1, "col"));
  }
  return g;
}

template <class Fn>
void launch(cudasim::platform& plat, cudasim::stream& s, Fn&& fn) {
  trace::scope s_launch(layer::cudasim_launch);
  plat.launch_kernel(s, combine_kernel(), std::forward<Fn>(fn));
}

void submit_task(cudastf::context& ctx, graph_part& g,
                 const taskbench::task_node& t) {
  trace::scope s_task(layer::cudastf_task);
  cudasim::platform& plat = ctx.platform();
  auto& self = g.cols[t.column];
  using in = slice<const u64>;
  switch (t.deps.size()) {
    case 0:
      ctx.task(self.rw())->*[&plat](cudasim::stream& s, slice<u64> v) {
        launch(plat, s, [v] {
          trace::scope p(layer::payload);
          v(0) = combine(v(0), 0, 0, 0);
        });
      };
      break;
    case 1:
      ctx.task(self.rw(), g.cols[t.deps[0]].read())->*
          [&plat](cudasim::stream& s, slice<u64> v, in a) {
            launch(plat, s, [v, a] {
              trace::scope p(layer::payload);
              v(0) = combine(v(0), a(0), 0, 0);
            });
          };
      break;
    case 2:
      ctx.task(self.rw(), g.cols[t.deps[0]].read(), g.cols[t.deps[1]].read())->*
          [&plat](cudasim::stream& s, slice<u64> v, in a, in b) {
            launch(plat, s, [v, a, b] {
              trace::scope p(layer::payload);
              v(0) = combine(v(0), a(0), b(0), 0);
            });
          };
      break;
    default:
      ctx.task(self.rw(), g.cols[t.deps[0]].read(), g.cols[t.deps[1]].read(),
               g.cols[t.deps[2]].read())->*
          [&plat](cudasim::stream& s, slice<u64> v, in a, in b, in c) {
            launch(plat, s, [v, a, b, c] {
              trace::scope p(layer::payload);
              v(0) = combine(v(0), a(0), b(0), c(0));
            });
          };
      break;
  }
}

/// Host reference: applies `tasks` in the given order.
void host_apply(const taskbench::task_node& t, std::vector<u64>& v) {
  u64 in[3] = {0, 0, 0};
  for (std::size_t k = 0; k < t.deps.size(); ++k) {
    in[k] = v[t.deps[k]];
  }
  v[t.column] = combine(v[t.column], in[0], in[1], in[2]);
}

std::string compare(const graph_part& g, const std::vector<u64>& expect,
                    topology topo) {
  for (std::uint32_t i = 0; i < width; ++i) {
    if (g.values[i] != expect[i]) {
      return std::string(taskbench::name(topo)) + " column " +
             std::to_string(i) + " differs from the host evaluation";
    }
  }
  return "";
}

// --- taskgraph -----------------------------------------------------------

constexpr topology st_topos[] = {topology::stencil, topology::random_graph,
                                 topology::tree, topology::fft};

rep_result taskgraph_rep(u64 seed) {
  rep_result r;
  rep_timer timer;
  cudasim::platform plat(1, cudasim::a100_desc());
  cudastf::context ctx(plat);
  std::vector<graph_part> parts;
  for (std::size_t p = 0; p < std::size(st_topos); ++p) {
    parts.push_back(make_part(ctx, st_topos[p], steps_for(seed), seed * 8 + p));
  }
  timer.submit_starts(r);
  {
    trace::scope s_app(layer::app);
    for (graph_part& g : parts) {
      for (const taskbench::task_node& t : g.tasks) {
        submit_task(ctx, g, t);
      }
      r.tasks += g.tasks.size();
    }
  }
  finish_rep(ctx, timer, r);

  for (std::size_t p = 0; p < parts.size() && r.output_error.empty(); ++p) {
    std::vector<u64> expect = parts[p].initial;
    for (const taskbench::task_node& t : parts[p].tasks) {
      host_apply(t, expect);
    }
    r.output_error = compare(parts[p], expect, st_topos[p]);
  }
  return r;
}

// The timed repetitions check every column exactly, so no separate
// compute-on instance is needed.
std::string taskgraph_check(u64) { return ""; }

// --- taskgraph-mt --------------------------------------------------------

constexpr topology mt_topos[] = {topology::trivial, topology::tree};

int mt_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n, 1u, 4u));
}

/// Builds both halves, submits each through parallel_submit (columns split
/// by `column % threads`) and finalizes. With `deterministic`, workers hand
/// off in thread order, so the result equals the host evaluation of the
/// tasks taken thread by thread.
rep_result run_mt(u64 seed, std::uint32_t steps, bool deterministic,
                  std::vector<graph_part>& parts) {
  rep_result r;
  const int n = mt_threads();
  rep_timer timer;
  cudasim::platform plat(1, cudasim::a100_desc());
  cudastf::context ctx(plat);
  ctx.set_deterministic_order(deterministic);
  for (std::size_t p = 0; p < std::size(mt_topos); ++p) {
    parts.push_back(make_part(ctx, mt_topos[p], steps, seed * 8 + p));
  }
  timer.submit_starts(r);
  {
    trace::scope s_app(layer::app);
    for (graph_part& g : parts) {
      ctx.parallel_submit(n, [&](int tid) {
        for (const taskbench::task_node& t : g.tasks) {
          if (static_cast<int>(t.column % static_cast<std::uint32_t>(n)) ==
              tid) {
            submit_task(ctx, g, t);
          }
        }
      });
      r.tasks += g.tasks.size();
    }
  }
  finish_rep(ctx, timer, r);
  for (graph_part& g : parts) {
    g.cols.clear();  // handles must not outlive the context
  }
  return r;
}

rep_result taskgraph_mt_rep(u64 seed) {
  std::vector<graph_part> parts;
  rep_result r = run_mt(seed, steps_for(seed), false, parts);
  // TRIVIAL columns are each owned by one worker, so their values are
  // exact. TREE joins read columns other workers write, so which version
  // a task reads depends on thread timing; taskgraph_mt_check covers those
  // values under the deterministic turnstile.
  std::vector<u64> expect = parts[0].initial;
  for (const taskbench::task_node& t : parts[0].tasks) {
    host_apply(t, expect);
  }
  r.output_error = compare(parts[0], expect, mt_topos[0]);
  return r;
}

std::string taskgraph_mt_check(u64 seed) {
  std::vector<graph_part> parts;
  const rep_result r = run_mt(seed, 64, true, parts);
  if (r.failed != 0) {
    return "deterministic instance reported failed tasks";
  }
  const auto n = static_cast<std::uint32_t>(mt_threads());
  for (std::size_t p = 0; p < parts.size(); ++p) {
    std::vector<u64> expect = parts[p].initial;
    for (std::uint32_t tid = 0; tid < n; ++tid) {
      for (const taskbench::task_node& t : parts[p].tasks) {
        if (t.column % n == tid) {
          host_apply(t, expect);
        }
      }
    }
    std::string err = compare(parts[p], expect, mt_topos[p]);
    if (!err.empty()) {
      return "deterministic instance: " + err;
    }
  }
  return "";
}

}  // namespace

workload taskgraph_workload() {
  return {"taskgraph", true, taskgraph_check, taskgraph_rep};
}

workload taskgraph_mt_workload() {
  return {"taskgraph-mt", false, taskgraph_mt_check, taskgraph_mt_rep};
}

}  // namespace perfbench
