// The staged submission pipeline and its observer API (DESIGN.md §13):
// every construct lowers to the same op_desc/op_record shape, the lowering
// is identical across backends, the disarmed path stays on the fast path
// from any thread, the shipped observers (trace, Graphviz DOT) render
// the lowered graph — including poison cause-chain edges — and the one
// round loop ends every construct the pinned way under every failure
// class (failure-outcome matrix).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "blaslib/blas_host.hpp"
#include "blaslib/tiled_cholesky.hpp"
#include "cudastf/cudastf.hpp"
#include "cudastf/submit.hpp"

namespace {

using namespace cudastf;

cudasim::device_desc tdesc() {
  auto d = cudasim::test_desc();
  d.mem_capacity = 512u << 20;
  return d;
}

const char* mode_str(access_mode m) {
  switch (m) {
    case access_mode::read:
      return "r";
    case access_mode::write:
      return "w";
    case access_mode::rw:
      return "rw";
  }
  return "?";
}

// Canonical one-line rendering of an op_record, with everything that is
// meaningful across backends (ids and data identities are per-context, so
// dep names stand in for data_id; devices are placement policy, compared
// separately where the test pins them).
std::string canon(const op_record& rec) {
  std::ostringstream out;
  out << op_kind_name(rec.kind) << " '" << rec.symbol << "' [";
  for (const op_dep_record& d : rec.deps) {
    out << d.data << ":" << mode_str(d.mode) << " ";
  }
  out << "] ";
  switch (rec.status) {
    case op_status::ok:
      out << "ok";
      break;
    case op_status::cancelled:
      out << "cancelled";
      break;
    case op_status::failed:
      out << "failed(" << failure_kind_name(rec.fail) << ")";
      break;
  }
  return out.str();
}

// The four-construct program every lowering test submits: one of each
// builder over the same two logical datas.
std::vector<std::string> run_all_constructs(context& ctx,
                                            cudasim::platform& p,
                                            std::vector<double>& x,
                                            std::vector<double>& y,
                                            trace_observer& trace) {
  const std::size_t n = x.size();
  auto lx = ctx.logical_data(x.data(), n, "x");
  auto ly = ctx.logical_data(y.data(), n, "y");

  ctx.task(lx.rw()).set_symbol("scale")->*
      [&p](cudasim::stream& s, slice<double> dx) {
        p.launch_kernel(s, {.name = "scale"}, [=] {
          for (std::size_t i = 0; i < dx.size(); ++i) {
            dx(i) *= 2.0;
          }
        });
      };
  ctx.parallel_for(ly.get_shape(), lx.read(), ly.rw())
          .set_symbol("axpy")
          ->*[](std::size_t i, slice<const double> dx, slice<double> dy) {
                dy(i) += dx(i);
              };
  ctx.launch(par(con(4)), exec_place::device(0), ly.rw())
          .set_symbol("bump")
          ->*[](thread_hierarchy& th, slice<double> dy) {
                for (auto [i] : th.apply_partition(shape(dy))) {
                  dy(i) += 1.0;
                }
              };
  double first = 0.0;
  ctx.host_launch(ly.read()).set_symbol("peek")->*
      [&first](slice<const double> dy) { first = dy(0); };
  ctx.finalize();

  std::vector<std::string> out;
  for (const op_record& rec : trace.records()) {
    out.push_back(canon(rec));
  }
  return out;
}

// --- golden lowering: all four builders -> one op_record shape ---

TEST(SubmitPipeline, AllConstructsLowerToGoldenRecords) {
  cudasim::scoped_platform sp(1, tdesc());
  context ctx(sp.get());
  trace_observer trace;
  ctx.observe(trace);
  std::vector<double> x(32, 1.0), y(32, 0.0);
  const auto got = run_all_constructs(ctx, sp.get(), x, y, trace);

  const std::vector<std::string> golden = {
      "task 'scale' [x:rw ] ok",
      "parallel_for 'axpy' [x:r y:rw ] ok",
      "launch 'bump' [y:rw ] ok",
      "host 'peek' [y:r ] ok",
  };
  EXPECT_EQ(got, golden);

  // Record invariants the canonical line does not cover: ids are the
  // submission sequence, devices are filled, places resolved.
  const auto& recs = trace.records();
  ASSERT_EQ(recs.size(), 4u);
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].id, recs[i - 1].id + 1) << i;
  }
  for (std::size_t i = 0; i + 1 < recs.size(); ++i) {
    ASSERT_EQ(recs[i].devices, std::vector<int>{0}) << i;
  }
  EXPECT_EQ(recs[3].devices, std::vector<int>{-1});  // host construct
  for (const op_dep_record& d : recs[0].deps) {
    EXPECT_EQ(d.place.type(), data_place::kind::device);
    EXPECT_NE(d.data_id, 0u);
  }
  // The two datas keep a stable identity across records.
  EXPECT_EQ(recs[0].deps[0].data_id, recs[1].deps[0].data_id);  // x
  EXPECT_EQ(recs[1].deps[1].data_id, recs[2].deps[0].data_id);  // y
  // Verify the program actually ran: x doubled, y = x + 1, peeked.
  EXPECT_DOUBLE_EQ(x[0], 2.0);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
}

// --- backend equivalence: identical lowering, bit-identical results ---

TEST(SubmitPipeline, StreamAndGraphBackendsLowerIdentically) {
  std::vector<std::string> seq_stream, seq_graph;
  std::vector<double> xs(64, 3.0), ys(64, 0.5);
  std::vector<double> xg = xs, yg = ys;
  {
    cudasim::scoped_platform sp(2, tdesc());
    context ctx(sp.get());
    trace_observer trace;
    ctx.observe(trace);
    seq_stream = run_all_constructs(ctx, sp.get(), xs, ys, trace);
  }
  {
    cudasim::scoped_platform sp(2, tdesc());
    context ctx = context::graph(sp.get());
    trace_observer trace;
    ctx.observe(trace);
    seq_graph = run_all_constructs(ctx, sp.get(), xg, yg, trace);
  }
  EXPECT_EQ(seq_stream, seq_graph);
  ASSERT_EQ(seq_stream.size(), 4u);
  // Bit-identical numerical results across backends.
  EXPECT_EQ(xs, xg);
  EXPECT_EQ(ys, yg);
}

// --- the disarmed path stays on the fast path ---

TEST(SubmitPipeline, DisarmedFanOutStaysOnFastPath) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);

  constexpr int n_threads = 4;
  constexpr std::size_t per = 8;
  std::vector<std::vector<double>> host(n_threads,
                                        std::vector<double>(32, 1.0));
  std::vector<logical_data<slice<double>>> data;
  for (int t = 0; t < n_threads; ++t) {
    data.push_back(ctx.logical_data(host[std::size_t(t)].data(), 32,
                                    "d" + std::to_string(t)));
  }
  // Warm-up allocates + validates device instances (fast-path eligibility).
  for (auto& d : data) {
    ctx.task(d.rw())->*[&p](cudasim::stream& s, slice<double> v) {
      p.launch_kernel(s, {.name = "warm"}, [=] {
        for (std::size_t i = 0; i < v.size(); ++i) {
          v(i) += 0.0;
        }
      });
    };
  }
  const std::uint64_t fast_before = ctx.fast_path_submits();
  ctx.parallel_submit(n_threads, n_threads * per, [&](std::size_t item) {
    auto& d = data[item % n_threads];
    ctx.task(d.rw())->*[&p](cudasim::stream& s, slice<double> v) {
      p.launch_kernel(s, {.name = "inc"}, [=] {
        for (std::size_t i = 0; i < v.size(); ++i) {
          v(i) += 1.0;
        }
      });
    };
  });
  // Every MT submission took the disarmed fast path: the pipeline's
  // observer hook must not have forced the slow path while disarmed.
  EXPECT_EQ(ctx.fast_path_submits() - fast_before, n_threads * per);
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  // No engine did any work on the disarmed path.
  EXPECT_EQ(rep.failures_total, 0u);
  EXPECT_EQ(rep.tasks_retried, 0u);
  EXPECT_EQ(rep.tasks_cancelled, 0u);
  for (int t = 0; t < n_threads; ++t) {
    ASSERT_DOUBLE_EQ(host[std::size_t(t)][0], 1.0 + double(per)) << t;
  }
}

TEST(SubmitPipeline, AttachedObserverLeavesFastPathAndDetachRestoresIt) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  std::vector<double> a(16, 0.0), b(16, 0.0);
  auto la = ctx.logical_data(a.data(), a.size(), "a");
  auto lb = ctx.logical_data(b.data(), b.size(), "b");
  std::vector<logical_data<slice<double>>> data{la, lb};
  auto submit_item = [&](std::size_t item) {
    ctx.task(data[item % 2].rw())->*
        [&p](cudasim::stream& s, slice<double> d) {
          p.launch_kernel(s, {.name = "k"}, [=] { d(0) += 1.0; });
        };
  };
  // Warm-up: allocate + validate both device instances.
  submit_item(0);
  submit_item(1);

  const std::uint64_t fast0 = ctx.fast_path_submits();
  ctx.parallel_submit(2, 4, submit_item);
  EXPECT_EQ(ctx.fast_path_submits() - fast0, 4u);  // disarmed: fast

  trace_observer trace;
  ctx.observe(trace);
  ctx.parallel_submit(2, 4, submit_item);
  EXPECT_EQ(ctx.fast_path_submits() - fast0, 4u);  // observed: slow path
  EXPECT_EQ(trace.records().size(), 4u);           // every op traced

  ctx.unobserve(trace);
  ctx.parallel_submit(2, 4, submit_item);
  EXPECT_EQ(ctx.fast_path_submits() - fast0, 8u);  // detached: fast again
  EXPECT_EQ(trace.records().size(), 4u);           // no further callbacks

  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_DOUBLE_EQ(a[0], 7.0);
  EXPECT_DOUBLE_EQ(b[0], 7.0);
}

// --- DOT exporter: tiled Cholesky task graph ---

TEST(SubmitPipeline, DotExportRendersTiledCholesky) {
  constexpr std::size_t n = 48, block = 16;
  std::vector<double> dense(n * n);
  blaslib::fill_spd(dense.data(), n, 7);
  blaslib::tile_matrix tiles(n, block);
  tiles.import_dense(dense.data());

  cudasim::scoped_platform sp(2, tdesc());
  context ctx(sp.get());
  dot_exporter& dot = ctx.enable_dot();
  const std::size_t tasks = blaslib::tiled_cholesky_stf(ctx, tiles);
  ctx.finalize();

  EXPECT_EQ(dot.op_count(), tasks);  // one node per submitted task
  const std::string text = dot.render();
  // Structurally valid DOT: one digraph, balanced braces, nodes and edges.
  EXPECT_EQ(text.rfind("digraph cudastf {", 0), 0u);
  EXPECT_EQ(text.find('{'), text.rfind('{'));
  EXPECT_EQ(text.back(), '\n');
  EXPECT_NE(text.find("}\n"), std::string::npos);
  EXPECT_NE(text.find(" -> "), std::string::npos);
  // The Cholesky kernels appear as node labels with modes and places.
  for (const char* sym : {"potrf", "trsm", "syrk", "gemm"}) {
    EXPECT_NE(text.find(std::string("task: ") + sym), std::string::npos)
        << sym;
  }
  EXPECT_NE(text.find("(rw@dev"), std::string::npos);
  EXPECT_NE(text.find("(r@dev"), std::string::npos);

  // write() produces the same text on disk; ctx.dot_export forwards to it.
  const std::string path = ::testing::TempDir() + "submit_pipeline_chol.dot";
  ASSERT_TRUE(ctx.dot_export(path));
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream read_back;
  read_back << f.rdbuf();
  EXPECT_EQ(read_back.str(), text);
  std::remove(path.c_str());
}

TEST(SubmitPipeline, DotExportWithoutEnableReturnsFalse) {
  cudasim::scoped_platform sp(1, tdesc());
  context ctx(sp.get());
  EXPECT_FALSE(ctx.dot_export(::testing::TempDir() + "never_written.dot"));
  ctx.finalize();
}

// --- DOT exporter: poison cause-chain edges ---

TEST(SubmitPipeline, DotRendersPoisonCauseChain) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  auto& fi = p.ensure_fault_injector();
  for (int i = 0; i < 8; ++i) {
    fi.schedule({.kind = cudasim::fault_kind::kernel_fault,
                 .device = -1,
                 .at_op = 0});
  }
  context ctx(p);
  ctx.set_retry_policy({.max_attempts = 2});
  dot_exporter& dot = ctx.enable_dot();

  constexpr std::size_t n = 32;
  std::vector<double> x(n, 7.0), y(n, 3.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  auto ly = ctx.logical_data(y.data(), n, "y");
  ctx.task(lx.rw()).set_symbol("writer")->*
      [&p](cudasim::stream& s, slice<double> dx) {
        p.launch_kernel(s, {.name = "w"}, [=] { dx(0) = 9.0; });
      };
  ctx.task(lx.read(), ly.rw()).set_symbol("reader")->*
      [&p](cudasim::stream& s, slice<const double> dx, slice<double> dy) {
        p.launch_kernel(s, {.name = "r"}, [=] { dy(0) += dx(0); });
      };
  const error_report rep = ctx.finalize();
  ASSERT_FALSE(rep.ok());

  const std::string text = dot.render();
  // The failed writer is marked, the cancelled reader grayed, and a red
  // dashed poison edge links the failure to the op it cancelled.
  EXPECT_NE(text.find("FAILED: kernel_fault"), std::string::npos) << text;
  EXPECT_NE(text.find("fillcolor=lightcoral"), std::string::npos);
  EXPECT_NE(text.find("\\ncancelled"), std::string::npos);
  EXPECT_NE(text.find("fillcolor=lightgray"), std::string::npos);
  EXPECT_NE(text.find("color=red, style=dashed"), std::string::npos);
  EXPECT_NE(text.find("[label=\"poison\""), std::string::npos);
}

// --- poison-cancel applies to every construct, host places included ---

// A host-place parallel_for whose input was poisoned upstream must be
// cancelled like the same op placed on a device: it must not run on the
// stale host copy and write its output back as if nothing had failed.
void host_parallel_for_on_poisoned_input(bool graph) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  auto& fi = p.ensure_fault_injector();
  for (int i = 0; i < 2; ++i) {
    fi.schedule({.kind = cudasim::fault_kind::kernel_fault,
                 .device = -1,
                 .at_op = 0});
  }
  context ctx = graph ? context::graph(p) : context(p);
  ctx.set_retry_policy({.max_attempts = 2});
  trace_observer trace;
  ctx.observe(trace);
  constexpr std::size_t n = 16;
  std::vector<double> x(n, 1.0), y(n, 2.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  auto ly = ctx.logical_data(y.data(), n, "y");
  ctx.task(exec_place::device(0), lx.rw()).set_symbol("writer")->*
      [&p](cudasim::stream& s, slice<double> dx) {
        p.launch_kernel(s, {.name = "writer"}, [=] { dx(0) = 8.0; });
      };
  ctx.parallel_for(exec_place::host(), ly.get_shape(), lx.read(), ly.rw())
          .set_symbol("host_axpy")
          ->*[](std::size_t i, slice<const double> dx, slice<double> dy) {
                dy(i) += dx(i);
              };
  const error_report rep = ctx.finalize();
  ASSERT_EQ(rep.failures.size(), 2u) << rep.to_string();
  EXPECT_EQ(rep.failures[0].kind, failure_kind::kernel_fault);
  EXPECT_EQ(rep.failures[1].kind, failure_kind::cancelled);
  EXPECT_EQ(rep.failures[1].symbol, "host_axpy");
  ASSERT_EQ(rep.failures[1].caused_by.size(), 1u);
  EXPECT_EQ(rep.failures[1].caused_by[0], rep.failures[0].id);
  EXPECT_EQ(rep.tasks_cancelled, 1u);
  EXPECT_NE(ly.impl()->poisoned_by, 0u);  // y is poisoned in turn
  EXPECT_DOUBLE_EQ(y[0], 2.0);            // and never written back
  ASSERT_EQ(trace.records().size(), 2u);
  EXPECT_EQ(trace.records()[1].status, op_status::cancelled);
  EXPECT_EQ(trace.records()[1].cause_ids,
            std::vector<std::uint64_t>{rep.failures[0].id});
}

TEST(SubmitPipeline, HostParallelForCancelsOnPoisonedInputStream) {
  host_parallel_for_on_poisoned_input(false);
}

TEST(SubmitPipeline, HostParallelForCancelsOnPoisonedInputGraph) {
  host_parallel_for_on_poisoned_input(true);
}

// --- CUDASTF_DOT_FILE: env-armed export at finalize ---

TEST(SubmitPipeline, EnvVarArmsDotExportAtFinalize) {
  const std::string path = ::testing::TempDir() + "submit_pipeline_env.dot";
  std::remove(path.c_str());
  ::setenv("CUDASTF_DOT_FILE", path.c_str(), 1);
  {
    cudasim::scoped_platform sp(1, tdesc());
    cudasim::platform& p = sp.get();
    context ctx(p);
    std::vector<double> v(8, 1.0);
    auto ld = ctx.logical_data(v.data(), v.size(), "v");
    ctx.task(ld.rw()).set_symbol("only")->*
        [&p](cudasim::stream& s, slice<double> d) {
          p.launch_kernel(s, {.name = "k"}, [=] { d(0) += 1.0; });
        };
    ctx.finalize();
  }
  ::unsetenv("CUDASTF_DOT_FILE");
  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << path;
  std::stringstream text;
  text << f.rdbuf();
  EXPECT_NE(text.str().find("task: only"), std::string::npos);
  std::remove(path.c_str());
}


// --- failure-outcome matrix: construct x failure x backend ---
//
// Pins how every construct ends under each failure class: the error
// report's records (kind, device, attempts, detail prefix), the retry /
// cancel / re-route counters, the op's terminal record, whether the call
// throws, that no instance is left pinned, and the host value written
// back. Every cell runs on two devices with a retry budget of 2; the op
// under test always reads x and read-writes y (y += x) after a fault-free
// warm-up task has left y modified on device 0.

enum class construct { task, pf_device, pf_host, launch_grid, host_launch };
enum class failure {
  submit_exception,  // disarmed: x was never written, so acquire throws
  armed_exception,   // the same with an idle injector (fault-aware path)
  kernel_fault,      // transient kernel faults past the retry budget
  loss_in_run,       // the op's last platform submission fails its device
  loss_in_acquire,   // the op's first platform submission fails its device
  poisoned_input,    // x's writer exhausted its retries upstream
};

const char* construct_name(construct c) {
  switch (c) {
    case construct::task:
      return "task";
    case construct::pf_device:
      return "parallel_for@dev0";
    case construct::pf_host:
      return "parallel_for@host";
    case construct::launch_grid:
      return "launch@all";
    case construct::host_launch:
      return "host_launch";
  }
  return "?";
}

const char* failure_name(failure f) {
  switch (f) {
    case failure::submit_exception:
      return "submit_exception";
    case failure::armed_exception:
      return "armed_exception";
    case failure::kernel_fault:
      return "kernel_fault";
    case failure::loss_in_run:
      return "loss_in_run";
    case failure::loss_in_acquire:
      return "loss_in_acquire";
    case failure::poisoned_input:
      return "poisoned_input";
  }
  return "?";
}

constexpr std::size_t kMatrixN = 64;

void submit_construct(context& ctx, cudasim::platform& p, construct c,
                      logical_data<slice<double>>& lx,
                      logical_data<slice<double>>& ly) {
  switch (c) {
    case construct::task:
      ctx.task(exec_place::device(0), lx.read(), ly.rw()).set_symbol("op")->*
          [&p](cudasim::stream& s, slice<const double> x, slice<double> y) {
            p.launch_kernel(s, {.name = "op"}, [=] {
              for (std::size_t i = 0; i < y.size(); ++i) {
                y(i) += x(i);
              }
            });
          };
      return;
    case construct::pf_device:
    case construct::pf_host:
      ctx.parallel_for(c == construct::pf_host ? exec_place::host()
                                               : exec_place::device(0),
                       ly.get_shape(), lx.read(), ly.rw())
              .set_symbol("op")
              ->*[](std::size_t i, slice<const double> x, slice<double> y) {
                    y(i) += x(i);
                  };
      return;
    case construct::launch_grid:
      ctx.launch(par(con(4)), exec_place::all_devices(), lx.read(), ly.rw())
              .set_symbol("op")
              ->*[](thread_hierarchy& th, slice<const double> x,
                    slice<double> y) {
                    for (auto [i] : th.apply_partition(shape(y))) {
                      y(i) += x(i);
                    }
                  };
      return;
    case construct::host_launch:
      ctx.host_launch(lx.read(), ly.rw()).set_symbol("op")->*
          [](slice<const double> x, slice<double> y) {
            for (std::size_t i = 0; i < y.size(); ++i) {
              y(i) += x(i);
            }
          };
      return;
  }
}

std::size_t pinned_instances(const logical_data<slice<double>>& ld) {
  std::size_t n = 0;
  for (const auto& inst : ld.impl()->instances()) {
    n += inst->pinned ? 1 : 0;
  }
  return n;
}

// Runs one cell and renders its outcome. With `span` non-null the cell is
// a dry run: no fault is scheduled, and *span receives the number of
// platform submissions the op under test made.
std::string run_cell(bool graph, construct c, failure f,
                     std::uint64_t* span = nullptr) {
  const bool dry = span != nullptr;
  std::uint64_t op_span = 0;
  if (!dry && f == failure::loss_in_run) {
    run_cell(graph, c, f, &op_span);
  }
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  cudasim::fault_injector* fi = nullptr;
  if (f != failure::submit_exception) {
    fi = &p.ensure_fault_injector();
  }
  context ctx = graph ? context::graph(p) : context(p);
  ctx.set_retry_policy({.max_attempts = 2});
  trace_observer trace;
  ctx.observe(trace);

  std::vector<double> x(kMatrixN, 1.0), y(kMatrixN, 2.0);
  const bool uninitialized_x =
      f == failure::submit_exception || f == failure::armed_exception;
  auto lx = uninitialized_x
                ? ctx.logical_data<double>(box<1>(kMatrixN), "x")
                : ctx.logical_data(x.data(), kMatrixN, "x");
  auto ly = ctx.logical_data(y.data(), kMatrixN, "y");
  ctx.task(exec_place::device(0), ly.rw()).set_symbol("warm")->*
      [&p](cudasim::stream& s, slice<double> dy) {
        p.launch_kernel(s, {.name = "warm"}, [=] {
          for (std::size_t i = 0; i < dy.size(); ++i) {
            dy(i) += 1.0;
          }
        });
      };
  // The grid op loses device 1 so a survivor remains inside its grid; the
  // single-device ops lose the device they run on.
  const int victim = c == construct::launch_grid ? 1 : 0;
  if (!dry) {
    switch (f) {
      case failure::submit_exception:
      case failure::armed_exception:
        break;
      case failure::kernel_fault:
        for (int i = 0; i < 8; ++i) {
          fi->schedule({.kind = cudasim::fault_kind::kernel_fault,
                        .device = -1,
                        .at_op = 0});
        }
        break;
      case failure::loss_in_run:
        fi->schedule({.kind = cudasim::fault_kind::device_fail,
                      .device = victim,
                      .at_op = fi->ops_seen() + op_span});
        break;
      case failure::loss_in_acquire:
        fi->schedule({.kind = cudasim::fault_kind::device_fail,
                      .device = victim,
                      .at_op = fi->ops_seen() + 1});
        break;
      case failure::poisoned_input:
        for (int i = 0; i < 2; ++i) {
          fi->schedule({.kind = cudasim::fault_kind::kernel_fault,
                        .device = -1,
                        .at_op = 0});
        }
        ctx.task(exec_place::device(0), lx.rw()).set_symbol("writer")->*
            [&p](cudasim::stream& s, slice<double> dx) {
              p.launch_kernel(s, {.name = "writer"}, [=] {
                for (std::size_t i = 0; i < dx.size(); ++i) {
                  dx(i) = 9.0;
                }
              });
            };
        break;
    }
  }

  const std::uint64_t ops_before = fi != nullptr ? fi->ops_seen() : 0;
  std::string threw = "0";
  try {
    submit_construct(ctx, p, c, lx, ly);
  } catch (const std::exception& e) {
    threw = std::string("\"") + std::string(e.what()).substr(0, 32) + "\"";
  }
  if (dry) {
    *span = fi->ops_seen() - ops_before;
  }
  const std::size_t pinned = pinned_instances(lx) + pinned_instances(ly);
  bool finalize_threw = false;
  error_report rep;
  try {
    rep = ctx.finalize();
  } catch (const std::exception&) {
    finalize_threw = true;
  }

  std::ostringstream out;
  out << "threw=" << threw << " op=";
  const op_record* rec = nullptr;
  for (const op_record& r : trace.records()) {
    if (r.symbol == "op") {
      rec = &r;
    }
  }
  if (rec == nullptr) {
    out << "none";
  } else {
    switch (rec->status) {
      case op_status::ok:
        out << "ok";
        break;
      case op_status::cancelled:
        out << "cancelled";
        break;
      case op_status::failed:
        out << "failed(" << failure_kind_name(rec->fail) << ")";
        break;
    }
    out << "[";
    for (std::size_t i = 0; i < rec->devices.size(); ++i) {
      out << (i > 0 ? "," : "") << rec->devices[i];
    }
    out << "]";
  }
  out << " retried=" << rep.tasks_retried
      << " cancelled=" << rep.tasks_cancelled
      << " rerouted=" << rep.tasks_rerouted
      << " blacklisted=" << rep.devices_blacklisted << " pinned=" << pinned
      << " y0=" << y[0];
  if (finalize_threw) {
    out << " finalize_threw";
  }
  for (const task_failure& tf : rep.failures) {
    out << " | " << failure_kind_name(tf.kind) << " '" << tf.symbol << "'@"
        << tf.device << "#" << tf.attempts << " \""
        << tf.detail.substr(0, 32) << "\"";
  }
  return out.str();
}

void check_matrix(bool graph, const std::vector<std::string>& golden) {
  const construct constructs[] = {construct::task, construct::pf_device,
                                   construct::pf_host, construct::launch_grid,
                                   construct::host_launch};
  const failure failures[] = {failure::submit_exception,
                              failure::armed_exception, failure::kernel_fault,
                              failure::loss_in_run, failure::loss_in_acquire,
                              failure::poisoned_input};
  std::size_t i = 0;
  bool same = true;
  std::string all;  // the whole table in golden syntax, printed on a diff
  for (construct c : constructs) {
    for (failure f : failures) {
      const std::string got = run_cell(graph, c, f);
      all += "      R\"(" + got + ")\",\n";
      const bool match = i < golden.size() && got == golden[i];
      EXPECT_TRUE(match) << construct_name(c) << " x " << failure_name(f)
                         << "\n  got:    " << got << "\n  golden: "
                         << (i < golden.size() ? golden[i] : "(none)");
      same = same && match;
      ++i;
    }
  }
  EXPECT_EQ(golden.size(), i);
  if (!same) {
    ADD_FAILURE() << "observed table:\n" << all;
  }
}

// Row order: construct (task, parallel_for@dev0, parallel_for@host,
// launch@all, host_launch) x failure (submit_exception, armed_exception,
// kernel_fault, loss_in_run, loss_in_acquire, poisoned_input).
TEST(FailureMatrix, StreamBackend) {
  check_matrix(false, {
      R"(threw="cudastf: read of uninitialized l" op=failed(submission_exception)[0] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=2 | submission_exception 'op'@0#1 "cudastf: read of uninitialized l")",
      R"(threw="cudastf: read of uninitialized l" op=failed(submission_exception)[0] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=2 | submission_exception 'op'@0#1 "cudastf: read of uninitialized l")",
      R"(threw=0 op=failed(kernel_fault)[0] retried=1 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=2 | kernel_fault 'op'@0#2 "error_launch_failed")",
      R"(threw=0 op=ok[1] retried=0 cancelled=0 rerouted=1 blacklisted=1 pinned=0 y0=4)",
      R"(threw=0 op=ok[1] retried=0 cancelled=0 rerouted=1 blacklisted=1 pinned=0 y0=4)",
      R"(threw=0 op=cancelled[] retried=1 cancelled=1 rerouted=0 blacklisted=0 pinned=0 y0=2 | kernel_fault 'writer'@0#2 "error_launch_failed" | cancelled 'op'@-1#0 "not executed: input poisoned by ")",
      R"(threw="cudastf: read of uninitialized l" op=failed(submission_exception)[0] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=3)",
      R"(threw="cudastf: read of uninitialized l" op=failed(submission_exception)[0] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=3)",
      R"(threw=0 op=failed(kernel_fault)[0] retried=1 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=2 | kernel_fault 'op'@0#2 "error_launch_failed")",
      R"(threw=0 op=ok[1] retried=0 cancelled=0 rerouted=1 blacklisted=1 pinned=0 y0=4)",
      R"(threw=0 op=ok[1] retried=0 cancelled=0 rerouted=1 blacklisted=1 pinned=0 y0=4)",
      R"(threw=0 op=cancelled[] retried=1 cancelled=1 rerouted=0 blacklisted=0 pinned=0 y0=2 | kernel_fault 'writer'@0#2 "error_launch_failed" | cancelled 'op'@-1#0 "not executed: input poisoned by ")",
      R"(threw="cudastf: read of uninitialized l" op=failed(submission_exception)[-1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=3)",
      R"(threw="cudastf: read of uninitialized l" op=failed(submission_exception)[-1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=3)",
      R"(threw=0 op=ok[-1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=4)",
      R"(threw=0 op=ok[-1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=4)",
      R"(threw=0 op=ok[-1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=4)",
      R"(threw=0 op=cancelled[] retried=1 cancelled=1 rerouted=0 blacklisted=0 pinned=0 y0=2 | kernel_fault 'writer'@0#2 "error_launch_failed" | cancelled 'op'@-1#0 "not executed: input poisoned by ")",
      R"(threw="cudastf: read of uninitialized l" op=failed(submission_exception)[0,1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=3)",
      R"(threw="cudastf: read of uninitialized l" op=failed(submission_exception)[0,1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=3)",
      R"(threw=0 op=failed(kernel_fault)[0] retried=1 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=2 | kernel_fault 'op'@0#2 "error_launch_failed")",
      R"(threw=0 op=ok[0] retried=0 cancelled=0 rerouted=1 blacklisted=1 pinned=0 y0=4)",
      R"(threw=0 op=ok[0] retried=0 cancelled=0 rerouted=1 blacklisted=1 pinned=0 y0=4)",
      R"(threw=0 op=cancelled[] retried=1 cancelled=1 rerouted=0 blacklisted=0 pinned=0 y0=2 | kernel_fault 'writer'@0#2 "error_launch_failed" | cancelled 'op'@-1#0 "not executed: input poisoned by ")",
      R"(threw="cudastf: read of uninitialized l" op=failed(submission_exception)[-1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=2 | submission_exception 'op'@-1#1 "cudastf: read of uninitialized l")",
      R"(threw="cudastf: read of uninitialized l" op=failed(submission_exception)[-1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=2 | submission_exception 'op'@-1#1 "cudastf: read of uninitialized l")",
      R"(threw=0 op=ok[-1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=4)",
      R"(threw=0 op=ok[-1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=4)",
      R"(threw=0 op=ok[-1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=4)",
      R"(threw=0 op=cancelled[] retried=1 cancelled=1 rerouted=0 blacklisted=0 pinned=0 y0=2 | kernel_fault 'writer'@0#2 "error_launch_failed" | cancelled 'op'@-1#0 "not executed: input poisoned by ")",
  });
}

TEST(FailureMatrix, GraphBackend) {
  check_matrix(true, {
      R"(threw="cudastf: read of uninitialized l" op=failed(submission_exception)[0] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=2 | submission_exception 'op'@0#1 "cudastf: read of uninitialized l")",
      R"(threw="cudastf: read of uninitialized l" op=failed(submission_exception)[0] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=2 | submission_exception 'op'@0#1 "cudastf: read of uninitialized l")",
      R"(threw=0 op=failed(kernel_fault)[0] retried=1 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=2 | kernel_fault 'op'@0#2 "error_launch_failed" | device_lost 'finalize'@-1#1 "final epoch refused: cudastf: tr")",
      R"(threw="cudastf: device lost" op=none retried=0 cancelled=0 rerouted=0 blacklisted=1 pinned=0 y0=2 | device_lost 'finalize'@-1#1 "final epoch refused: cudastf: de")",
      R"(threw="cudastf: device lost" op=none retried=0 cancelled=0 rerouted=0 blacklisted=1 pinned=0 y0=2)",
      R"(threw=0 op=cancelled[] retried=1 cancelled=1 rerouted=0 blacklisted=0 pinned=0 y0=2 | kernel_fault 'writer'@0#2 "error_launch_failed" | cancelled 'op'@-1#0 "not executed: input poisoned by ")",
      R"(threw="cudastf: read of uninitialized l" op=failed(submission_exception)[0] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=3)",
      R"(threw="cudastf: read of uninitialized l" op=failed(submission_exception)[0] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=3)",
      R"(threw=0 op=failed(kernel_fault)[0] retried=1 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=2 | kernel_fault 'op'@0#2 "error_launch_failed" | device_lost 'finalize'@-1#1 "final epoch refused: cudastf: tr")",
      R"(threw="cudastf: device lost" op=none retried=0 cancelled=0 rerouted=0 blacklisted=1 pinned=0 y0=2 | device_lost 'finalize'@-1#1 "final epoch refused: cudastf: de")",
      R"(threw="cudastf: device lost" op=none retried=0 cancelled=0 rerouted=0 blacklisted=1 pinned=0 y0=2)",
      R"(threw=0 op=cancelled[] retried=1 cancelled=1 rerouted=0 blacklisted=0 pinned=0 y0=2 | kernel_fault 'writer'@0#2 "error_launch_failed" | cancelled 'op'@-1#0 "not executed: input poisoned by ")",
      R"(threw="cudastf: read of uninitialized l" op=failed(submission_exception)[-1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=3)",
      R"(threw="cudastf: read of uninitialized l" op=failed(submission_exception)[-1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=3)",
      R"(threw=0 op=ok[-1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=2 | device_lost 'finalize'@-1#1 "final epoch refused: cudastf: tr")",
      R"(threw=0 op=ok[-1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=2 | device_lost 'finalize'@-1#1 "final epoch refused: cudastf: de")",
      R"(threw=0 op=ok[-1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=2 | device_lost 'finalize'@-1#1 "final epoch refused: cudastf: de")",
      R"(threw=0 op=cancelled[] retried=1 cancelled=1 rerouted=0 blacklisted=0 pinned=0 y0=2 | kernel_fault 'writer'@0#2 "error_launch_failed" | cancelled 'op'@-1#0 "not executed: input poisoned by ")",
      R"(threw="cudastf: read of uninitialized l" op=failed(submission_exception)[0,1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=3)",
      R"(threw="cudastf: read of uninitialized l" op=failed(submission_exception)[0,1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=3)",
      R"(threw=0 op=failed(kernel_fault)[0] retried=1 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=2 | kernel_fault 'op'@0#2 "error_launch_failed" | device_lost 'finalize'@-1#1 "final epoch refused: cudastf: tr")",
      R"(threw=0 op=ok[0] retried=0 cancelled=0 rerouted=1 blacklisted=1 pinned=0 y0=4)",
      R"(threw=0 op=ok[0] retried=0 cancelled=0 rerouted=1 blacklisted=1 pinned=0 y0=4)",
      R"(threw=0 op=cancelled[] retried=1 cancelled=1 rerouted=0 blacklisted=0 pinned=0 y0=2 | kernel_fault 'writer'@0#2 "error_launch_failed" | cancelled 'op'@-1#0 "not executed: input poisoned by ")",
      R"(threw="cudastf: read of uninitialized l" op=failed(submission_exception)[-1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=2 | submission_exception 'op'@-1#1 "cudastf: read of uninitialized l")",
      R"(threw="cudastf: read of uninitialized l" op=failed(submission_exception)[-1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=2 | submission_exception 'op'@-1#1 "cudastf: read of uninitialized l")",
      R"(threw=0 op=ok[-1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=2 | device_lost 'finalize'@-1#1 "final epoch refused: cudastf: tr")",
      R"(threw=0 op=ok[-1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=2 | device_lost 'finalize'@-1#1 "final epoch refused: cudastf: de")",
      R"(threw=0 op=ok[-1] retried=0 cancelled=0 rerouted=0 blacklisted=0 pinned=0 y0=2 | device_lost 'finalize'@-1#1 "final epoch refused: cudastf: de")",
      R"(threw=0 op=cancelled[] retried=1 cancelled=1 rerouted=0 blacklisted=0 pinned=0 y0=2 | kernel_fault 'writer'@0#2 "error_launch_failed" | cancelled 'op'@-1#0 "not executed: input poisoned by ")",
  });
}

}  // namespace
