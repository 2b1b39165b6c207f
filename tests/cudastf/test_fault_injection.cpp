// Deterministic fault injection and the STF error model (DESIGN.md §5):
// sticky CUDA-style statuses, bit-identical seeded replay, transient-fault
// retry with virtual-time backoff, poison/cancel cause chains, device
// blacklisting with re-routing (plain tasks, tiled Cholesky, launch(),
// graph epochs after the loss of device 0), OOM diagnostics, exception-safe
// submission, and a miniWeather chaos soak.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "blaslib/blas_host.hpp"
#include "blaslib/tiled_cholesky.hpp"
#include "cudastf/cudastf.hpp"
#include "miniweather/baselines.hpp"
#include "miniweather/core.hpp"
#include "miniweather/stf_driver.hpp"

namespace {

using namespace cudastf;

cudasim::device_desc tdesc() {
  auto d = cudasim::test_desc();
  d.mem_capacity = 512u << 20;
  return d;
}

void axpy_kernel(cudasim::platform& p, cudasim::stream& s, double a,
                 slice<const double> x, slice<double> y) {
  p.launch_kernel(s, {.name = "axpy", .flops = double(x.size())}, [=] {
    for (std::size_t i = 0; i < x.size(); ++i) {
      y(i) += a * x(i);
    }
  });
}

// --- CUDA-style sticky statuses (cudasim layer) ---

TEST(FaultInjection, InjectedFaultSticksToStream) {
  cudasim::platform p(1, tdesc());
  p.ensure_fault_injector().schedule(
      {.kind = cudasim::fault_kind::kernel_fault, .device = -1, .at_op = 0});
  cudasim::stream s(p);
  int hits = 0;
  p.launch_kernel(s, {.name = "k"}, [&] { ++hits; });  // refused
  EXPECT_EQ(s.status(), cudasim::sim_status::error_launch_failed);
  // Sticky: further submissions are refused without side effects.
  p.launch_kernel(s, {.name = "k2"}, [&] { ++hits; });
  EXPECT_EQ(s.status(), cudasim::sim_status::error_launch_failed);
  s.synchronize();
  EXPECT_EQ(hits, 0);
  // Cleared, the stream works again.
  s.clear_status();
  p.launch_kernel(s, {.name = "k3"}, [&] { ++hits; });
  EXPECT_EQ(s.status(), cudasim::sim_status::success);
  s.synchronize();
  EXPECT_EQ(hits, 1);
}

TEST(FaultInjection, FailedDeviceRefusesNewWorkButAllowsD2H) {
  cudasim::platform p(2, tdesc());
  cudasim::stream s(p);
  std::vector<double> host(16, 1.0);
  void* dev = p.malloc_async(16 * sizeof(double), s);
  ASSERT_NE(dev, nullptr);
  p.memcpy_async(dev, host.data(), 16 * sizeof(double),
                 cudasim::memcpy_kind::host_to_device, s);
  s.synchronize();

  p.fail_device(0);
  EXPECT_TRUE(p.device_failed(0));
  // Evacuation grace: d2h from the dead device still works...
  std::vector<double> out(16, 0.0);
  p.memcpy_async(out.data(), dev, 16 * sizeof(double),
                 cudasim::memcpy_kind::device_to_host, s);
  EXPECT_EQ(s.status(), cudasim::sim_status::success);
  s.synchronize();
  EXPECT_EQ(out[7], 1.0);
  // ...but new kernels are refused with a device-lost status.
  p.launch_kernel(s, {.name = "k"}, {});
  EXPECT_EQ(s.status(), cudasim::sim_status::error_device_lost);
  s.clear_status();
}

// --- deterministic replay ---

struct replay_witness {
  std::vector<cudasim::fault_injector::log_entry> log;
  double now = 0.0;
  std::uint64_t failures = 0;
};

// A fixed two-device workload run under a seeded random schedule.
replay_witness run_seeded_workload(std::uint64_t seed) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  p.ensure_fault_injector().schedule_random(seed, 8, 300, 2,
                                            /*allow_device_fail=*/true);
  context ctx(p);
  constexpr std::size_t n = 256;
  std::vector<double> x(n, 1.0), y(n, 0.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  auto ly = ctx.logical_data(y.data(), n, "y");
  for (int t = 0; t < 24; ++t) {
    ctx.task(exec_place::device(t % 2), lx.read(), ly.rw())->*
        [&p](cudasim::stream& s, slice<const double> dx, slice<double> dy) {
          axpy_kernel(p, s, 1.0, dx, dy);
        };
  }
  const error_report rep = ctx.finalize();
  return {p.injector()->log(), p.now(), rep.failures_total};
}

TEST(FaultInjection, SeededScheduleReplaysBitIdentically) {
  const replay_witness a = run_seeded_workload(42);
  const replay_witness b = run_seeded_workload(42);
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    EXPECT_EQ(a.log[i], b.log[i]) << "log entry " << i;
  }
  EXPECT_DOUBLE_EQ(a.now, b.now);
  EXPECT_EQ(a.failures, b.failures);
  // A different seed really produces a different fault history.
  const replay_witness c = run_seeded_workload(43);
  EXPECT_TRUE(c.log != a.log || c.now != a.now);
}

TEST(FaultInjection, FaultFreeRunKeepsTimelineUnchanged) {
  // Arming an (empty) injector must not perturb the simulated timeline:
  // the fault-aware submission path issues the same platform operations.
  double t_plain = 0.0;
  double t_armed = 0.0;
  for (int armed = 0; armed < 2; ++armed) {
    cudasim::scoped_platform sp(2, tdesc());
    cudasim::platform& p = sp.get();
    if (armed) {
      p.ensure_fault_injector();  // no scheduled faults
    }
    context ctx(p);
    constexpr std::size_t n = 512;
    std::vector<double> x(n, 1.0), y(n, 0.0);
    auto lx = ctx.logical_data(x.data(), n, "x");
    auto ly = ctx.logical_data(y.data(), n, "y");
    for (int t = 0; t < 16; ++t) {
      ctx.task(exec_place::device(t % 2), lx.read(), ly.rw())->*
          [&p](cudasim::stream& s, slice<const double> dx, slice<double> dy) {
            axpy_kernel(p, s, 1.0, dx, dy);
          };
    }
    const error_report rep = ctx.finalize();
    EXPECT_TRUE(rep.ok());
    (armed ? t_armed : t_plain) = p.now();
  }
  EXPECT_DOUBLE_EQ(t_plain, t_armed);
}

// --- transient faults absorbed by retry ---

TEST(FaultInjection, RetryAbsorbsTransientKernelFault) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  p.ensure_fault_injector().schedule(
      {.kind = cudasim::fault_kind::kernel_fault, .device = -1, .at_op = 0});
  context ctx(p);
  constexpr std::size_t n = 64;
  std::vector<double> x(n, 2.0), y(n, 1.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  auto ly = ctx.logical_data(y.data(), n, "y");
  ctx.task(lx.read(), ly.rw())->*
      [&p](cudasim::stream& s, slice<const double> dx, slice<double> dy) {
        axpy_kernel(p, s, 3.0, dx, dy);
      };
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GE(rep.tasks_retried, 1u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(y[i], 7.0) << i;
  }
}

TEST(FaultInjection, RetryAbsorbsTransientLinkError) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  p.ensure_fault_injector().schedule(
      {.kind = cudasim::fault_kind::link_error, .device = -1, .at_op = 0});
  context ctx(p);
  constexpr std::size_t n = 64;
  std::vector<double> x(n, 5.0), y(n, 0.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  auto ly = ctx.logical_data(y.data(), n, "y");
  ctx.task(lx.read(), ly.rw())->*  // h2d copy of x is refused once
      [&p](cudasim::stream& s, slice<const double> dx, slice<double> dy) {
        axpy_kernel(p, s, 1.0, dx, dy);
      };
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GE(rep.tasks_retried, 1u);
  EXPECT_DOUBLE_EQ(y[13], 5.0);
}

TEST(FaultInjection, InjectedAllocFailureRetriedNotFatal) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  p.ensure_fault_injector().schedule(
      {.kind = cudasim::fault_kind::alloc_fail, .device = -1, .at_op = 0});
  context ctx(p);
  constexpr std::size_t n = 64;
  std::vector<double> x(n, 1.0), y(n, 0.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  auto ly = ctx.logical_data(y.data(), n, "y");
  ctx.task(lx.read(), ly.rw())->*
      [&p](cudasim::stream& s, slice<const double> dx, slice<double> dy) {
        axpy_kernel(p, s, 1.0, dx, dy);
      };
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GE(rep.alloc_retries, 1u);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
}

// --- poison and cancellation cause chains ---

TEST(FaultInjection, ExhaustedRetriesPoisonDataAndCancelDependents) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  auto& fi = p.ensure_fault_injector();
  // More kernel faults than the retry budget: the writer task fails.
  for (int i = 0; i < 8; ++i) {
    fi.schedule(
        {.kind = cudasim::fault_kind::kernel_fault, .device = -1, .at_op = 0});
  }
  context ctx(p);
  ctx.set_retry_policy({.max_attempts = 2});
  constexpr std::size_t n = 32;
  std::vector<double> x(n, 7.0), y(n, 3.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  auto ly = ctx.logical_data(y.data(), n, "y");
  ctx.task(lx.rw())->*[&p](cudasim::stream& s, slice<double> dx) {
    p.launch_kernel(s, {.name = "w"}, [=] {
      for (std::size_t i = 0; i < dx.size(); ++i) {
        dx(i) = 9.0;
      }
    });
  };
  // Depends on the poisoned x: must be cancelled, poisoning y in turn.
  ctx.task(lx.read(), ly.rw())->*
      [&p](cudasim::stream& s, slice<const double> dx, slice<double> dy) {
        axpy_kernel(p, s, 1.0, dx, dy);
      };
  const error_report rep = ctx.finalize();
  ASSERT_FALSE(rep.ok());
  ASSERT_GE(rep.failures.size(), 2u);
  const task_failure& root = rep.failures[0];
  EXPECT_EQ(root.kind, failure_kind::kernel_fault);
  EXPECT_EQ(root.attempts, 2);
  const task_failure& cancelled = rep.failures[1];
  EXPECT_EQ(cancelled.kind, failure_kind::cancelled);
  ASSERT_EQ(cancelled.caused_by.size(), 1u);
  EXPECT_EQ(cancelled.caused_by[0], root.id);
  EXPECT_EQ(rep.tasks_cancelled, 1u);
  // Poisoned data is never written back: host copies keep their old values.
  EXPECT_DOUBLE_EQ(x[0], 7.0);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  // The report is printable and names the failure kinds.
  const std::string text = rep.to_string();
  EXPECT_NE(text.find("kernel_fault"), std::string::npos);
  EXPECT_NE(text.find("cancelled"), std::string::npos);
  // Cause-chain tree rendering: the cancelled task is nested under the
  // root failure, and each failure lists the data it poisoned by name.
  EXPECT_NE(text.find("└─"), std::string::npos);
  EXPECT_NE(text.find("poisoned data: 'x'"), std::string::npos);
  EXPECT_NE(text.find("poisoned data: 'y'"), std::string::npos);
}

// --- OOM diagnostics ---

TEST(FaultInjection, PoolExhaustionThrowsOomErrorWithContext) {
  auto d = cudasim::test_desc();
  d.mem_capacity = 1u << 16;  // 64 KiB pool
  cudasim::scoped_platform sp(1, d);
  context ctx(sp.get());
  constexpr std::size_t n = 1u << 15;  // 256 KiB of doubles
  std::vector<double> x(n, 0.0);
  auto lx = ctx.logical_data(x.data(), n, "huge");
  bool caught = false;
  try {
    ctx.task(lx.rw())->*[](cudasim::stream&, slice<double>) {};
  } catch (const oom_error& e) {
    caught = true;
    EXPECT_EQ(e.device(), 0);
    EXPECT_EQ(e.requested(), n * sizeof(double));
    EXPECT_LE(e.pool_free(), std::size_t(1u << 16));
    EXPECT_EQ(e.data_name(), "huge");
    const std::string what = e.what();
    EXPECT_NE(what.find("huge"), std::string::npos);
  }
  ASSERT_TRUE(caught);
  const error_report rep = ctx.finalize();
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.failures[0].kind, failure_kind::out_of_memory);
}

TEST(FaultInjection, ScratchOomErrorCarriesContext) {
  scratch_oom_error e(4096, 1024, 2048);
  EXPECT_EQ(e.requested(), 4096u);
  EXPECT_EQ(e.used(), 1024u);
  EXPECT_EQ(e.capacity(), 2048u);
  const std::string what = e.what();
  EXPECT_NE(what.find("4096"), std::string::npos);
  EXPECT_NE(what.find("2048"), std::string::npos);
}

// --- exception-safe submission ---

TEST(FaultInjection, ThrowingTaskBodyLeavesContextUsable) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  constexpr std::size_t n = 32;
  std::vector<double> x(n, 1.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  std::vector<double> y(n, 2.0);
  auto ly = ctx.logical_data(y.data(), n, "y");
  EXPECT_THROW(
      (ctx.task(lx.rw())->*[](cudasim::stream&, slice<double>) {
        throw std::runtime_error("boom");
      }),
      std::runtime_error);
  // The failure is recorded and x — which the task would have written — is
  // poisoned, so a dependent on x is cancelled rather than fed stale data.
  EXPECT_GE(ctx.report().failures_total, 1u);
  ctx.task(lx.read())->*[](cudasim::stream&, slice<const double>) {};
  // Independent data is untouched: the context keeps working.
  ctx.task(ly.rw())->*[&p](cudasim::stream& s, slice<double> dy) {
    p.launch_kernel(s, {.name = "k"}, [=] { dy(0) = 11.0; });
  };
  const error_report rep = ctx.finalize();
  ASSERT_GE(rep.failures.size(), 2u);
  EXPECT_EQ(rep.failures[0].kind, failure_kind::submission_exception);
  EXPECT_EQ(rep.failures[1].kind, failure_kind::cancelled);
  ASSERT_EQ(rep.failures[1].caused_by.size(), 1u);
  EXPECT_EQ(rep.failures[1].caused_by[0], rep.failures[0].id);
  EXPECT_DOUBLE_EQ(x[0], 1.0);   // poisoned: never written back
  EXPECT_DOUBLE_EQ(y[0], 11.0);  // healthy data still flows
  EXPECT_EQ(p.tl().live_count(), 0u);
}

// --- device blacklisting and re-routing ---

TEST(FaultInjection, DeviceLossReroutesToSurvivorWithEvacuation) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  auto& fi = p.ensure_fault_injector();
  context ctx(p);
  constexpr std::size_t n = 64;
  std::vector<double> x(n, 1.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  // Writes x on device 1 (its only up-to-date copy lives there afterwards).
  ctx.task(exec_place::device(1), lx.rw())->*
      [&p](cudasim::stream& s, slice<double> dx) {
        p.launch_kernel(s, {.name = "dbl"}, [=] {
          for (std::size_t i = 0; i < dx.size(); ++i) {
            dx(i) *= 2.0;
          }
        });
      };
  // Device 1 fail-stops before the next submission: the modified copy must
  // be evacuated to the host and the task re-routed to device 0.
  fi.schedule({.kind = cudasim::fault_kind::device_fail,
               .device = 1,
               .at_op = fi.ops_seen() + 1});
  ctx.task(exec_place::device(1), lx.rw())->*
      [&p](cudasim::stream& s, slice<double> dx) {
        p.launch_kernel(s, {.name = "inc"}, [=] {
          for (std::size_t i = 0; i < dx.size(); ++i) {
            dx(i) += 1.0;
          }
        });
      };
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(rep.devices_blacklisted, 1u);
  EXPECT_GE(rep.tasks_rerouted, 1u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(x[i], 3.0) << i;  // both tasks applied exactly once
  }
}

TEST(FaultInjection, CholeskyCompletesUnderSingleDeviceFailure) {
  using namespace blaslib;
  constexpr std::size_t n = 64, block = 16;
  std::vector<double> dense(n * n), ref(n * n);
  fill_spd(dense.data(), n, 11);
  ref = dense;
  ASSERT_TRUE(cholesky_reference(ref.data(), n));

  cudasim::scoped_platform sp(4, tdesc());
  sp.get().ensure_fault_injector().schedule(
      {.kind = cudasim::fault_kind::device_fail, .device = 2, .at_op = 40});
  tile_matrix tiles(n, block);
  tiles.import_dense(dense.data());
  error_report rep;
  {
    context ctx(sp.get());
    tiled_cholesky_stf(ctx, tiles);
    rep = ctx.finalize();
  }
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(rep.devices_blacklisted, 1u);
  EXPECT_GE(rep.tasks_rerouted, 1u);
  std::vector<double> out(n * n, 0.0);
  tiles.export_dense(out.data());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      ASSERT_NEAR(out[i * n + j], ref[i * n + j], 1e-8) << i << "," << j;
    }
  }
}

TEST(FaultInjection, LaunchReductionSurvivesDeviceLoss) {
  cudasim::scoped_platform sp(4, tdesc());
  cudasim::platform& p = sp.get();
  p.ensure_fault_injector().schedule(
      {.kind = cudasim::fault_kind::device_fail, .device = 3, .at_op = 5});
  context ctx(p);
  constexpr std::size_t n = 1 << 12;
  std::vector<double> x(n);
  std::iota(x.begin(), x.end(), 1.0);
  double sum[1] = {0.0};
  auto lx = ctx.logical_data(x.data(), n, "x");
  auto lsum = ctx.logical_data(sum, "sum");
  auto spec = par(con(8, hw_scope::thread));
  ctx.launch(spec, exec_place::all_devices(), lx.read(), lsum.rw())->*
      [](thread_hierarchy& th, slice<const double> xs, slice<double> s) {
        double local = 0.0;
        for (auto [i] : th.apply_partition(shape(xs))) {
          local += xs(i);
        }
        auto ti = th.inner();
        double* block_sum = ti.scratchpad<double>(ti.size());
        block_sum[ti.rank()] = local;
        for (std::size_t k = ti.size() / 2; k > 0; k /= 2) {
          ti.sync();
          if (ti.rank() < k) {
            block_sum[ti.rank()] += block_sum[ti.rank() + k];
          }
        }
        if (ti.rank() == 0) {
          atomic_add(&s(0), block_sum[0]);
        }
      };
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(rep.devices_blacklisted, 1u);
  EXPECT_DOUBLE_EQ(sum[0], double(n) * double(n + 1) / 2.0);
}

// Graph backend: epochs launch on one serializing stream, created on
// device 0. Once device 0 is lost, every later epoch must still launch on
// a survivor.
TEST(FaultInjection, GraphEpochsLaunchAfterDeviceZeroLoss) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  p.fail_device(0);  // before any work
  context ctx = context::graph(p);
  double y[1] = {0.0};
  auto ly = ctx.logical_data(y, "y");
  ctx.host_launch(ly.write())->*[](slice<double> v) { v(0) = 7.0; };
  ctx.task(exec_place::device(1), ly.rw())->*
      [&p](cudasim::stream& s, slice<double> v) {
        p.launch_kernel(s, {.name = "inc"}, [=] { v(0) += 1.0; });
      };
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_DOUBLE_EQ(y[0], 8.0);
}

// Graph backend, checkpointing armed: device 0 fail-stops at the launch of
// the final epoch. finalize() restarts the epoch on device 1 and its second
// fence must launch there too.
TEST(FaultInjection, GraphFinalizeRestartAfterDeviceZeroLoss) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  context ctx = context::graph(p);
  ctx.set_retry_policy({.max_attempts = 1});
  ctx.enable_checkpointing();  // committed snapshot = registration contents
  constexpr std::size_t n = 8;
  std::vector<double> y(n);
  std::iota(y.begin(), y.end(), 0.0);
  auto ly = ctx.logical_data(y.data(), n, "y");
  ctx.task(exec_place::device(0), ly.rw())->*
      [&p](cudasim::stream& s, slice<double> v) {
        p.launch_kernel(s, {.name = "inc"}, [=] {
          for (std::size_t i = 0; i < v.size(); ++i) {
            v(i) += 1.0;
          }
        });
      };
  // Device 0 fail-stops at the first platform op of finalize().
  auto& fi = p.ensure_fault_injector();
  fi.schedule({.kind = cudasim::fault_kind::device_fail,
               .device = 0,
               .at_op = fi.ops_seen() + 1});
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(rep.devices_blacklisted, 1u);
  EXPECT_GE(ctx.stats().tasks_replayed, 1u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(y[i], double(i) + 1.0) << i;
  }
}

// --- miniWeather chaos soak ---

TEST(FaultInjection, MiniWeatherChaosSoak) {
  using namespace miniweather;
  config c;
  c.nx = 48;
  c.nz = 24;
  c.sim_time = 10.0;
  c.tc = testcase::thermal;

  // Serial reference for the fault-free (or fully recovered) outcome.
  fields ref(c);
  init_fields(c, ref);
  for (std::size_t s = 0; s < c.num_steps(); ++s) {
    step_serial(c, ref, s);
  }

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto d = cudasim::test_desc();
    d.mem_capacity = 1ull << 30;
    cudasim::scoped_platform sp(2, d);
    sp.get().ensure_fault_injector().schedule_random(
        seed, 5, 400, 2, /*allow_device_fail=*/true);
    context ctx(sp.get());
    stf_simulation sim(ctx, c, exec_place::all_devices(), {.compute = true});
    sim.run();
    const error_report rep = ctx.finalize();
    fields& got = sim.host_fields();
    // Invariant either way: host state is finite, never garbage.
    for (std::size_t i = 0; i < got.state.size(); ++i) {
      ASSERT_TRUE(std::isfinite(got.state[i]))
          << "seed " << seed << " index " << i;
    }
    if (rep.ok()) {
      // Faults (if any fired) were fully absorbed: results match serial.
      double m = 0.0;
      for (std::size_t i = 0; i < got.state.size(); ++i) {
        m = std::max(m, std::fabs(got.state[i] - ref.state[i]));
      }
      EXPECT_LT(m, 1e-8) << "seed " << seed;
    } else {
      // Unrecovered failure: a clean structured report, no crash, and the
      // cause chain is well-formed (every cause references a real failure).
      EXPECT_GE(rep.failures_total, 1u) << "seed " << seed;
      for (const task_failure& f : rep.failures) {
        for (std::uint64_t cause : f.caused_by) {
          EXPECT_GT(cause, 0u);
          EXPECT_LT(cause, f.id);
        }
      }
    }
  }
}

}  // namespace
