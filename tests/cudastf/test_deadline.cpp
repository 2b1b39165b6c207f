// Hang recovery and overload control (DESIGN.md §12): virtual-time
// deadlines, cooperative cancellation of wedged DES ops, the escalation
// ladder (retry in place -> device quarantine -> epoch restart -> poison
// cancel with a stuck-chain cause), drain deadlines at fence()/finalize(),
// backpressure (blocking admission window, try_task shedding), and the
// zero-cost disarmed mode.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cudastf/cudastf.hpp"

namespace {

using namespace cudastf;

cudasim::device_desc tdesc() {
  auto d = cudasim::test_desc();
  d.mem_capacity = 512u << 20;
  return d;
}

void axpb_kernel(cudasim::platform& p, cudasim::stream& s, double a, double b,
                 slice<double> y) {
  p.launch_kernel(s, {.name = "axpb", .flops = double(y.size())}, [=] {
    for (std::size_t i = 0; i < y.size(); ++i) {
      y(i) = a * y(i) + b;
    }
  });
}

// Non-commuting per-step update so any lost, doubled or reordered task
// shows up in the bytes (the bit-identity witness used throughout).
void run_chain(cudasim::platform& p, context& ctx, logical_data<slice<double>>& lx,
               int steps, int first = 0) {
  for (int t = first; t < steps; ++t) {
    const double a = 1.0 + 0.125 * double(t % 4);
    const double b = double(t % 7);
    ctx.task(lx.rw()).set_symbol("step" + std::to_string(t))->*
        [&p, a, b](cudasim::stream& s, slice<double> v) {
          axpb_kernel(p, s, a, b, v);
        };
  }
}

std::vector<double> fault_free_reference(std::size_t n, int steps) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  std::vector<double> x(n, 1.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  run_chain(p, ctx, lx, steps);
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  return x;
}

// --- disarmed mode: zero-cost, zero counters (Table 1 parity) ---

TEST(Deadline, DisarmedContextStaysOnFastPathWithZeroCounters) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  EXPECT_EQ(ctx.hang_recovery(), nullptr);
  constexpr std::size_t n = 64;
  std::vector<double> x(n, 1.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  ctx.task(lx.rw())->*[&](cudasim::stream& s, slice<double> v) {
    axpb_kernel(p, s, 1.0, 0.0, v);  // warm-up: instance valid
  };
  const std::uint64_t fast_before = ctx.fast_path_submits();
  // The disarmed fast path engages under parallel_submit (DESIGN.md §11).
  ctx.parallel_submit(2, 16, [&](std::size_t) {
    ctx.task(lx.rw())->*[&](cudasim::stream& s, slice<double> v) {
      axpb_kernel(p, s, 1.0, 1.0, v);
    };
  });
  // No deadline, no limits: submissions stay on the disarmed fast path
  // and the hang-recovery counters never move.
  EXPECT_EQ(ctx.fast_path_submits() - fast_before, 16u);
  const backend_stats& st = ctx.stats();
  EXPECT_EQ(st.deadlines_armed, 0u);
  EXPECT_EQ(st.hangs_detected, 0u);
  EXPECT_EQ(st.ops_cancelled, 0u);
  EXPECT_EQ(st.quarantines, 0u);
  EXPECT_EQ(st.submits_throttled, 0u);
  EXPECT_EQ(st.tasks_shed, 0u);
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(x[i], 17.0) << i;
  }
}

// --- stall injection semantics (no deadline armed) ---

TEST(Deadline, TransientStallDelaysButCompletesUnarmed) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  auto& inj = p.ensure_fault_injector();
  context ctx(p);
  constexpr std::size_t n = 64;
  std::vector<double> x(n, 1.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  run_chain(p, ctx, lx, 2);  // warm-up + a step
  // Transient stall: the next kernel hangs 50 virtual seconds, then
  // completes on its own — no recovery machinery involved.
  inj.schedule({.kind = cudasim::fault_kind::stall,
                .at_op = inj.ops_seen() + 1,
                .stall_seconds = 50.0});
  run_chain(p, ctx, lx, 8, 2);
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GE(p.now(), 50.0);
  EXPECT_EQ(ctx.stats().hangs_detected, 0u);
  const std::vector<double> ref = fault_free_reference(n, 8);
  EXPECT_EQ(std::memcmp(x.data(), ref.data(), n * sizeof(double)), 0);
}

TEST(Deadline, PermanentStallUnarmedWedgesLoudly) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  auto& inj = p.ensure_fault_injector();
  context ctx(p);
  constexpr std::size_t n = 64;
  std::vector<double> x(n, 1.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  run_chain(p, ctx, lx, 2);
  inj.schedule({.kind = cudasim::fault_kind::stall,
                .at_op = inj.ops_seen() + 1,
                .stall_seconds = -1.0});  // permanent
  run_chain(p, ctx, lx, 8, 2);
  // The unarmed baseline cannot repair a permanent hang: the full drain
  // detects it and reports the stuck chain instead of blocking forever.
  try {
    (void)ctx.finalize();
    FAIL() << "finalize() completed despite a permanently wedged op";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("stuck operations"),
              std::string::npos)
        << e.what();
  }
}

// --- rung 1: cancel + retry in place, bit-identical ---

TEST(Deadline, PermanentStallRetriedBitIdentically) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  auto& inj = p.ensure_fault_injector();
  context ctx(p);
  ctx.set_default_deadline(10.0);
  constexpr std::size_t n = 64;
  std::vector<double> x(n, 1.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  // Retry in place requires the wedged task to still own its outputs, so
  // the hang lands on the tail of the chain (nothing queued behind it).
  run_chain(p, ctx, lx, 7);
  inj.schedule({.kind = cudasim::fault_kind::stall,
                .at_op = inj.ops_seen() + 1,
                .stall_seconds = -1.0});
  run_chain(p, ctx, lx, 8, 7);
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  const backend_stats& st = ctx.stats();
  EXPECT_GE(st.deadlines_armed, 8u);
  EXPECT_EQ(st.hangs_detected, 1u);
  EXPECT_EQ(st.ops_cancelled, 1u);
  EXPECT_EQ(rep.tasks_retried, 1u);
  // The retried chain must be byte-for-byte the fault-free result.
  const std::vector<double> ref = fault_free_reference(n, 8);
  EXPECT_EQ(std::memcmp(x.data(), ref.data(), n * sizeof(double)), 0);
}

TEST(Deadline, PerTaskDeadlineArmsOnlyThatTask) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  auto& inj = p.ensure_fault_injector();
  context ctx(p);
  constexpr std::size_t n = 64;
  std::vector<double> x(n, 1.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  run_chain(p, ctx, lx, 2);
  inj.schedule({.kind = cudasim::fault_kind::stall,
                .at_op = inj.ops_seen() + 1,
                .stall_seconds = -1.0});
  ctx.task(lx.rw()).set_symbol("armed").deadline(5.0)->*
      [&p](cudasim::stream& s, slice<double> v) {
        axpb_kernel(p, s, 1.125, 2.0, v);
      };
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  // The chain steps are unarmed; the armed task counts once at submission
  // and once more when the recovery resubmits it in place.
  EXPECT_EQ(ctx.stats().deadlines_armed, 2u);
  EXPECT_EQ(ctx.stats().hangs_detected, 1u);
  EXPECT_EQ(rep.tasks_retried, 1u);
  // After the two warm-up steps x = 2.125; the armed task applies
  // x -> 1.125 * x + 2.
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(x[i], 1.125 * 2.125 + 2.0) << i;
  }
}

TEST(Deadline, SlowButProgressingRunIsNeverKilled) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  auto& inj = p.ensure_fault_injector();
  context ctx(p);
  // Deadline far shorter than the transient hang: detection fires and may
  // cancel + retry the transiently stalled op — but a deadline must never
  // fail the run; the result stays bit-identical to the fault-free one.
  ctx.set_default_deadline(1.0);
  constexpr std::size_t n = 64;
  std::vector<double> x(n, 1.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  run_chain(p, ctx, lx, 7);
  inj.schedule({.kind = cudasim::fault_kind::stall,
                .at_op = inj.ops_seen() + 1,
                .stall_seconds = 30.0});  // transient, longer than deadline
  run_chain(p, ctx, lx, 8, 7);
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  const std::vector<double> ref = fault_free_reference(n, 8);
  EXPECT_EQ(std::memcmp(x.data(), ref.data(), n * sizeof(double)), 0);
}

// --- rung 2: repeated hangs quarantine the device ---

TEST(Deadline, RepeatedHangsQuarantineTheDevice) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  auto& inj = p.ensure_fault_injector();
  context ctx(p);
  ctx.enable_checkpointing();
  ctx.set_default_deadline(10.0);
  constexpr std::size_t n = 64;
  std::vector<double> x(n, 1.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  run_chain(p, ctx, lx, 2);
  // Two consecutive permanent stalls wedge two chain kernels (same device:
  // the serialized chain stays with its data). Mid-chain hangs are not
  // retryable in place, so the escalation cancels both — two strikes on
  // one device quarantines it — and the checkpointed epoch restart replays
  // the chain on the surviving device.
  inj.schedule({.kind = cudasim::fault_kind::stall,
                .at_op = inj.ops_seen() + 1,
                .stall_seconds = -1.0});
  inj.schedule({.kind = cudasim::fault_kind::stall,
                .at_op = inj.ops_seen() + 1,
                .stall_seconds = -1.0});
  run_chain(p, ctx, lx, 10, 2);
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(ctx.stats().hangs_detected, 1u);
  EXPECT_EQ(ctx.stats().ops_cancelled, 2u);
  EXPECT_EQ(ctx.stats().quarantines, 1u);
  EXPECT_EQ(rep.devices_blacklisted, 1u);
  const std::vector<double> ref = fault_free_reference(n, 10);
  EXPECT_EQ(std::memcmp(x.data(), ref.data(), n * sizeof(double)), 0);
}

// --- rung 3: not retryable in place -> epoch restart, bit-identical ---

TEST(Deadline, UnsafeRetryEscalatesToEpochRestart) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  auto& inj = p.ensure_fault_injector();
  context ctx(p);
  ctx.enable_checkpointing();
  ctx.set_default_deadline(10.0);
  constexpr std::size_t n = 64;
  std::vector<double> x(n, 1.0), y(n, 0.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  auto ly = ctx.logical_data(y.data(), n, "y");
  ctx.task(lx.rw())->*[&](cudasim::stream& s, slice<double> v) {
    axpb_kernel(p, s, 2.0, 1.0, v);  // x = 3
  };
  // The wedged task writes x; a dependent reader is already queued behind
  // it, so a retry in place cannot be bit-identical — the ladder must go
  // through the checkpointed epoch restart instead.
  inj.schedule({.kind = cudasim::fault_kind::stall,
                .at_op = inj.ops_seen() + 1,
                .stall_seconds = -1.0});
  ctx.task(lx.rw()).set_symbol("wedged")->*
      [&p](cudasim::stream& s, slice<double> v) {
        axpb_kernel(p, s, 1.0, 4.0, v);  // x = 7
      };
  ctx.task(lx.read(), ly.rw()).set_symbol("reader")->*
      [&p](cudasim::stream& s, slice<const double> vx, slice<double> vy) {
        p.launch_kernel(s, {.name = "copy", .flops = double(vx.size())}, [=] {
          for (std::size_t i = 0; i < vx.size(); ++i) {
            vy(i) = 10.0 * vx(i);
          }
        });
      };
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GE(ctx.stats().hangs_detected, 1u);
  EXPECT_GE(ctx.stats().ops_cancelled, 1u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(x[i], 7.0) << i;
    ASSERT_DOUBLE_EQ(y[i], 70.0) << i;
  }
}

// --- rung 4: poison-cancel with a cause chain naming the stuck chain ---

TEST(Deadline, UnrecoverableHangPoisonsWithStuckChain) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  auto& inj = p.ensure_fault_injector();
  context ctx(p);
  ctx.set_default_deadline(10.0);  // no checkpoint: restart unavailable
  constexpr std::size_t n = 64;
  std::vector<double> x(n, 1.0), y(n, 0.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  auto ly = ctx.logical_data(y.data(), n, "y");
  ctx.task(lx.rw())->*[&](cudasim::stream& s, slice<double> v) {
    axpb_kernel(p, s, 1.0, 0.0, v);
  };
  inj.schedule({.kind = cudasim::fault_kind::stall,
                .at_op = inj.ops_seen() + 1,
                .stall_seconds = -1.0});
  ctx.task(lx.rw()).set_symbol("wedged")->*
      [&p](cudasim::stream& s, slice<double> v) {
        axpb_kernel(p, s, 1.0, 4.0, v);
      };
  // A queued reader makes the retry unsafe; with no checkpoint the ladder
  // bottoms out at poison-cancel.
  ctx.task(lx.read(), ly.rw()).set_symbol("reader")->*
      [&p](cudasim::stream& s, slice<const double> vx, slice<double> vy) {
        p.launch_kernel(s, {.name = "copy"}, [=] {
          for (std::size_t i = 0; i < vx.size(); ++i) {
            vy(i) = vx(i);
          }
        });
      };
  const error_report rep = ctx.finalize();
  EXPECT_FALSE(rep.ok());
  ASSERT_GE(rep.failures.size(), 1u);
  const task_failure* f = nullptr;
  for (const auto& tf : rep.failures) {
    if (tf.kind == failure_kind::deadline_expired) {
      f = &tf;
      break;
    }
  }
  ASSERT_NE(f, nullptr) << rep.to_string();
  EXPECT_EQ(f->symbol, "wedged");
  // The cause chain quotes the pre-cancellation stuck report and names the
  // poisoned output.
  EXPECT_NE(f->detail.find("deadline"), std::string::npos) << f->detail;
  EXPECT_NE(f->detail.find("stuck operations"), std::string::npos)
      << f->detail;
  ASSERT_EQ(f->poisoned.size(), 1u);
  EXPECT_EQ(f->poisoned[0], "x");
  EXPECT_EQ(ctx.stats().hangs_detected, 1u);
}

// --- drain deadline at fence() ---

TEST(Deadline, FenceHonorsDrainDeadline) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  auto& inj = p.ensure_fault_injector();
  context ctx(p);
  ctx.set_default_deadline(10.0);
  constexpr std::size_t n = 64;
  std::vector<double> x(n, 1.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  // The hang lands on the tail of the pre-fence chain so the repair is a
  // retry in place (nothing queued behind it owns the data yet).
  run_chain(p, ctx, lx, 6);
  inj.schedule({.kind = cudasim::fault_kind::stall,
                .at_op = inj.ops_seen() + 1,
                .stall_seconds = -1.0});
  run_chain(p, ctx, lx, 7, 6);
  ctx.fence();  // must repair the wedge and return, not block forever
  EXPECT_EQ(ctx.stats().hangs_detected, 1u);
  run_chain(p, ctx, lx, 8, 7);  // the context stays usable afterwards
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  const std::vector<double> ref = fault_free_reference(n, 8);
  EXPECT_EQ(std::memcmp(x.data(), ref.data(), n * sizeof(double)), 0);
}

// --- graph backend: epoch-grained deadlines at the flush ---

TEST(Deadline, GraphBackendRecoversViaEpochRestart) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  auto& inj = p.ensure_fault_injector();
  context ctx = context::graph(p);
  ctx.enable_checkpointing();
  ctx.set_default_deadline(10.0);
  constexpr std::size_t n = 64;
  std::vector<double> x(n, 1.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  // Captured work only reaches the DES at the flush; the armed stall rides
  // along and lands on the first lowered kernel node of the epoch.
  inj.schedule({.kind = cudasim::fault_kind::stall,
                .at_op = 1,
                .stall_seconds = -1.0});
  run_chain(p, ctx, lx, 8);
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GE(ctx.stats().hangs_detected, 1u);
  const std::vector<double> ref = fault_free_reference(n, 8);
  EXPECT_EQ(std::memcmp(x.data(), ref.data(), n * sizeof(double)), 0);
}

// --- backpressure: blocking window and try_task shedding ---

TEST(Deadline, InflightWindowThrottlesSubmission) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  ctx.limits({.max_inflight_tasks = 4});
  constexpr std::size_t n = 64;
  std::vector<double> x(n, 1.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  for (int t = 0; t < 32; ++t) {
    ctx.task(lx.rw())->*[&](cudasim::stream& s, slice<double> v) {
      axpb_kernel(p, s, 1.0, 1.0, v);
    };
  }
  // The window filled at least once; admission drove the DES to drain it
  // rather than deadlocking or overrunning the limit.
  EXPECT_GE(ctx.stats().submits_throttled, 1u);
  EXPECT_EQ(ctx.stats().tasks_shed, 0u);
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(x[i], 33.0) << i;
  }
}

TEST(Deadline, PendingBytesWindowThrottlesSubmission) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  constexpr std::size_t n = 4096;
  // Each task touches n doubles; cap the window below two tasks' worth so
  // byte accounting (not the task count) does the throttling.
  ctx.limits({.max_pending_bytes = n * sizeof(double) + 1});
  std::vector<double> x(n, 1.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  for (int t = 0; t < 16; ++t) {
    ctx.task(lx.rw())->*[&](cudasim::stream& s, slice<double> v) {
      axpb_kernel(p, s, 1.0, 1.0, v);
    };
  }
  EXPECT_GE(ctx.stats().submits_throttled, 1u);
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(x[i], 17.0) << i;
  }
}

TEST(Deadline, TryTaskShedsWithTypedOverloadError) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  auto& inj = p.ensure_fault_injector();
  context ctx(p);
  ctx.set_default_deadline(10.0);
  ctx.limits({.max_inflight_tasks = 1});
  constexpr std::size_t n = 64;
  std::vector<double> x(n, 1.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  run_chain(p, ctx, lx, 1);
  // Wedge the window: the next task hangs permanently, keeping exactly one
  // submission in flight.
  inj.schedule({.kind = cudasim::fault_kind::stall,
                .at_op = inj.ops_seen() + 1,
                .stall_seconds = -1.0});
  run_chain(p, ctx, lx, 2, 1);
  bool shed = false;
  try {
    ctx.try_task(lx.rw())->*[&](cudasim::stream& s, slice<double> v) {
      axpb_kernel(p, s, 1.0, 100.0, v);
    };
  } catch (const overload_error& e) {
    shed = true;
    EXPECT_EQ(e.inflight(), 1u);
    EXPECT_NE(std::string(e.what()).find("admission window"),
              std::string::npos);
  }
  EXPECT_TRUE(shed);
  EXPECT_EQ(ctx.stats().tasks_shed, 1u);
  // The shed task left no trace; the wedged one is repaired at finalize.
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(rep.tasks_retried, 1u);
  const std::vector<double> ref = fault_free_reference(n, 2);
  EXPECT_EQ(std::memcmp(x.data(), ref.data(), n * sizeof(double)), 0);
}

// --- structured constructs ride the same machinery ---

TEST(Deadline, ParallelForDeadlineRecovers) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  auto& inj = p.ensure_fault_injector();
  context ctx(p);
  constexpr std::size_t n = 64;
  std::vector<double> x(n, 1.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  ctx.parallel_for(box<1>(n), lx.rw())->*[](std::size_t i, slice<double> v) {
    v(i) = double(i);  // warm-up
  };
  inj.schedule({.kind = cudasim::fault_kind::stall,
                .at_op = inj.ops_seen() + 1,
                .stall_seconds = -1.0});
  ctx.parallel_for(box<1>(n), lx.rw()).set_symbol("pfor").deadline(5.0)->*
      [](std::size_t i, slice<double> v) { v(i) = 2.0 * double(i); };
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(ctx.stats().hangs_detected, 1u);
  EXPECT_EQ(rep.tasks_retried, 1u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(x[i], 2.0 * double(i)) << i;
  }
}

// --- pin accounting across the cancellation path (ASan satellite) ---

TEST(Deadline, CancellationLeavesInstancesEvictable) {
  // Tight device pool: after the hang is cancelled and retried, the
  // recovered data's instances must still be unpinned — otherwise the
  // later allocation burst cannot evict them and records spurious OOM.
  auto d = cudasim::test_desc();
  d.mem_capacity = 2u << 20;  // 2 MiB pool
  cudasim::scoped_platform sp(1, d);
  cudasim::platform& p = sp.get();
  auto& inj = p.ensure_fault_injector();
  context ctx(p);
  ctx.set_default_deadline(10.0);
  constexpr std::size_t n = 64 << 10;  // 512 KiB per logical data
  std::vector<double> x(n, 1.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  run_chain(p, ctx, lx, 1);
  inj.schedule({.kind = cudasim::fault_kind::stall,
                .at_op = inj.ops_seen() + 1,
                .stall_seconds = -1.0});
  run_chain(p, ctx, lx, 2, 1);
  ctx.fence();  // hang detected, cancelled, retried
  EXPECT_EQ(ctx.stats().hangs_detected, 1u);
  // Allocation burst worth several pool sizes: succeeds only if x's
  // instances (touched by the cancelled submission) are evictable.
  std::vector<std::vector<double>> hosts;
  std::vector<logical_data<slice<double>>> datas;
  for (int k = 0; k < 8; ++k) {
    hosts.emplace_back(n, double(k));
    datas.push_back(
        ctx.logical_data(hosts.back().data(), n, "d" + std::to_string(k)));
    ctx.task(datas.back().rw())->*[&](cudasim::stream& s, slice<double> v) {
      axpb_kernel(p, s, 1.0, 1.0, v);
    };
  }
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  for (int k = 0; k < 8; ++k) {
    ASSERT_DOUBLE_EQ(hosts[std::size_t(k)][0], double(k) + 1.0) << k;
  }
}

// --- MT: parallel_submit under backpressure and stall cancellation ---

TEST(Deadline, ParallelSubmitUnderBackpressureAndStalls) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  auto& inj = p.ensure_fault_injector();
  context ctx(p);
  ctx.enable_checkpointing();  // mid-chain hangs escalate to epoch restart
  ctx.set_default_deadline(50.0);
  ctx.limits({.max_inflight_tasks = 8});
  constexpr int n_threads = 4;
  constexpr std::size_t per = 32;
  constexpr std::size_t n = 64;
  std::vector<std::vector<double>> host(n_threads,
                                        std::vector<double>(n, 0.0));
  std::vector<logical_data<slice<double>>> data;
  for (int t = 0; t < n_threads; ++t) {
    data.push_back(ctx.logical_data(host[std::size_t(t)].data(), n,
                                    "d" + std::to_string(t)));
    ctx.task(data.back().rw())->*[&](cudasim::stream& s, slice<double> v) {
      axpb_kernel(p, s, 1.0, 0.0, v);  // warm-up
    };
  }
  // A batch of transient stalls scattered over the run: ops hang past the
  // deadline, get cancelled and retried while four submitters race the
  // admission window. Counters must stay consistent and results exact.
  inj.schedule_random_stalls(/*seed=*/7, /*n_stalls=*/6,
                             /*op_span=*/n_threads * per,
                             /*num_devices=*/2,
                             /*transient_seconds=*/1.0e6);
  ctx.parallel_submit(n_threads, n_threads * per, [&](std::size_t item) {
    auto& d = data[item % n_threads];
    ctx.task(d.rw())->*[&](cudasim::stream& s, slice<double> v) {
      axpb_kernel(p, s, 1.0, 1.0, v);
    };
  });
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  for (int t = 0; t < n_threads; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_DOUBLE_EQ(host[std::size_t(t)][i], double(per))
          << "thread " << t << " elem " << i;
    }
  }
}

}  // namespace
