// Parallel host-side submission (DESIGN.md §11, paper §VII-E): every
// submission from every worker runs the one pipeline path under the
// context lock, deterministic-order mode retires items in order, and the
// cudasim boundary is thread-safe. Covers: disjoint-data fan-out with no
// cross-talk, shared-data serialization, bit-identical deterministic
// schedules on both backends, submission under injected faults, replay
// after an epoch restart, worker-exception propagation, multi-source
// transfer routing under eviction, and slab-recycling / structural-op
// stress.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "blaslib/blas_sim.hpp"
#include "blaslib/tiled_cholesky.hpp"
#include "cudastf/cudastf.hpp"
#include "cudastf/transfer.hpp"

namespace {

using namespace cudastf;

cudasim::device_desc tdesc() {
  auto d = cudasim::test_desc();
  d.mem_capacity = 512u << 20;
  return d;
}

void axpb_kernel(cudasim::platform& p, cudasim::stream& s, double a, double b,
                 slice<double> x) {
  p.launch_kernel(s, {.name = "axpb", .flops = double(x.size())}, [=] {
    for (std::size_t i = 0; i < x.size(); ++i) {
      x(i) = a * x(i) + b;
    }
  });
}

// --- disjoint data: N threads, no cross-talk, fast path engaged ---

TEST(ParallelSubmit, DisjointDataNoCrossTalk) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);

  constexpr int n_threads = 4;
  constexpr std::size_t n = 64;
  constexpr std::size_t tasks_per_data = 25;
  std::vector<std::vector<double>> host(n_threads,
                                        std::vector<double>(n, 1.0));
  std::vector<logical_data<slice<double>>> data;
  for (int t = 0; t < n_threads; ++t) {
    data.push_back(ctx.logical_data(host[static_cast<std::size_t>(t)].data(),
                                    n, "d" + std::to_string(t)));
  }
  // Warm-up: allocate + validate each data's device instance so the MT
  // loop needs no allocation or transfer (fast-path eligibility).
  for (auto& d : data) {
    ctx.task(d.rw())->*[&](cudasim::stream& s, slice<double> v) {
      axpb_kernel(p, s, 1.0, 0.0, v);
    };
  }
  const std::uint64_t tasks_before = ctx.stats().tasks;
  const std::uint64_t fast_before = ctx.fast_path_submits();

  ctx.parallel_submit(n_threads, n_threads * tasks_per_data,
                      [&](std::size_t item) {
                        auto& d = data[item % n_threads];
                        ctx.task(d.rw())->*
                            [&](cudasim::stream& s, slice<double> v) {
                              axpb_kernel(p, s, 1.0, 1.0, v);
                            };
                      });

  // Exactly one backend submission per item, all on the fast path.
  EXPECT_EQ(ctx.stats().tasks - tasks_before, n_threads * tasks_per_data);
  EXPECT_EQ(ctx.fast_path_submits() - fast_before,
            n_threads * tasks_per_data);

  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  for (int t = 0; t < n_threads; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_DOUBLE_EQ(host[static_cast<std::size_t>(t)][i],
                       1.0 + double(tasks_per_data))
          << "thread " << t << " elem " << i;
    }
  }
}

// --- shared data: the context lock serializes correctly across threads ---

TEST(ParallelSubmit, SharedDataSerializesCorrectly) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);

  constexpr int n_threads = 4;
  constexpr std::size_t items = 200;
  constexpr std::size_t n = 16;
  std::vector<double> acc(n, 0.0);
  auto lacc = ctx.logical_data(acc.data(), n, "acc");
  ctx.task(lacc.rw())->*[&](cudasim::stream& s, slice<double> v) {
    axpb_kernel(p, s, 1.0, 0.0, v);  // warm-up: device instance valid
  };

  ctx.parallel_submit(n_threads, items, [&](std::size_t) {
    ctx.task(lacc.rw())->*[&](cudasim::stream& s, slice<double> v) {
      axpb_kernel(p, s, 1.0, 1.0, v);  // commutative: += 1 per item
    };
  });

  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(acc[i], double(items)) << i;
  }
}

// --- deterministic-order mode: bit-identical to a single-thread loop ---

// The per-item update x = a_i * x + b_i does not commute, so any order
// change shows up in the bytes. One single-threaded reference run, then a
// multi-threaded deterministic run; outputs must memcmp equal.
void run_affine_chain(context ctx, cudasim::platform& p,
                      std::vector<double>& host, int n_threads,
                      std::size_t items) {
  auto lx = ctx.logical_data(host.data(), host.size(), "x");
  ctx.task(lx.rw())->*[&](cudasim::stream& s, slice<double> v) {
    axpb_kernel(p, s, 1.0, 0.0, v);
  };
  auto submit_one = [&](std::size_t i) {
    const double a = 1.0 + 1e-3 * double(i % 7);
    const double b = 1e-2 * double(i % 11);
    ctx.task(lx.rw())->*[&p, a, b](cudasim::stream& s, slice<double> v) {
      axpb_kernel(p, s, a, b, v);
    };
  };
  if (n_threads <= 1) {
    for (std::size_t i = 0; i < items; ++i) {
      submit_one(i);
    }
  } else {
    ctx.set_deterministic_order(true);
    ctx.parallel_submit(n_threads, items, submit_one);
  }
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
}

TEST(ParallelSubmit, DeterministicOrderBitIdenticalStreamBackend) {
  constexpr std::size_t n = 128, items = 120;
  std::vector<double> ref(n, 1.0), mt(n, 1.0);
  {
    cudasim::scoped_platform sp(2, tdesc());
    run_affine_chain(context(sp.get()), sp.get(), ref, 1, items);
  }
  {
    cudasim::scoped_platform sp(2, tdesc());
    run_affine_chain(context(sp.get()), sp.get(), mt, 4, items);
  }
  EXPECT_EQ(std::memcmp(ref.data(), mt.data(), n * sizeof(double)), 0);
}

TEST(ParallelSubmit, DeterministicOrderBitIdenticalGraphBackend) {
  constexpr std::size_t n = 128, items = 60;
  std::vector<double> ref(n, 1.0), mt(n, 1.0);
  {
    cudasim::scoped_platform sp(2, tdesc());
    run_affine_chain(context::graph(sp.get()), sp.get(), ref, 1, items);
  }
  {
    // The graph backend records into one capture graph per epoch; the
    // context lock admits one capturer at a time, and the turnstile still
    // retires items in order.
    cudasim::scoped_platform sp(2, tdesc());
    run_affine_chain(context::graph(sp.get()), sp.get(), mt, 4, items);
  }
  EXPECT_EQ(std::memcmp(ref.data(), mt.data(), n * sizeof(double)), 0);
}

// --- parallel submission under injected faults ---

TEST(ParallelSubmit, RecoversFromTransientFaultsUnderParallelSubmission) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  // Two transient kernel refusals while workers are submitting. An armed
  // injector makes fault_aware() true, so every submission takes the
  // resilient exclusive path — parallel_submit composes with recovery.
  p.ensure_fault_injector().schedule(
      {.kind = cudasim::fault_kind::kernel_fault, .device = -1, .at_op = 9});
  p.ensure_fault_injector().schedule(
      {.kind = cudasim::fault_kind::kernel_fault, .device = -1, .at_op = 23});
  context ctx(p);
  ctx.set_retry_policy({.max_attempts = 3});

  constexpr int n_threads = 4;
  constexpr std::size_t items = 48;
  constexpr std::size_t n = 32;
  std::vector<double> x(n, 0.0);
  auto lx = ctx.logical_data(x.data(), n, "x");

  ctx.parallel_submit(n_threads, items, [&](std::size_t) {
    ctx.task(lx.rw())->*[&](cudasim::stream& s, slice<double> v) {
      axpb_kernel(p, s, 1.0, 1.0, v);
    };
  });

  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GE(rep.tasks_retried, 1u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(x[i], double(items)) << i;
  }
}

// --- deterministic replay after an epoch restart ---

TEST(ParallelSubmit, DeterministicReplayAfterEpochRestart) {
  constexpr std::size_t n = 64, items = 30;
  std::vector<double> ref(n, 1.0), mt(n, 1.0);
  {
    // Fault-free single-threaded reference.
    cudasim::scoped_platform sp(2, tdesc());
    run_affine_chain(context(sp.get()), sp.get(), ref, 1, items);
  }
  backend_stats stats{};
  {
    // Multi-threaded deterministic submission with a permanent mid-run
    // kernel fault: the checkpoint log (recorded in item order thanks to
    // the turnstile) rolls back and replays; bytes must still match the
    // fault-free single-threaded reference.
    cudasim::scoped_platform sp(2, tdesc());
    sp.get().ensure_fault_injector().schedule(
        {.kind = cudasim::fault_kind::kernel_fault, .device = -1,
         .at_op = 14});
    context ctx(sp.get());
    ctx.set_retry_policy({.max_attempts = 1});
    ctx.enable_checkpointing({.every_n_tasks = 6});
    run_affine_chain(ctx, sp.get(), mt, 4, items);
    stats = ctx.stats();
  }
  EXPECT_GE(stats.rollbacks, 1u);
  EXPECT_GE(stats.tasks_replayed, 1u);
  EXPECT_EQ(std::memcmp(ref.data(), mt.data(), n * sizeof(double)), 0);
}

// --- a throwing worker: first exception rethrown, context left usable ---

// Item `bad` (owned by worker bad % n_threads) submits a task on the host
// place, which ctx.task() rejects with std::logic_error. parallel_submit
// must stop that worker, let every other worker finish its in-flight item,
// rethrow the logic_error after the join, and leave the context lock free
// for the main thread.
void run_throwing_worker(bool deterministic) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  ctx.set_deterministic_order(deterministic);

  constexpr int n_threads = 4;
  constexpr std::size_t items = 40, bad = 9;
  std::vector<double> acc(1, 0.0);
  auto lacc = ctx.logical_data(acc.data(), acc.size(), "acc");
  auto add_one = [&p](cudasim::stream& s, slice<double> v) {
    p.launch_kernel(s, {.name = "inc"}, [=] { v(0) += 1.0; });
  };
  ctx.task(lacc.rw())->*add_one;  // warm-up: device instance valid

  std::vector<std::atomic<bool>> submitted(items);
  std::atomic<int> inside{0};
  bool threw = false;
  try {
    ctx.parallel_submit(n_threads, items, [&](std::size_t item) {
      struct in_item {
        std::atomic<int>& n;
        explicit in_item(std::atomic<int>& c) : n(c) { n.fetch_add(1); }
        ~in_item() { n.fetch_sub(1); }
      } guard(inside);
      if (item == bad) {
        ctx.task(exec_place::host(), lacc.rw())->*add_one;
      }
      // Keep the other workers busy past the throw, so a rethrow before
      // the join would find one of them still inside an item.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ctx.task(lacc.rw())->*add_one;
      submitted[item].store(true);
    });
  } catch (const std::logic_error& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("host_launch"), std::string::npos)
        << e.what();
  }
  ASSERT_TRUE(threw) << "the worker's logic_error was not rethrown";
  // Rethrown only after the join: no worker is still inside an item.
  EXPECT_EQ(inside.load(), 0);
  EXPECT_FALSE(submitted[bad].load());
  for (std::size_t i = bad + n_threads; i < items; i += n_threads) {
    EXPECT_FALSE(submitted[i].load()) << "item " << i << " after the throw";
  }
  std::size_t n_submitted = 0;
  for (std::size_t i = 0; i < items; ++i) {
    n_submitted += submitted[i].load() ? 1 : 0;
    if (deterministic) {
      // The turnstile retires items in order and stops at the throw.
      EXPECT_EQ(submitted[i].load(), i < bad) << "item " << i;
    }
  }

  // The context lock was released: the main thread submits and finalizes.
  ctx.task(lacc.rw())->*add_one;
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_DOUBLE_EQ(acc[0], double(n_submitted + 2));
}

TEST(ParallelSubmit, ThrowingWorkerRethrowsAfterJoinFreeOrder) {
  run_throwing_worker(false);
}

TEST(ParallelSubmit, ThrowingWorkerRethrowsAfterJoinDeterministicOrder) {
  run_throwing_worker(true);
}

// --- structural operations mixed into the worker loop ---

TEST(ParallelSubmit, StructuralOpsMixedWithFastPath) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);

  constexpr int n_threads = 4;
  constexpr std::size_t items = 160;
  constexpr std::size_t n = 32;
  std::vector<std::vector<double>> host(n_threads,
                                        std::vector<double>(n, 0.0));
  std::vector<logical_data<slice<double>>> data;
  for (int t = 0; t < n_threads; ++t) {
    data.push_back(ctx.logical_data(host[static_cast<std::size_t>(t)].data(),
                                    n, "m" + std::to_string(t)));
  }
  for (auto& d : data) {
    ctx.task(d.rw())->*[&](cudasim::stream& s, slice<double> v) {
      axpb_kernel(p, s, 1.0, 0.0, v);
    };
  }

  // Every 40th item runs a structural op (fence: drains the DES, recycles
  // slab nodes via collect_handles + gc) from a worker thread, interleaved
  // with other workers' submissions under the context lock, and exercises
  // the retired-prefix guard that keeps recycled nodes safe from stale
  // events.
  ctx.parallel_submit(n_threads, items, [&](std::size_t item) {
    if (item % 40 == 17) {
      ctx.fence();
    }
    auto& d = data[item % n_threads];
    ctx.task(d.rw())->*[&](cudasim::stream& s, slice<double> v) {
      axpb_kernel(p, s, 1.0, 1.0, v);
    };
  });

  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  for (int t = 0; t < n_threads; ++t) {
    const double want = double(items / n_threads);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_DOUBLE_EQ(host[static_cast<std::size_t>(t)][i], want)
          << "data " << t << " elem " << i;
    }
  }
}

// --- multi-source routing: deterministic mode routes like one thread ---

struct routed_cholesky {
  std::vector<double> factor;
  std::vector<transfer_record> trace;
  double now = 0.0;
  std::uint64_t evictions = 0;
};

// Tiled Cholesky with numerical bodies on 4 devices whose pools hold 32
// tiles of 16x16: each tile is read on several devices while eviction
// churns, so the transfer planner scores multi-source routes, whose
// copy-engine occupancy term reads the DES completion counter. Every task
// is one parallel_submit item, in tiled_cholesky_stf's order.
routed_cholesky run_routed_cholesky(int n_threads) {
  constexpr std::size_t n = 133, block = 16;
  std::vector<double> dense(n * n);
  blaslib::fill_spd(dense.data(), n, 7);
  blaslib::tile_matrix mat(n, block);
  mat.import_dense(dense.data());

  cudasim::scoped_platform sp(4, cudasim::a100_desc());
  cudasim::platform& p = sp.get();
  for (int d = 0; d < 4; ++d) {
    p.device(d).set_pool_capacity(32 * block * block * sizeof(double));
  }
  context ctx(p);
  ctx.transfer_options().trace = true;

  const std::size_t T = mat.tiles();
  std::vector<logical_data<slice<double, 2>>> tile(T * T);
  for (std::size_t i = 0; i < T; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      tile[i * T + j] = ctx.logical_data(mat.tile_ptr(i, j), block, block,
                                         "tile");
    }
  }
  auto lt = [&](std::size_t i, std::size_t j) -> auto& {
    return tile[i * T + j];
  };
  auto dev = [](std::size_t i) {
    return exec_place::device(static_cast<int>(i % 4));
  };
  struct op {
    char kind;
    std::size_t k, i, j;
  };
  std::vector<op> ops;
  for (std::size_t k = 0; k < T; ++k) {
    ops.push_back({'p', k, k, k});
    for (std::size_t i = k + 1; i < T; ++i) {
      ops.push_back({'t', k, i, k});
    }
    for (std::size_t i = k + 1; i < T; ++i) {
      ops.push_back({'s', k, i, i});
      for (std::size_t j = k + 1; j < i; ++j) {
        ops.push_back({'g', k, i, j});
      }
    }
  }
  auto submit = [&](std::size_t item) {
    const op o = ops[item];
    switch (o.kind) {
      case 'p':
        ctx.task(dev(o.k), lt(o.k, o.k).rw())->*
            [&p](cudasim::stream& s, slice<double, 2> a) {
              blaslib::dpotrf(p, s, a);
            };
        break;
      case 't':
        ctx.task(dev(o.i), lt(o.k, o.k).read(), lt(o.i, o.k).rw())->*
            [&p](cudasim::stream& s, slice<const double, 2> l,
                 slice<double, 2> b) { blaslib::dtrsm(p, s, l, b); };
        break;
      case 's':
        ctx.task(dev(o.i), lt(o.i, o.k).read(), lt(o.i, o.i).rw())->*
            [&p](cudasim::stream& s, slice<const double, 2> a,
                 slice<double, 2> c) {
              blaslib::dsyrk(p, s, -1.0, a, 1.0, c);
            };
        break;
      default:
        ctx.task(dev(o.i), lt(o.i, o.k).read(), lt(o.j, o.k).read(),
                 lt(o.i, o.j).rw())->*
            [&p](cudasim::stream& s, slice<const double, 2> a,
                 slice<const double, 2> b, slice<double, 2> c) {
              blaslib::dgemm(p, s, false, true, -1.0, a, b, 1.0, c);
            };
    }
  };
  if (n_threads <= 1) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      submit(i);
    }
  } else {
    ctx.set_deterministic_order(true);
    ctx.parallel_submit(n_threads, ops.size(), submit);
  }
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok()) << rep.to_string();

  routed_cholesky r;
  r.trace = lt(0, 0).impl()->ctx().xfer_trace;
  r.now = p.now();
  r.evictions = ctx.stats().evictions;
  r.factor.assign(n * n, 0.0);
  mat.export_dense(r.factor.data());

  std::vector<double> ref = dense;
  EXPECT_TRUE(blaslib::potrf_host(slice<double, 2>(ref.data(), n, n)));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_LE(std::fabs(r.factor[i * n + j] - ref[i * n + j]), 1e-8)
          << n_threads << " thread(s), factor entry (" << i << ", " << j
          << ")";
    }
  }
  return r;
}

TEST(ParallelSubmit, DeterministicOrderRoutesLikeOneThreadUnderEviction) {
  const routed_cholesky ref = run_routed_cholesky(1);
  const routed_cholesky mt = run_routed_cholesky(4);
  EXPECT_GT(ref.evictions, 0u);
  std::set<int> sources;
  for (const transfer_record& r : ref.trace) {
    if (r.dst_device >= 0) {
      sources.insert(r.src_device);
    }
  }
  EXPECT_GE(sources.size(), 3u);  // multi-source routing actually happened
  EXPECT_EQ(mt.now, ref.now);
  EXPECT_EQ(mt.evictions, ref.evictions);
  EXPECT_EQ(mt.trace, ref.trace);
  ASSERT_EQ(mt.factor.size(), ref.factor.size());
  EXPECT_EQ(std::memcmp(mt.factor.data(), ref.factor.data(),
                        ref.factor.size() * sizeof(double)),
            0);
}

// --- slab recycling stress: many epochs of submit + drain ---

TEST(ParallelSubmit, SlabRecyclingStressAcrossEpochs) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);

  constexpr std::size_t n = 16;
  std::vector<double> x(n, 0.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  ctx.task(lx.rw())->*[&](cudasim::stream& s, slice<double> v) {
    axpb_kernel(p, s, 1.0, 0.0, v);
  };

  constexpr int epochs = 8;
  constexpr std::size_t per_epoch = 64;
  for (int e = 0; e < epochs; ++e) {
    ctx.parallel_submit(4, per_epoch, [&](std::size_t) {
      ctx.task(lx.rw())->*[&](cudasim::stream& s, slice<double> v) {
        axpb_kernel(p, s, 1.0, 1.0, v);
      };
    });
    // Drain + collect_handles + gc: retire and recycle the epoch's nodes
    // (the stream backend's fence is a no-op, so drain at platform level).
    p.synchronize();
  }
  // Recycling actually engaged: later epochs are served from the pool.
  EXPECT_GT(p.nodes_pooled(), 0u);

  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(x[i], double(epochs * per_epoch)) << i;
  }
}

// --- counters stay coherent under concurrent increments ---

TEST(ParallelSubmit, StatsCountersCoherentUnderConcurrency) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);

  constexpr int n_threads = 4;
  constexpr std::size_t items = 100;
  constexpr std::size_t n = 8;
  std::vector<std::vector<double>> host(n_threads,
                                        std::vector<double>(n, 0.0));
  std::vector<logical_data<slice<double>>> data;
  for (int t = 0; t < n_threads; ++t) {
    data.push_back(ctx.logical_data(host[static_cast<std::size_t>(t)].data(),
                                    n, "c" + std::to_string(t)));
  }
  for (auto& d : data) {
    ctx.task(d.rw())->*[&](cudasim::stream& s, slice<double> v) {
      axpb_kernel(p, s, 1.0, 0.0, v);
    };
  }
  const std::uint64_t tasks_before = ctx.stats().tasks;

  ctx.parallel_submit(n_threads, items, [&](std::size_t item) {
    ctx.task(data[item % n_threads].rw())->*
        [&](cudasim::stream& s, slice<double> v) {
          axpb_kernel(p, s, 1.0, 1.0, v);
        };
  });

  // Every increment happens under the context lock: none is lost.
  EXPECT_EQ(ctx.stats().tasks - tasks_before, items);
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
}

}  // namespace
