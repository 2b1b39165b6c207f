// Asynchronous memory reclamation (§IV-B, Fig. 3): when a device pool is
// exhausted, LRU instances are staged to the host and freed, without any
// host-side synchronization, and data survives round trips. Eviction never
// drops the last valid copy, each device's victim policy runs on its own
// use clock, and a datum that lost every copy is reported, not skipped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "blaslib/blas_host.hpp"
#include "blaslib/tiled_cholesky.hpp"
#include "cudastf/context_state.hpp"
#include "cudastf/cudastf.hpp"
#include "cudastf/mem_engine.hpp"
#include "cudastf/transfer.hpp"

namespace {

using namespace cudastf;

cudasim::device_desc small_pool_desc(std::size_t cap) {
  auto d = cudasim::test_desc();
  d.mem_capacity = cap;
  return d;
}

TEST(Eviction, WorkingSetLargerThanPool) {
  // 8 blocks of 1 MB against a 4 MB pool: later blocks force earlier ones
  // out; touching every block again forces them back in. All data must
  // survive, and evictions must have happened.
  cudasim::scoped_platform sp(1, small_pool_desc(4u << 20));
  cudasim::platform& p = sp.get();
  context ctx(p);
  constexpr int blocks = 8;
  constexpr std::size_t elems = (1u << 20) / sizeof(double);
  std::vector<std::vector<double>> host(blocks, std::vector<double>(elems, 0.0));
  std::vector<logical_data<slice<double>>> data;
  data.reserve(blocks);
  for (int b = 0; b < blocks; ++b) {
    data.push_back(ctx.logical_data(host[b].data(), elems, "blk"));
  }
  for (int b = 0; b < blocks; ++b) {
    ctx.task(data[b].rw())->*[&p, b](cudasim::stream& s, slice<double> v) {
      p.launch_kernel(s, {.name = "fill"}, [=] {
        for (std::size_t i = 0; i < v.size(); ++i) {
          v(i) = double(b + 1);
        }
      });
    };
  }
  // Second sweep: read-modify every block (forces reloads of evicted ones).
  for (int b = 0; b < blocks; ++b) {
    ctx.task(data[b].rw())->*[&p](cudasim::stream& s, slice<double> v) {
      p.launch_kernel(s, {.name = "incr"}, [=] {
        for (std::size_t i = 0; i < v.size(); ++i) {
          v(i) += 0.5;
        }
      });
    };
  }
  ctx.finalize();
  EXPECT_GT(ctx.stats().evictions, 0u);
  for (int b = 0; b < blocks; ++b) {
    EXPECT_DOUBLE_EQ(host[b][0], double(b + 1) + 0.5) << b;
    EXPECT_DOUBLE_EQ(host[b][elems - 1], double(b + 1) + 0.5) << b;
  }
}

TEST(Eviction, PinnedInstancesAreNotEvicted) {
  // A task using two blocks that together exactly fit cannot evict its own
  // dependencies; with three blocks of 2MB against 4MB the third allocation
  // must evict one of the first two only after they are unpinned.
  cudasim::scoped_platform sp(1, small_pool_desc(4u << 20));
  cudasim::platform& p = sp.get();
  context ctx(p);
  constexpr std::size_t elems = (2u << 20) / sizeof(double);
  std::vector<double> a(elems, 1.0), b(elems, 2.0), c(elems, 3.0);
  auto la = ctx.logical_data(a.data(), elems, "a");
  auto lb = ctx.logical_data(b.data(), elems, "b");
  auto lc = ctx.logical_data(c.data(), elems, "c");
  ctx.task(la.rw(), lb.rw())->*[&p](cudasim::stream& s, slice<double> x,
                                    slice<double> y) {
    p.launch_kernel(s, {.name = "k"}, [=] {
      x(0) += y(0);
    });
  };
  ctx.task(lc.rw())->*[&p](cudasim::stream& s, slice<double> z) {
    p.launch_kernel(s, {.name = "k2"}, [=] { z(0) *= 2.0; });
  };
  ctx.finalize();
  EXPECT_GE(ctx.stats().evictions, 1u);
  EXPECT_DOUBLE_EQ(a[0], 3.0);
  EXPECT_DOUBLE_EQ(c[0], 6.0);
}

TEST(Eviction, ThrowsWhenNothingEvictable) {
  // A single allocation larger than the pool can never succeed.
  cudasim::scoped_platform sp(1, small_pool_desc(1u << 20));
  context ctx(sp.get());
  std::vector<double> big((4u << 20) / sizeof(double), 0.0);
  auto lb = ctx.logical_data(big.data(), big.size(), "big");
  EXPECT_THROW(ctx.task(lb.rw())->*[](cudasim::stream&, slice<double>) {},
               std::bad_alloc);
  ctx.finalize();
}

TEST(Eviction, EvictionIsAsynchronousInVirtualTime) {
  // The submitting thread never waits: all staging shows up as virtual-time
  // transfers, and the total simulated time covers the D2H traffic.
  cudasim::scoped_platform sp(1, small_pool_desc(4u << 20));
  cudasim::platform& p = sp.get();
  context ctx(p);
  ctx.set_compute_payloads(false);
  constexpr int blocks = 6;
  constexpr std::size_t elems = (1u << 20) / sizeof(double);
  std::vector<logical_data<slice<double>>> data;
  for (int b = 0; b < blocks; ++b) {
    data.push_back(ctx.logical_data<double, 1>(box<1>(elems), "blk"));
  }
  for (auto& d : data) {
    ctx.task(d.write())->*[](cudasim::stream&, slice<double>) {};
  }
  ctx.finalize();
  EXPECT_GT(ctx.stats().evictions, 0u);
  EXPECT_GT(p.now(), 0.0);
}

// --- the last valid copy -------------------------------------------------
//
// After a peer read the producer's copy is shared and the host copy
// invalid. Evicting both shared replicas one after the other used to leave
// no valid instance: the host kept its unfactored input and the report
// still said ok.

// Factors an n x n SPD matrix (block 16) on `ndev` A100 models, each pool
// capped at `cap_tiles` tiles (0: uncapped); returns the factor and
// whether the report was ok.
std::pair<std::vector<double>, bool> factor(std::size_t n, int ndev,
                                            bool graph,
                                            std::size_t cap_tiles) {
  constexpr std::size_t block = 16;
  std::vector<double> dense(n * n);
  blaslib::fill_spd(dense.data(), n, 7);
  cudasim::scoped_platform sp(ndev, cudasim::a100_desc());
  cudasim::platform& p = sp.get();
  if (cap_tiles != 0) {
    for (int d = 0; d < ndev; ++d) {
      p.device(d).set_pool_capacity(cap_tiles * block * block *
                                    sizeof(double));
    }
  }
  blaslib::tile_matrix tiles(n, block);
  tiles.import_dense(dense.data());
  bool ok = false;
  {
    context ctx = graph ? context::graph(p) : context(p);
    blaslib::tiled_cholesky_stf(ctx, tiles, {.block = block});
    const error_report rep = ctx.finalize();
    ok = rep.ok();
    EXPECT_TRUE(ok) << rep.to_string();
  }
  std::vector<double> out(n * n, 0.0);
  tiles.export_dense(out.data());
  return {std::move(out), ok};
}

// Every order from 96 to 143 on 1-4 devices capped at 28 tiles, on both
// backends, gives the in-core factor bit for bit (the tile kernels run in
// the same order wherever they are placed).
TEST(LastValidCopy, CappedCholeskyMatchesInCore) {
  constexpr std::size_t first = 96, last = 143;
  std::vector<std::vector<double>> in_core;
  for (std::size_t n = first; n <= last; ++n) {
    auto [want, ok] = factor(n, 1, false, 0);
    ASSERT_TRUE(ok) << "n " << n;
    in_core.push_back(std::move(want));
  }
  for (bool graph : {false, true}) {
    for (int ndev = 1; ndev <= 4; ++ndev) {
      int wrong = 0;
      for (std::size_t n = first; n <= last; ++n) {
        const auto [got, ok] = factor(n, ndev, graph, 28);
        ASSERT_TRUE(ok) << "n " << n;
        const std::vector<double>& want = in_core[n - first];
        wrong += std::memcmp(want.data(), got.data(),
                             want.size() * sizeof(double)) != 0;
      }
      EXPECT_EQ(wrong, 0) << (graph ? "graph" : "stream") << " backend, "
                          << ndev << " devices";
    }
  }
}

// The timing-only sibling: 16x16 tiles of 512 on 4 A100 models. Every cap
// from 12 to 40 tiles runs to an ok report; a dropped last copy shows as
// "read of uninitialized logical data 'tile'".
TEST(LastValidCopy, EveryCapRunsTimingOnly) {
  constexpr std::size_t block = 512, tiles = 16;
  for (bool graph : {false, true}) {
    for (std::size_t cap = 12; cap <= 40; ++cap) {
      SCOPED_TRACE(testing::Message() << (graph ? "graph" : "stream")
                                      << " backend, cap " << cap);
      cudasim::scoped_platform sp(4, cudasim::a100_desc());
      cudasim::platform& p = sp.get();
      for (int d = 0; d < 4; ++d) {
        p.device(d).set_pool_capacity(cap * block * block * sizeof(double));
      }
      p.set_copy_payloads(false);
      blaslib::tile_matrix mat(tiles * block, block, /*zero_init=*/false);
      context ctx = graph ? context::graph(p) : context(p);
      ctx.set_compute_payloads(false);
      EXPECT_NO_THROW(blaslib::tiled_cholesky_stf(
          ctx, mat, {.block = block, .compute = false, .devices = {}}));
      const error_report rep = ctx.finalize();
      EXPECT_TRUE(rep.ok()) << rep.to_string();
      EXPECT_GT(ctx.stats().evictions, 0u);
    }
  }
}

// --- per-device use clocks -----------------------------------------------

struct clock_outcome {
  /// (step, datum) for every eviction from the pattern's device.
  std::vector<std::pair<int, int>> victims;
  /// Per datum at the end: last_use, prev_use and lru_class.
  std::vector<std::uint64_t> uses;
  std::vector<int> classes;
};

// One access pattern on device `dev` of `ndev`: a cyclic sweep over 24
// read-only blocks with 4 hot ones between, against a pool of 12 blocks.
// Every other device reads its own resident block at each step, ticking
// its own clock — which under one context-wide clock made device `dev`'s
// reuse intervals look ndev times longer.
clock_outcome run_clock_pattern(int ndev, int dev) {
  constexpr std::size_t elems = (64u << 10) / sizeof(double);
  constexpr int sweep = 24, hot = 4;
  auto desc = cudasim::test_desc();
  desc.mem_capacity = 12 * elems * sizeof(double);
  cudasim::scoped_platform sp(ndev, desc);
  cudasim::platform& p = sp.get();
  context ctx(p);
  mem_config& cfg = ctx.memory_options();
  cfg.scan_threshold = 20;
  cfg.scan_guard = 4;
  std::vector<std::vector<double>> host(sweep + hot + ndev,
                                        std::vector<double>(elems, 1.0));
  std::vector<logical_data<slice<const double>>> data;
  for (auto& h : host) {
    data.push_back(ctx.logical_data(static_cast<const double*>(h.data()),
                                    elems, "blk"));
  }
  auto read_on = [&ctx](int d, logical_data<slice<const double>>& ld) {
    ctx.task(exec_place::device(d), ld.read())
            ->*[](cudasim::stream&, slice<const double>) {};
  };
  auto others = [&] {
    for (int d = 0; d < ndev; ++d) {
      if (d != dev) {
        read_on(d, data[static_cast<std::size_t>(sweep + hot + d)]);
      }
    }
  };
  others();  // allocates the other devices' blocks once, up front
  clock_outcome o;
  auto on_dev = [&](std::size_t i) -> data_instance& {
    return data[i].impl()->instance_at(data_place::device(dev));
  };
  int step = 0;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < sweep; ++i, ++step) {
      std::vector<bool> before(sweep + hot);
      for (std::size_t k = 0; k < before.size(); ++k) {
        before[k] = on_dev(k).allocated;
      }
      read_on(dev, data[static_cast<std::size_t>(i)]);
      if (i % 3 == 0) {
        read_on(dev, data[static_cast<std::size_t>(sweep + (i / 3) % hot)]);
      }
      others();
      p.synchronize();  // no pending-event penalty differences
      for (std::size_t k = 0; k < before.size(); ++k) {
        if (before[k] && !on_dev(k).allocated) {
          o.victims.emplace_back(step, static_cast<int>(k));
        }
      }
    }
  }
  for (int k = 0; k < sweep + hot; ++k) {
    const data_instance& inst = on_dev(static_cast<std::size_t>(k));
    o.uses.push_back(inst.last_use);
    o.uses.push_back(inst.prev_use);
    o.classes.push_back(inst.lru_class);
  }
  EXPECT_TRUE(ctx.finalize().ok());
  return o;
}

// The same per-device accesses classify and evict the same on one device
// and on device 2 of 4.
TEST(PerDeviceClock, SamePatternSameVictimsOnOneAndFourDevices) {
  const clock_outcome one = run_clock_pattern(1, 0);
  const clock_outcome four = run_clock_pattern(4, 2);
  ASSERT_GT(one.victims.size(), 50u);
  EXPECT_EQ(one.victims, four.victims);
  EXPECT_EQ(one.uses, four.uses);
  EXPECT_EQ(one.classes, four.classes);
  // Both classes are populated, so the comparison covers the walk's order.
  EXPECT_NE(std::count(one.classes.begin(), one.classes.end(), 1), 0);
  EXPECT_NE(std::count(one.classes.begin(), one.classes.end(), 2), 0);
}

// A victim staged to a peer keeps its age and reuse interval, measured on
// the peer's clock; an age beyond the peer's clock clamps at 0.
TEST(PerDeviceClock, PeerStagingCarriesAgeAndInterval) {
  cudasim::scoped_platform sp(2, cudasim::test_desc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  constexpr std::size_t elems = 1024;
  std::vector<double> hx(elems, 1.0), hy(elems, 2.0);
  auto lx = ctx.logical_data(hx.data(), elems, "x");
  auto ly = ctx.logical_data(hy.data(), elems, "y");
  auto touch = [&ctx](int d, logical_data<slice<double>>& ld) {
    ctx.task(exec_place::device(d), ld.rw())
            ->*[](cudasim::stream&, slice<double>) {};
  };
  touch(0, lx);  // x on device 0: last_use 1
  for (int i = 0; i < 5; ++i) {
    touch(0, ly);
  }
  touch(0, lx);  // x on device 0: prev_use 1, last_use 7
  for (int i = 0; i < 3; ++i) {
    touch(0, ly);  // device 0 clock: 10
  }
  for (int i = 0; i < 40; ++i) {
    touch(1, ly);  // device 1 clock: 40
  }
  context_state& st = lx.impl()->ctx();
  logical_data_impl& d = *lx.impl();
  auto stage = [&](data_instance& victim, int from, int to) {
    const std::uint64_t age = st.mem.clock(from) - victim.last_use;
    const std::uint64_t gap = victim.last_use - victim.prev_use;
    ASSERT_TRUE(stage_eviction_to_peer(st, d, victim, from));
    release_device_instance(st, d, victim, /*recycle=*/true);
    const data_instance& peer = d.instance_at(data_place::device(to));
    EXPECT_EQ(peer.state, msi_state::modified);
    EXPECT_EQ(st.mem.clock(to) - peer.last_use, age);
    EXPECT_EQ(peer.last_use - peer.prev_use, gap);
  };
  data_instance& on0 = d.instance_at(data_place::device(0));
  ASSERT_EQ(on0.state, msi_state::modified);
  EXPECT_EQ(st.mem.clock(0), 10u);
  EXPECT_EQ(on0.last_use, 7u);
  EXPECT_EQ(on0.prev_use, 1u);
  stage(on0, 0, 1);  // age 3, interval 6: last_use 37, prev_use 31
  EXPECT_EQ(d.instance_at(data_place::device(1)).last_use, 37u);

  // Back to device 0, whose clock (10) is shorter than the age there.
  for (int i = 0; i < 30; ++i) {
    touch(1, ly);  // device 1 clock: 70, x's age 33
  }
  data_instance& on1 = d.instance_at(data_place::device(1));
  ASSERT_TRUE(stage_eviction_to_peer(st, d, on1, 1));
  release_device_instance(st, d, on1, /*recycle=*/true);
  const data_instance& back = d.instance_at(data_place::device(0));
  EXPECT_EQ(back.last_use, 0u);
  EXPECT_EQ(back.prev_use, 0u);
  EXPECT_TRUE(ctx.finalize().ok());
  EXPECT_DOUBLE_EQ(hx[0], 1.0);
}

// Blacklisting evacuates the last valid copy of a datum, shared or
// modified: after a peer read and a clean drop of the reader's replica,
// the producer's shared copy is all that is left.
TEST(LastValidCopy, BlacklistEvacuatesSoleSharedCopy) {
  constexpr std::size_t elems = (1u << 20) / sizeof(double);
  cudasim::scoped_platform sp(2, small_pool_desc(3u << 19));
  cudasim::platform& p = sp.get();
  context ctx(p);
  std::vector<double> hx(elems, 0.0), hy(elems, 0.0);
  auto lx = ctx.logical_data(hx.data(), elems, "x");
  auto ly = ctx.logical_data(hy.data(), elems, "y");
  ctx.task(exec_place::device(0), lx.rw())
          ->*[&p](cudasim::stream& s, slice<double> v) {
                p.launch_kernel(s, {.name = "fill"}, [=] {
                  for (std::size_t i = 0; i < v.size(); ++i) {
                    v(i) = 0.25 * double(i) + 1.0;
                  }
                });
              };
  ctx.task(exec_place::device(1), lx.read())
          ->*[](cudasim::stream&, slice<const double>) {};
  // y does not fit next to x's replica on device 1: the replica is not the
  // only valid copy, so it is dropped clean.
  ctx.task(exec_place::device(1), ly.write())
          ->*[](cudasim::stream&, slice<double>) {};
  logical_data_impl& d = *lx.impl();
  EXPECT_EQ(ctx.stats().clean_drops, 1u);
  EXPECT_EQ(d.instance_at(data_place::device(1)).state, msi_state::invalid);
  EXPECT_EQ(d.instance_at(data_place::host()).state, msi_state::invalid);
  ASSERT_EQ(d.instance_at(data_place::device(0)).state, msi_state::shared);

  ctx.blacklist_device(0);
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(rep.devices_blacklisted, 1u);
  for (std::size_t i = 0; i < elems; ++i) {
    ASSERT_EQ(hx[i], 0.25 * double(i) + 1.0) << i;
  }
}

// --- a datum with no valid copy ------------------------------------------

// Write-back at destruction that finds no valid instance records the loss
// (data_lost, naming the poisoned datum) instead of skipping silently.
TEST(NoValidCopy, DestructionRecordsDataLost) {
  cudasim::scoped_platform sp(1, cudasim::test_desc());
  context ctx(sp.get());
  std::vector<double> hx(64, 1.0);
  {
    auto lx = ctx.logical_data(hx.data(), hx.size(), "x");
    ctx.task(exec_place::device(0), lx.rw())
            ->*[](cudasim::stream&, slice<double>) {};
    data_instance& dev = lx.impl()->instance_at(data_place::device(0));
    ASSERT_EQ(dev.state, msi_state::modified);
    dev.state = msi_state::invalid;  // the only valid copy is gone
  }
  const error_report rep = ctx.finalize();
  ASSERT_EQ(rep.failures.size(), 1u);
  const task_failure& f = rep.failures.front();
  EXPECT_EQ(f.kind, failure_kind::data_lost);
  EXPECT_EQ(f.symbol, "x");
  EXPECT_EQ(f.poisoned, std::vector<std::string>{"x"});
}

}  // namespace
