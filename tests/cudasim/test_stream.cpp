// Integration tests for the CUDA-shaped platform API: streams, events,
// copies, stream-ordered allocation, host callbacks, virtual clock.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "cudasim/cudasim.hpp"

namespace {

using namespace cudasim;

device_desc small_desc() {
  device_desc d = test_desc();
  d.launch_latency = 1.0e-6;
  d.copy_latency = 0.0;
  d.alloc_latency = 0.0;
  return d;
}

TEST(Stream, KernelBodyRunsOnSynchronize) {
  platform p(1, small_desc());
  stream s(p);
  int hits = 0;
  p.launch_kernel(s, {.name = "k"}, [&] { ++hits; });
  EXPECT_EQ(hits, 0);  // asynchronous
  s.synchronize();
  EXPECT_EQ(hits, 1);
}

TEST(Stream, StreamOrderIsPreserved) {
  platform p(1, small_desc());
  stream s(p);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    p.launch_kernel(s, {.name = "k"}, [&order, i] { order.push_back(i); });
  }
  s.synchronize();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Stream, KernelCostModelRoofline) {
  device_desc d = small_desc();
  // compute-bound: 1e12 flops at 1e12 flop/s = 1s
  kernel_desc k{.name = "k", .flops = 1e12, .bytes = 1e9};
  EXPECT_NEAR(kernel_cost_seconds(d, k), 1.0, 1e-9);
  // memory-bound: 1e12 bytes at 100e9 B/s = 10s
  kernel_desc k2{.name = "k", .flops = 1e12, .bytes = 1e12};
  EXPECT_NEAR(kernel_cost_seconds(d, k2), 10.0, 1e-9);
  // remote traffic is additive
  kernel_desc k3{.name = "k", .flops = 0, .bytes = 0, .remote_bytes = 25e9};
  EXPECT_NEAR(kernel_cost_seconds(d, k3), 1.0, 1e-9);
}

TEST(Stream, MemcpyMovesBytes) {
  platform p(1, small_desc());
  stream s(p);
  std::vector<double> host(128);
  std::iota(host.begin(), host.end(), 0.0);
  void* dev = p.malloc_async(sizeof(double) * 128, s);
  ASSERT_NE(dev, nullptr);
  std::vector<double> back(128, -1.0);
  p.memcpy_async(dev, host.data(), sizeof(double) * 128,
                 memcpy_kind::host_to_device, s);
  p.memcpy_async(back.data(), dev, sizeof(double) * 128,
                 memcpy_kind::device_to_host, s);
  p.free_async(dev, s);
  s.synchronize();
  EXPECT_EQ(back, host);
}

TEST(Stream, MallocAsyncHonorsCapacity) {
  device_desc d = small_desc();
  d.mem_capacity = 1 << 20;
  platform p(1, d);
  stream s(p);
  void* a = p.malloc_async(800 << 10, s);
  ASSERT_NE(a, nullptr);
  void* b = p.malloc_async(800 << 10, s);
  EXPECT_EQ(b, nullptr);  // over capacity
  p.free_async(a, s);
  void* c = p.malloc_async(800 << 10, s);
  EXPECT_NE(c, nullptr);  // space returned in submission order
  p.free_async(c, s);
  s.synchronize();
}

TEST(Stream, EventOrdersAcrossStreams) {
  platform p(2, small_desc());
  stream s0(p, 0);
  stream s1(p, 1);
  std::vector<int> order;
  p.launch_kernel(s0, {.name = "slow", .fixed_seconds = 1.0},
                  [&] { order.push_back(0); });
  event e(p);
  e.record(s0);
  s1.wait_event(e);
  p.launch_kernel(s1, {.name = "after"}, [&] { order.push_back(1); });
  p.synchronize();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_TRUE(e.query());
}

TEST(Stream, WaitOnCompletedEventIsNoop) {
  platform p(1, small_desc());
  stream s(p);
  event e(p);
  p.launch_kernel(s, {.name = "k"}, {});
  e.record(s);
  e.synchronize();
  stream s2(p);
  s2.wait_event(e);  // must not deadlock or throw
  p.launch_kernel(s2, {.name = "k2"}, {});
  s2.synchronize();
}

TEST(Stream, CrossStreamOverlapOnOneDevice) {
  // Two streams on one device share the compute engine: total time is the
  // sum of kernel durations (plus latency), not the max.
  device_desc d = small_desc();
  d.launch_latency = 0.0;
  platform p(1, d);
  stream s0(p), s1(p);
  p.launch_kernel(s0, {.name = "a", .fixed_seconds = 1.0}, {});
  p.launch_kernel(s1, {.name = "b", .fixed_seconds = 1.0}, {});
  p.synchronize();
  EXPECT_NEAR(p.now(), 2.0, 1e-9);
}

TEST(Stream, MultiDeviceKernelsOverlap) {
  device_desc d = small_desc();
  d.launch_latency = 0.0;
  platform p(2, d);
  stream s0(p, 0), s1(p, 1);
  p.launch_kernel(s0, {.name = "a", .fixed_seconds = 1.0}, {});
  p.launch_kernel(s1, {.name = "b", .fixed_seconds = 1.0}, {});
  p.synchronize();
  EXPECT_NEAR(p.now(), 1.0, 1e-9);
}

TEST(Stream, ComputeAndCopyOverlap) {
  device_desc d = small_desc();
  d.launch_latency = 0.0;
  d.host_link_bw = 1e9;
  platform p(1, d);
  stream sk(p), sc(p);
  std::vector<char> buf(1 << 20);
  void* dev = p.malloc_async(buf.size(), sc);
  p.launch_kernel(sk, {.name = "k", .fixed_seconds = 0.01}, {});
  p.memcpy_async(dev, buf.data(), buf.size(), memcpy_kind::host_to_device, sc);
  p.synchronize();
  // Copy takes ~1.05ms, kernel 10ms; they overlap on separate engines.
  EXPECT_LT(p.now(), 0.0115);
  p.free_async(dev, sc);
  p.synchronize();
}

TEST(Stream, HostFuncRunsInOrder) {
  platform p(1, small_desc());
  stream s(p);
  std::vector<int> order;
  p.launch_kernel(s, {.name = "k"}, [&] { order.push_back(0); });
  p.launch_host_func(s, [&] { order.push_back(1); });
  p.launch_kernel(s, {.name = "k2"}, [&] { order.push_back(2); });
  s.synchronize();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Stream, VirtualClockAccountsLaunchLatency) {
  device_desc d = small_desc();
  d.launch_latency = 1.0e-3;
  platform p(1, d);
  stream s(p);
  for (int i = 0; i < 10; ++i) {
    p.launch_kernel(s, {.name = "empty"}, {});
  }
  p.synchronize();
  EXPECT_NEAR(p.now(), 10.0e-3, 1e-9);
}

TEST(Stream, SetDeviceControlsDefaultStreamPlacement) {
  platform p(4, small_desc());
  p.set_device(2);
  stream s(p);
  EXPECT_EQ(s.device(), 2);
  EXPECT_EQ(p.current_device(), 2);
}

TEST(Stream, ScopedPlatformInstallsDefault) {
  scoped_platform sp(3, small_desc());
  EXPECT_EQ(default_platform().device_count(), 3);
}

TEST(Stream, ManyOpsGetReclaimed) {
  platform p(1, small_desc());
  stream s(p);
  for (int rep = 0; rep < 20; ++rep) {
    for (int i = 0; i < 1000; ++i) {
      p.launch_kernel(s, {.name = "k"}, {});
    }
    p.synchronize();
  }
  EXPECT_EQ(p.ops_completed(), 20000u);
}

// --- events as plain values --------------------------------------------
//
// An event keeps its recorded node with the node's id and needs no
// registration: however it was copied, moved or destroyed, it reads
// complete once its work ran, and keeps reading complete after gc() hands
// its node to unrelated new work.

// Runs a little new work on `s`, which the pool serves from the nodes the
// last synchronize() recycled, and checks that every event in `old` still
// reads complete while an event recorded on the new work reads pending.
void expect_complete_across_recycling(platform& p, stream& s,
                                      const std::vector<const event*>& old) {
  const std::uint64_t pooled = p.nodes_pooled();
  for (int i = 0; i < 4; ++i) {
    p.launch_kernel(s, {.name = "k"}, {});
  }
  event fresh(p);
  fresh.record(s);
  ASSERT_GT(p.nodes_pooled(), pooled);  // the new work runs on recycled nodes
  EXPECT_FALSE(fresh.query());
  ASSERT_NE(fresh.pending_node(), nullptr);
  for (const event* e : old) {
    EXPECT_TRUE(e->query());
    EXPECT_EQ(e->pending_node(), nullptr);
  }
  s.synchronize();
  EXPECT_TRUE(fresh.query());
  for (const event* e : old) {
    EXPECT_TRUE(e->query());
  }
}

TEST(EventValue, MovedEventsReadCompleteAfterSynchronize) {
  platform p(1, small_desc());
  stream s(p);
  std::vector<event> events;  // growth moves the earlier events
  for (int i = 0; i < 17; ++i) {
    p.launch_kernel(s, {.name = "k"}, {});
    events.emplace_back(p);
    events.back().record(s);
  }
  event moved(std::move(events[3]));
  EXPECT_FALSE(moved.query());  // its kernel has not run yet
  p.synchronize();
  EXPECT_TRUE(moved.query());
  std::vector<const event*> old{&moved};
  for (const event& e : events) {
    EXPECT_TRUE(e.query());
    old.push_back(&e);
  }
  expect_complete_across_recycling(p, s, old);
}

TEST(EventValue, DestroyedOutOfOrderReadCompleteAfterSynchronize) {
  platform p(1, small_desc());
  stream s(p);
  std::vector<std::unique_ptr<event>> events;
  auto record_new = [&] {
    p.launch_kernel(s, {.name = "k"}, {});
    events.push_back(std::make_unique<event>(p));
    events.back()->record(s);
  };
  for (int i = 0; i < 24; ++i) {
    record_new();
  }
  for (std::size_t i : {23u, 0u, 11u, 5u, 22u, 1u, 17u}) {
    events[i].reset();
  }
  for (int i = 0; i < 4; ++i) {
    record_new();
  }
  events[25].reset();
  p.synchronize();
  std::vector<const event*> old;
  for (const auto& e : events) {
    if (e != nullptr) {
      EXPECT_TRUE(e->query());
      old.push_back(e.get());
    }
  }
  EXPECT_EQ(old.size(), 20u);
  expect_complete_across_recycling(p, s, old);
}

TEST(EventValue, ConcurrentQueriesWhileSynchronizing) {
  platform p(1, small_desc());
  constexpr int workers = 4;
  std::vector<stream> streams;
  streams.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    streams.emplace_back(p);
  }
  // Each worker keeps its last few events, destroys older ones and queries
  // the kept ones lock-free, while another thread drains, sweeps and
  // recycles nodes over and over — so queries race gc() handing their
  // nodes to the other workers' new kernels. A query that once read
  // complete must never read pending again.
  std::vector<std::vector<std::unique_ptr<event>>> kept(workers);
  std::atomic<bool> done{false};
  std::atomic<int> flipped_back{0};
  std::thread syncer([&] {
    while (!done.load()) {
      p.synchronize();
    }
  });
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      std::vector<std::unique_ptr<event>>& mine = kept[w];
      std::vector<bool> seen_complete;
      for (int i = 0; i < 300; ++i) {
        p.launch_kernel(streams[w], {.name = "k"}, {});
        mine.push_back(std::make_unique<event>(p));
        mine.back()->record(streams[w]);
        seen_complete.push_back(false);
        if (mine.size() > 4) {
          const std::size_t victim = static_cast<std::size_t>(i % 4);
          mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(victim));
          seen_complete.erase(seen_complete.begin() +
                              static_cast<std::ptrdiff_t>(victim));
        }
        for (std::size_t k = 0; k < mine.size(); ++k) {
          const bool now = mine[k]->query();
          if (seen_complete[k] && !now) {
            flipped_back.fetch_add(1);
          }
          seen_complete[k] = seen_complete[k] || now;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  done = true;
  syncer.join();
  p.synchronize();
  EXPECT_EQ(flipped_back.load(), 0);
  std::vector<const event*> old;
  for (const auto& mine : kept) {
    ASSERT_EQ(mine.size(), 4u);
    for (const auto& e : mine) {
      EXPECT_TRUE(e->query());
      old.push_back(e.get());
    }
  }
  expect_complete_across_recycling(p, streams[0], old);
}

}  // namespace
