// Tests for simulated CUDA graphs: construction, instantiation, launch,
// exec-update, stream capture, graph-ordered memory nodes, and the
// latency advantage over stream launch.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cudasim/cudasim.hpp"

namespace {

using namespace cudasim;

device_desc gdesc() {
  device_desc d = test_desc();
  d.launch_latency = 10.0e-6;
  d.graph_node_latency = 1.0e-6;
  d.copy_latency = 0.0;
  d.alloc_latency = 0.0;
  return d;
}

TEST(Graph, BuildAndLaunchRunsBodies) {
  platform p(1, gdesc());
  graph g(p);
  std::vector<int> order;
  auto a = g.add_kernel_node({}, 0, {.name = "a"}, [&] { order.push_back(0); });
  auto b = g.add_kernel_node({a}, 0, {.name = "b"}, [&] { order.push_back(1); });
  g.add_kernel_node({b}, 0, {.name = "c"}, [&] { order.push_back(2); });
  graph_exec exec(g);
  stream s(p);
  exec.launch(s);
  s.synchronize();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Graph, LaunchTwiceRunsBodiesTwice) {
  platform p(1, gdesc());
  graph g(p);
  int hits = 0;
  g.add_kernel_node({}, 0, {.name = "a"}, [&] { ++hits; });
  graph_exec exec(g);
  stream s(p);
  exec.launch(s);
  exec.launch(s);
  s.synchronize();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(exec.launches(), 2u);
}

TEST(Graph, ForkJoinTopologyOverlaps) {
  device_desc d = gdesc();
  d.graph_node_latency = 0.0;
  platform p(2, d);
  graph g(p);
  auto root = g.add_kernel_node({}, 0, {.name = "r", .fixed_seconds = 1.0}, {});
  // Two 1s children on different devices overlap.
  auto l = g.add_kernel_node({root}, 0, {.name = "l", .fixed_seconds = 1.0}, {});
  auto r = g.add_kernel_node({root}, 1, {.name = "r2", .fixed_seconds = 1.0}, {});
  g.add_empty_node({l, r});
  graph_exec exec(g);
  stream s(p, 0);
  exec.launch(s);
  p.synchronize();
  EXPECT_NEAR(p.now(), 2.0, 1e-9);
}

TEST(Graph, GraphLaunchBeatsStreamLaunchForSmallKernels) {
  platform p(1, gdesc());
  const int n = 100;
  // Stream path.
  {
    stream s(p);
    for (int i = 0; i < n; ++i) {
      p.launch_kernel(s, {.name = "k", .fixed_seconds = 1e-6}, {});
    }
    p.synchronize();
  }
  const double stream_time = p.now();
  // Graph path on a fresh platform for a clean clock.
  platform p2(1, gdesc());
  {
    graph g(p2);
    graph_node prev{};
    for (int i = 0; i < n; ++i) {
      std::vector<graph_node> deps;
      if (prev.valid()) {
        deps.push_back(prev);
      }
      prev = g.add_kernel_node(deps, 0, {.name = "k", .fixed_seconds = 1e-6}, {});
    }
    graph_exec exec(g);
    stream s(p2);
    exec.launch(s);
    p2.synchronize();
  }
  const double graph_time = p2.now();
  EXPECT_LT(graph_time, stream_time * 0.35);  // 11us vs 2us per kernel
}

TEST(Graph, ExecUpdateAcceptsSameTopology) {
  platform p(1, gdesc());
  graph g1(p);
  int first = 0, second = 0;
  auto a = g1.add_kernel_node({}, 0, {.name = "a"}, [&] { ++first; });
  g1.add_kernel_node({a}, 0, {.name = "b"}, [&] { ++first; });
  graph_exec exec(g1);
  const double inst_cost = exec.last_build_cost_seconds();

  graph g2(p);
  auto a2 = g2.add_kernel_node({}, 0, {.name = "a"}, [&] { ++second; });
  g2.add_kernel_node({a2}, 0, {.name = "b"}, [&] { ++second; });
  EXPECT_TRUE(exec.update(g2));
  EXPECT_LT(exec.last_build_cost_seconds(), inst_cost * 0.2);

  stream s(p);
  exec.launch(s);
  s.synchronize();
  EXPECT_EQ(first, 0);   // old bodies were swapped out
  EXPECT_EQ(second, 2);  // new parameters took effect
}

TEST(Graph, ExecUpdateRejectsDifferentTopology) {
  platform p(1, gdesc());
  graph g1(p);
  auto a = g1.add_kernel_node({}, 0, {.name = "a"}, {});
  g1.add_kernel_node({a}, 0, {.name = "b"}, {});
  graph_exec exec(g1);

  graph g2(p);  // three nodes instead of two
  auto a2 = g2.add_kernel_node({}, 0, {.name = "a"}, {});
  auto b2 = g2.add_kernel_node({a2}, 0, {.name = "b"}, {});
  g2.add_kernel_node({b2}, 0, {.name = "c"}, {});
  EXPECT_FALSE(exec.update(g2));

  graph g3(p);  // same count, different edges
  g3.add_kernel_node({}, 0, {.name = "a"}, {});
  g3.add_kernel_node({}, 0, {.name = "b"}, {});
  EXPECT_FALSE(exec.update(g3));
}

// Builds a -> b into `g`, both bodies counting into `hits`.
void build_chain(graph& g, int& hits) {
  auto a = g.add_kernel_node({}, 0, {.name = "a"}, [&hits] { ++hits; });
  g.add_kernel_node({a}, 0, {.name = "b"}, [&hits] { ++hits; });
}

TEST(Graph, UpdatedExecRunsOnlyNewestBodiesOncePerLaunch) {
  platform p(1, gdesc());
  int hits[3] = {};
  graph g0(p);
  build_chain(g0, hits[0]);
  graph_exec exec(g0);
  graph g1(p);
  build_chain(g1, hits[1]);
  graph g2(p);
  build_chain(g2, hits[2]);
  stream s(p);
  ASSERT_TRUE(exec.update(g1));
  exec.launch(s);
  ASSERT_TRUE(exec.update(g2));
  exec.launch(s);
  exec.launch(s);
  s.synchronize();
  EXPECT_EQ(hits[0], 0);
  EXPECT_EQ(hits[1], 2);  // one launch of the two-node chain
  EXPECT_EQ(hits[2], 4);  // two launches
  EXPECT_EQ(exec.launches(), 3u);
}

TEST(Graph, ClearedTemplateRebuildsAndUpdatesAgain) {
  platform p(1, gdesc());
  graph g(p);
  int hits[4] = {};
  build_chain(g, hits[0]);
  graph_exec exec(g);
  g.clear();
  EXPECT_EQ(g.node_count(), 0u);
  stream s(p);
  for (int round = 1; round < 4; ++round) {
    build_chain(g, hits[round]);
    ASSERT_TRUE(exec.update(g)) << round;
    g.clear();  // holds the exec's previous nodes after the swap
    exec.launch(s);
  }
  s.synchronize();
  EXPECT_EQ(hits[0], 0);
  EXPECT_EQ(hits[1], 2);
  EXPECT_EQ(hits[2], 2);
  EXPECT_EQ(hits[3], 2);
}

TEST(Graph, ClearReturnsAllocNodeReservations) {
  platform p(1, gdesc());
  graph g(p);
  for (int round = 0; round < 2; ++round) {
    void* buf = nullptr;
    auto a = g.add_mem_alloc_node({}, 0, 1 << 20, &buf);
    ASSERT_TRUE(a.valid());
    g.add_mem_free_node({a}, 0, buf);
    EXPECT_EQ(p.device(0).pool_used(), 1u << 20);
    g.clear();
    EXPECT_EQ(p.device(0).pool_used(), 0u);
    EXPECT_EQ(g.node_count(), 0u);
  }
}

TEST(Graph, ExecUpdateRejectsSameDepCountsWithDifferentEdges) {
  platform p(1, gdesc());
  int first = 0;
  graph g1(p);  // a, b, c <- a
  auto a = g1.add_kernel_node({}, 0, {.name = "a"}, [&] { ++first; });
  g1.add_kernel_node({}, 0, {.name = "b"}, [&] { ++first; });
  g1.add_kernel_node({a}, 0, {.name = "c"}, [&] { ++first; });
  graph_exec exec(g1);

  graph g2(p);  // a, b, c <- b: every node keeps its dep count
  g2.add_kernel_node({}, 0, {.name = "a"}, {});
  auto b2 = g2.add_kernel_node({}, 0, {.name = "b"}, {});
  g2.add_kernel_node({b2}, 0, {.name = "c"}, {});
  EXPECT_FALSE(exec.update(g2));
  EXPECT_EQ(g2.node_count(), 3u);  // a rejected update takes nothing

  stream s(p);
  exec.launch(s);
  s.synchronize();
  EXPECT_EQ(first, 3);  // still the instantiated bodies
}

TEST(Graph, ThrowingPushLeavesGraphUnchanged) {
  platform p(1, gdesc());
  graph g(p);
  std::vector<int> order;
  auto a = g.add_kernel_node({}, 0, {.name = "a"}, [&] { order.push_back(0); });
  void* buf = nullptr;
  EXPECT_THROW(g.add_kernel_node({a, graph_node{}}, 0, {.name = "x"}, {}),
               std::invalid_argument);
  EXPECT_THROW(g.add_kernel_node({a, graph_node{7}}, 0, {.name = "x"}, {}),
               std::out_of_range);
  EXPECT_THROW(g.add_mem_alloc_node({graph_node{7}}, 0, 1024, &buf),
               std::out_of_range);
  EXPECT_EQ(p.device(0).pool_used(), 0u);
  EXPECT_EQ(g.node_count(), 1u);
  g.add_kernel_node({a}, 0, {.name = "b"}, [&] { order.push_back(1); });

  // The exec updates from a cleanly built twin, so no stray edge was left.
  graph twin(p);
  auto ta = twin.add_kernel_node({}, 0, {.name = "a"}, {});
  twin.add_kernel_node({ta}, 0, {.name = "b"}, {});
  graph_exec exec(twin);
  ASSERT_TRUE(exec.update(g));
  stream s(p);
  exec.launch(s);
  s.synchronize();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Graph, MemAllocNodeProvidesUsableBuffer) {
  platform p(1, gdesc());
  graph g(p);
  void* buf = nullptr;
  auto alloc = g.add_mem_alloc_node({}, 0, 1024, &buf);
  ASSERT_NE(buf, nullptr);
  ASSERT_TRUE(alloc.valid());
  double* data = static_cast<double*>(buf);
  auto k = g.add_kernel_node({alloc}, 0, {.name = "fill"},
                             [data] { data[0] = 42.0; });
  g.add_mem_free_node({k}, 0, buf);
  EXPECT_GT(p.device(0).pool_used(), 0u);
  graph_exec exec(g);
  stream s(p);
  exec.launch(s);
  s.synchronize();
  EXPECT_DOUBLE_EQ(data[0], 42.0);
  g.release_resources();
  EXPECT_EQ(p.device(0).pool_used(), 0u);
}

TEST(Graph, MemAllocNodeHonorsCapacity) {
  device_desc d = gdesc();
  d.mem_capacity = 1 << 20;
  platform p(1, d);
  graph g(p);
  void* buf = nullptr;
  auto n = g.add_mem_alloc_node({}, 0, 2 << 20, &buf);
  EXPECT_EQ(buf, nullptr);
  EXPECT_FALSE(n.valid());
}

TEST(Graph, StreamCaptureRecordsKernelChain) {
  platform p(1, gdesc());
  graph g(p);
  stream s(p);
  int hits = 0;
  s.begin_capture(g);
  p.launch_kernel(s, {.name = "a"}, [&] { ++hits; });
  p.launch_kernel(s, {.name = "b"}, [&] { ++hits; });
  p.launch_host_func(s, [&] { ++hits; });
  s.end_capture();
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(hits, 0);  // nothing executed during capture
  graph_exec exec(g);
  exec.launch(s);
  s.synchronize();
  EXPECT_EQ(hits, 3);
}

TEST(Graph, CaptureMemcpyAndAlloc) {
  platform p(1, gdesc());
  graph g(p);
  stream s(p);
  std::vector<double> host{1.0, 2.0, 3.0};
  std::vector<double> back(3, 0.0);
  s.begin_capture(g);
  void* dev = p.malloc_async(3 * sizeof(double), s);
  ASSERT_NE(dev, nullptr);
  p.memcpy_async(dev, host.data(), 3 * sizeof(double),
                 memcpy_kind::host_to_device, s);
  p.memcpy_async(back.data(), dev, 3 * sizeof(double),
                 memcpy_kind::device_to_host, s);
  p.free_async(dev, s);
  s.end_capture();
  graph_exec exec(g);
  exec.launch(s);
  s.synchronize();
  EXPECT_EQ(back, host);
}

TEST(Graph, AbandonedTemplateReturnsPoolSpace) {
  platform p(1, gdesc());
  {
    graph g(p);
    void* buf = nullptr;
    g.add_mem_alloc_node({}, 0, 1 << 20, &buf);
    EXPECT_EQ(p.device(0).pool_used(), 1u << 20);
  }
  EXPECT_EQ(p.device(0).pool_used(), 0u);
}

}  // namespace
