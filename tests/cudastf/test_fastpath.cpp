// Tests for the host-side submission fast path (DESIGN.md "Host-side fast
// path", paper §IV): pooled DES nodes recycled by timeline::gc(),
// completed-event pruning, same-stream dominance on event_list::merge, and
// the invariant that pruning never changes simulated timelines.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cudastf/cudastf.hpp"
#include "taskbench/taskbench.hpp"

namespace {

using namespace cudastf;

cudasim::device_desc tdesc() {
  auto d = cudasim::test_desc();
  d.mem_capacity = 256u << 20;
  return d;
}

// Restores the global fast-path toggles on scope exit.
struct fastpath_guard {
  fastpath_config saved = fastpath();
  ~fastpath_guard() { fastpath() = saved; }
};

TEST(Fastpath, SameStreamMergeKeepsOnlyLaterEvent) {
  cudasim::platform p(1, tdesc());
  cudasim::stream s(p);
  int hits = 0;
  p.launch_kernel(s, {.name = "k"}, [&] { ++hits; });
  auto e1 = record_event(s);
  p.launch_kernel(s, {.name = "k"}, [&] { ++hits; });
  auto e2 = record_event(s);
  ASSERT_FALSE(e1.completed());
  ASSERT_EQ(e1.lane(), e2.lane());
  ASSERT_LT(e1.seq(), e2.seq());

  // Earlier first: the later event replaces the resident one.
  event_list fwd;
  EXPECT_EQ(fwd.add(e1), 0u);
  EXPECT_EQ(fwd.add(e2), 1u);
  ASSERT_EQ(fwd.size(), 1u);
  EXPECT_EQ(fwd.begin()->seq(), e2.seq());

  // Later first: the earlier event is dropped on arrival.
  event_list rev;
  EXPECT_EQ(rev.add(e2), 0u);
  EXPECT_EQ(rev.add(e1), 1u);
  ASSERT_EQ(rev.size(), 1u);
  EXPECT_EQ(rev.begin()->seq(), e2.seq());

  s.synchronize();
  EXPECT_EQ(hits, 2);
}

TEST(Fastpath, DominancePruningCanBeDisabled) {
  fastpath_guard guard;
  fastpath().prune_dominated = false;
  cudasim::platform p(1, tdesc());
  cudasim::stream s(p);
  p.launch_kernel(s, {.name = "k"}, [] {});
  auto e1 = record_event(s);
  p.launch_kernel(s, {.name = "k"}, [] {});
  auto e2 = record_event(s);
  event_list l;
  l.add(e1);
  l.add(e2);
  EXPECT_EQ(l.size(), 2u);
  s.synchronize();
}

TEST(Fastpath, CompletedEventsArePruned) {
  cudasim::platform p(1, tdesc());
  cudasim::stream s(p);
  p.launch_kernel(s, {.name = "k"}, [] {});
  auto e = record_event(s);
  s.synchronize();  // drains: the event's work is done
  ASSERT_TRUE(e.completed());
  event_list l;
  EXPECT_EQ(l.add(e), 1u);
  EXPECT_TRUE(l.empty());
}

TEST(Fastpath, TimelineGcRecyclesNodesWithoutInvalidatingLiveHandles) {
  cudasim::platform p(1, tdesc());
  cudasim::stream s(p);
  int hits = 0;
  for (int i = 0; i < 64; ++i) {
    p.launch_kernel(s, {.name = "k"}, [&] { ++hits; });
  }
  s.synchronize();  // drains and gc()s: nodes go back to the pool
  const auto completed_before = p.tl().completed_count();

  // Nodes for the second batch come from the recycle pool; the stream and
  // event handles taken across the gc boundary stay valid and ordered.
  cudasim::event ev(p);
  for (int i = 0; i < 64; ++i) {
    p.launch_kernel(s, {.name = "k"}, [&] { ++hits; });
  }
  ev.record(s);
  ev.synchronize();
  EXPECT_GT(p.nodes_pooled(), 0u);
  EXPECT_EQ(hits, 128);
  EXPECT_GT(p.tl().completed_count(), completed_before);
  EXPECT_EQ(p.tl().live_count(), 0u);
}

TEST(Fastpath, EventsPrunedOnChainTopology) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  double va[4] = {}, vb[4] = {};
  auto a = ctx.logical_data(va, "a");
  auto b = ctx.logical_data(vb, "b");
  // A chain of tasks each touching both logical data: from the second task
  // on, both dependencies resolve to the same predecessor event, so every
  // merge prunes at least the duplicate.
  for (int i = 0; i < 16; ++i) {
    ctx.task(a.rw(), b.rw())->*[](cudasim::stream&, slice<double>,
                                  slice<double>) {};
  }
  EXPECT_GT(ctx.events_pruned(), 0u);
  ctx.finalize();
}

// Runs a STENCIL taskbench workload with real kernel costs and returns the
// final simulated time. Pruning must be a pure dependency-graph
// transformation: the timeline must not depend on the toggles or backend
// wiring shortcuts.
double stencil_now(bool fast, bool graph) {
  fastpath_guard guard;
  fastpath() = fast ? fastpath_config{}
                    : fastpath_config{false, false, false};
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  context ctx = graph ? context::graph(p) : context(p);
  constexpr std::uint32_t width = 8;
  auto tasks = taskbench::generate(taskbench::topology::stencil, width, 12, 7);
  std::vector<std::vector<double>> backing(width, std::vector<double>(4, 0.0));
  std::vector<logical_data<slice<double>>> cols;
  for (std::uint32_t i = 0; i < width; ++i) {
    cols.push_back(ctx.logical_data(backing[i].data(), 4, "col"));
  }
  cudasim::kernel_desc k{.name = "work", .flops = 1e9, .bytes = 1e6};
  auto body = [&p, k](cudasim::stream& s, auto...) {
    p.launch_kernel(s, k, {});
  };
  for (const auto& t : tasks) {
    auto& self = cols[t.column];
    switch (t.deps.size()) {
      case 0:
        ctx.task(self.rw())->*body;
        break;
      case 1:
        ctx.task(self.rw(), cols[t.deps[0]].read())->*body;
        break;
      default:
        ctx.task(self.rw(), cols[t.deps[0]].read(), cols[t.deps[1]].read())
                ->*body;
        break;
    }
  }
  ctx.finalize();
  return p.now();
}

TEST(Fastpath, PruningPreservesSimulatedTimeStreamBackend) {
  EXPECT_DOUBLE_EQ(stencil_now(true, false), stencil_now(false, false));
}

TEST(Fastpath, PruningPreservesSimulatedTimeGraphBackend) {
  EXPECT_DOUBLE_EQ(stencil_now(true, true), stencil_now(false, true));
}

}  // namespace
