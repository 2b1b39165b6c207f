// Multi-threaded task injection (§VII-E uses several CPU threads to submit
// tasks "in a scalable manner") and API edge cases: place construction,
// equality/keys, stats counters, error paths.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "cudastf/cudastf.hpp"

namespace {

using namespace cudastf;

cudasim::device_desc tdesc() {
  auto d = cudasim::test_desc();
  d.mem_capacity = 256u << 20;
  return d;
}

TEST(Concurrency, MultiThreadedSubmissionIsSafeAndCorrect) {
  cudasim::scoped_platform sp(4, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  constexpr int threads = 4;
  constexpr int per_thread = 50;
  // Each injector thread owns its own counter data and increments it
  // `per_thread` times through tasks (intra-thread dependencies), all
  // submitting into the same context concurrently.
  std::vector<std::vector<double>> host(threads, std::vector<double>(8, 0.0));
  std::vector<logical_data<slice<double>>> data;
  for (int t = 0; t < threads; ++t) {
    data.push_back(ctx.logical_data(host[static_cast<std::size_t>(t)].data(),
                                    8, "ctr"));
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < per_thread; ++i) {
        ctx.task(exec_place::device(t % 4), data[static_cast<std::size_t>(t)].rw())
                ->*[&p](cudasim::stream& s, slice<double> v) {
          p.launch_kernel(s, {.name = "inc"}, [=] { v(0) += 1.0; });
        };
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  ctx.finalize();
  for (int t = 0; t < threads; ++t) {
    EXPECT_DOUBLE_EQ(host[static_cast<std::size_t>(t)][0], double(per_thread));
  }
  EXPECT_GE(ctx.stats().tasks, std::uint64_t(threads * per_thread));
}

TEST(Concurrency, ThreadsSharingOneLogicalData) {
  // All threads hammer the same logical data; STF must serialize correctly
  // so the final count is exact.
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  double counter[1] = {0.0};
  auto ld = ctx.logical_data(counter, "shared");
  constexpr int threads = 3, per_thread = 30;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < per_thread; ++i) {
        ctx.task(exec_place::automatic(), ld.rw())->*
            [&p](cudasim::stream& s, slice<double> v) {
          p.launch_kernel(s, {.name = "inc"}, [=] { v(0) += 1.0; });
        };
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  ctx.finalize();
  EXPECT_DOUBLE_EQ(counter[0], double(threads * per_thread));
}

TEST(Places, ConstructionAndEquality) {
  EXPECT_TRUE(exec_place::all_devices().is_grid());
  EXPECT_TRUE(exec_place::all_devices().wants_all_devices());
  EXPECT_EQ(exec_place::device(3).device_index(), 3);
  EXPECT_EQ(exec_place::grid({0, 2}).size(), 2u);
  EXPECT_THROW(exec_place::device(-1), std::invalid_argument);
  EXPECT_THROW(exec_place::grid({}), std::invalid_argument);

  EXPECT_EQ(data_place::device(1), data_place::device(1));
  EXPECT_FALSE(data_place::device(1) == data_place::device(2));
  EXPECT_FALSE(data_place::host() == data_place::device(0));
  EXPECT_TRUE(data_place().is_affine());
  EXPECT_THROW(data_place::device(-2), std::invalid_argument);
  EXPECT_THROW(data_place::host().composite_info(), std::logic_error);

  // Distinct keys for distinct places.
  EXPECT_NE(data_place::device(0).key(), data_place::device(1).key());
  EXPECT_NE(data_place::host().key(), data_place::device(0).key());
}

TEST(Places, CompositeEqualityByGridAndPartitioner) {
  auto part = std::make_shared<const blocked_partitioner>();
  composite_desc a{{0, 1}, part, part->key()};
  composite_desc b{{0, 1}, std::make_shared<const blocked_partitioner>(),
                   blocked_partitioner{}.key()};
  composite_desc c{{0, 1, 2}, part, part->key()};
  EXPECT_EQ(data_place::composite(a), data_place::composite(b));
  EXPECT_FALSE(data_place::composite(a) == data_place::composite(c));
  EXPECT_EQ(data_place::composite(a).key(), data_place::composite(b).key());
}

TEST(Api, GridDeviceOutOfRangeThrows) {
  cudasim::scoped_platform sp(2, tdesc());
  context ctx(sp.get());
  std::vector<double> v(16, 0.0);
  auto ld = ctx.logical_data(v.data(), v.size(), "v");
  EXPECT_THROW(
      ctx.parallel_for(exec_place::grid({0, 5}), ld.get_shape(), ld.rw())->*
          [](std::size_t, slice<double>) {},
      std::out_of_range);
  EXPECT_THROW(ctx.task(exec_place::device(7), ld.rw())->*
                   [](cudasim::stream&, slice<double>) {},
               std::out_of_range);
  ctx.finalize();
}

TEST(Api, GridTaskAndHostTaskRejections) {
  cudasim::scoped_platform sp(2, tdesc());
  context ctx(sp.get());
  double v[4] = {};
  auto ld = ctx.logical_data(v, "v");
  EXPECT_THROW(ctx.task(exec_place::all_devices(), ld.rw())->*
                   [](cudasim::stream&, slice<double>) {},
               std::logic_error);
  EXPECT_THROW(ctx.task(exec_place::host(), ld.rw())->*
                   [](cudasim::stream&, slice<double>) {},
               std::logic_error);
  ctx.finalize();
}

TEST(Api, StatsCountersAdvance) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  double v[4] = {};
  auto ld = ctx.logical_data(v, "v");
  const auto before = ctx.stats().tasks;
  ctx.task(ld.rw())->*[&p](cudasim::stream& s, slice<double> x) {
    p.launch_kernel(s, {.name = "k"}, [=] { x(0) = 1; });
  };
  ctx.finalize();
  EXPECT_GT(ctx.stats().tasks, before);
}

TEST(Api, EventListMergeAndClear) {
  cudasim::platform p(1, cudasim::test_desc());
  cudasim::stream s1(p), s2(p);
  p.launch_kernel(s1, {.name = "k"}, {});
  p.launch_kernel(s2, {.name = "k"}, {});
  event_list a, b;
  EXPECT_TRUE(a.empty());
  a.add(event{});  // empty events are dropped
  EXPECT_TRUE(a.empty());
  a.add(record_event(s1));  // pending, on two different streams
  b.add(record_event(s2));
  b.merge(a);
  EXPECT_EQ(b.size(), 2u);
  // merged() deduplicates: b already contains a's event, so the result
  // holds each distinct event exactly once.
  EXPECT_EQ(merged(a, b).size(), 2u);
  b.clear();
  EXPECT_TRUE(b.empty());
  p.synchronize();
}

}  // namespace
