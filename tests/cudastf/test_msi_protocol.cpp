// White-box tests of the asynchronous MSI coherency protocol (§IV-C):
// observable instance states across reads, writes, copies, invalidations,
// write-back, and the transfer-minimization guarantees (cache hits).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cudastf/context_state.hpp"
#include "cudastf/cudastf.hpp"
#include "cudastf/mem_engine.hpp"

namespace {

using namespace cudastf;

cudasim::device_desc tdesc() {
  auto d = cudasim::test_desc();
  d.mem_capacity = 64u << 20;
  return d;
}

msi_state state_at(const logical_data<slice<double>>& ld, const data_place& p) {
  data_instance* inst = ld.impl()->find_instance(p);
  return inst == nullptr ? msi_state::invalid : inst->state;
}

TEST(Msi, HostStartsModifiedDeviceBecomesSharedOnRead) {
  cudasim::scoped_platform sp(2, tdesc());
  context ctx(sp.get());
  double v[8] = {1};
  auto ld = ctx.logical_data(v, "v");
  EXPECT_EQ(state_at(ld, data_place::host()), msi_state::modified);

  ctx.task(exec_place::device(0), ld.read())->*
      [](cudasim::stream&, slice<const double>) {};
  // After a read both copies are valid (shared).
  EXPECT_EQ(state_at(ld, data_place::host()), msi_state::shared);
  EXPECT_EQ(state_at(ld, data_place::device(0)), msi_state::shared);
  ctx.finalize();
}

TEST(Msi, WriteInvalidatesAllOtherCopies) {
  cudasim::scoped_platform sp(2, tdesc());
  context ctx(sp.get());
  double v[8] = {1};
  auto ld = ctx.logical_data(v, "v");
  ctx.task(exec_place::device(0), ld.read())->*
      [](cudasim::stream&, slice<const double>) {};
  ctx.task(exec_place::device(1), ld.read())->*
      [](cudasim::stream&, slice<const double>) {};
  EXPECT_EQ(ld.impl()->instance_count(), 3u);  // host + dev0 + dev1

  ctx.task(exec_place::device(1), ld.rw())->*
      [](cudasim::stream&, slice<double>) {};
  EXPECT_EQ(state_at(ld, data_place::device(1)), msi_state::modified);
  EXPECT_EQ(state_at(ld, data_place::device(0)), msi_state::invalid);
  EXPECT_EQ(state_at(ld, data_place::host()), msi_state::invalid);
  ctx.finalize();
  // finalize writes back: host valid again.
  EXPECT_NE(state_at(ld, data_place::host()), msi_state::invalid);
}

TEST(Msi, RepeatedReadsCauseNoExtraTransfers) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  std::vector<double> v(1 << 16, 1.0);
  auto ld = ctx.logical_data(v.data(), v.size(), "v");
  ctx.task(ld.read())->*[](cudasim::stream&, slice<const double>) {};
  ctx.finalize();
  const double after_first = p.now();
  for (int i = 0; i < 5; ++i) {
    ctx.task(ld.read())->*[](cudasim::stream&, slice<const double>) {};
  }
  ctx.finalize();
  // Only kernel-launch latencies accumulate — no copy of the 512 KB body
  // (which would add ~52 us per read on the 10 GB/s test link).
  EXPECT_LT(p.now() - after_first, 40e-6);
}

TEST(Msi, WriteModeSkipsFetchEvenWhenValidElsewhere) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  std::vector<double> v(1 << 16, 1.0);
  auto ld = ctx.logical_data(v.data(), v.size(), "v");
  ctx.task(exec_place::device(0), ld.rw())->*
      [](cudasim::stream&, slice<double>) {};
  p.synchronize();
  const double before = p.now();
  // write() on device 1: must not copy the old value from device 0.
  ctx.task(exec_place::device(1), ld.write())->*
      [](cudasim::stream&, slice<double>) {};
  ctx.finalize();
  // A p2p copy of 512 KB at 2.5 GB/s test p2p bw would take ~200us + write
  // back to host 52us; the write-path itself costs only latencies + the
  // final write-back.
  EXPECT_LT(p.now() - before, 120e-6);
  EXPECT_EQ(state_at(ld, data_place::device(0)), msi_state::invalid);
}

TEST(Msi, ModifiedSourcePicksOverShared) {
  // dev0 has the modified copy, host is invalid; a read on dev1 must pull
  // from dev0 (p2p) and leave both devices shared.
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  double v[16] = {};
  auto ld = ctx.logical_data(v, "v");
  ctx.task(exec_place::device(0), ld.rw())->*
      [&p](cudasim::stream& s, slice<double> x) {
        p.launch_kernel(s, {.name = "k"}, [=] { x(5) = 55.0; });
      };
  double seen = 0.0;
  ctx.task(exec_place::device(1), ld.read())->*
      [&p, &seen](cudasim::stream& s, slice<const double> x) {
        p.launch_kernel(s, {.name = "r"}, [&seen, x] { seen = x(5); });
      };
  EXPECT_EQ(state_at(ld, data_place::device(0)), msi_state::shared);
  EXPECT_EQ(state_at(ld, data_place::device(1)), msi_state::shared);
  ctx.finalize();
  EXPECT_DOUBLE_EQ(seen, 55.0);
}

TEST(Msi, WriteBackPrefersSingleCopySemantics) {
  // Destroying a handle with a modified device copy writes back before the
  // device instance is freed — data survives the handle.
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  double v[4] = {0, 0, 0, 0};
  {
    auto ld = ctx.logical_data(v, "v");
    ctx.task(ld.rw())->*[&p](cudasim::stream& s, slice<double> x) {
      p.launch_kernel(s, {.name = "k"}, [=] { x(2) = 7.0; });
    };
  }  // handle dies; asynchronous destruction with write-back (§IV-D)
  ctx.finalize();
  EXPECT_DOUBLE_EQ(v[2], 7.0);
  EXPECT_EQ(p.device(0).pool_used(), 0u);
}

TEST(Msi, ExplicitPlaceReusesInstanceAcrossTasks) {
  cudasim::scoped_platform sp(2, tdesc());
  context ctx(sp.get());
  double v[8] = {};
  auto ld = ctx.logical_data(v, "v");
  for (int i = 0; i < 4; ++i) {
    ctx.task(exec_place::device(0), ld.rw(data_place::device(1)))->*
        [](cudasim::stream&, slice<double>) {};
  }
  // One host instance plus exactly one device-1 instance; never a dev-0 one.
  EXPECT_EQ(ld.impl()->instance_count(), 2u);
  ctx.finalize();
}

// Host and device instances are found through per-place slots, composite
// ones by a scan; every lookup must return what a scan of instances() in
// creation order finds, and the slots must not disturb that order.
TEST(InstanceSlots, AgreeWithCreationOrderScan) {
  cudasim::scoped_platform sp(4, tdesc());
  context ctx(sp.get());
  double v[8] = {1};
  auto ld = ctx.logical_data(v, "v");  // the host instance comes first
  logical_data_impl& d = *ld.impl();
  auto part = std::make_shared<const blocked_partitioner>();
  const data_place comp = data_place::composite({{0, 1}, part, part->key()});
  const std::vector<data_place> order{data_place::host(), data_place::device(2),
                                      data_place::device(0),
                                      data_place::device(3), comp};
  for (std::size_t i = 1; i < order.size(); ++i) {
    d.instance_at(order[i]);
  }
  const auto scan = [&d](const data_place& p) -> data_instance* {
    for (const auto& inst : d.instances()) {
      if (inst->place == p) {
        return inst.get();
      }
    }
    return nullptr;
  };
  ASSERT_EQ(d.instance_count(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_TRUE(d.instances()[i]->place == order[i]) << i;
    data_instance* found = d.find_instance(order[i]);
    ASSERT_NE(found, nullptr) << i;
    EXPECT_EQ(found, scan(order[i])) << i;
    EXPECT_EQ(&d.instance_at(order[i]), found) << i;
  }
  EXPECT_EQ(d.instance_count(), order.size());  // found, none created

  // Missing places: a device below the highest slot, one beyond every
  // slot, and a composite over another grid.
  EXPECT_EQ(d.find_instance(data_place::device(1)), nullptr);
  EXPECT_EQ(d.find_instance(data_place::device(7)), nullptr);
  EXPECT_EQ(d.find_instance(data_place::composite({{0, 1, 2}, part,
                                                   part->key()})),
            nullptr);

  // Evict device 0's replica and refill it: the slot still finds the same
  // instance, now valid again.
  data_instance* on0 = d.find_instance(data_place::device(0));
  ctx.task(exec_place::device(0), ld.read())->*
      [](cudasim::stream&, slice<const double>) {};
  ASSERT_EQ(on0->state, msi_state::shared);
  release_device_instance(d.ctx(), d, *on0, /*recycle=*/true);
  EXPECT_FALSE(on0->allocated);
  ctx.task(exec_place::device(0), ld.read())->*
      [](cudasim::stream&, slice<const double>) {};
  EXPECT_EQ(d.find_instance(data_place::device(0)), on0);
  EXPECT_EQ(scan(data_place::device(0)), on0);
  EXPECT_TRUE(on0->allocated);
  EXPECT_EQ(on0->state, msi_state::shared);
  EXPECT_EQ(d.instance_count(), order.size());
  EXPECT_TRUE(ctx.finalize().ok());
}

}  // namespace
