// Topology-aware transfer engine (DESIGN.md §6): min-cost source routing,
// broadcast trees, chunked/pipelined copies, in-flight coalescing and
// peer-staged eviction — each mechanism toggled and observed through the
// planner counters, the transfer trace, and the virtual clock.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "blaslib/tiled_cholesky.hpp"
#include "cudastf/cudastf.hpp"
#include "cudastf/transfer.hpp"

namespace {

using namespace cudastf;

cudasim::device_desc tdesc() {
  auto d = cudasim::test_desc();
  d.mem_capacity = 256u << 20;
  return d;
}

// --- (a) min-cost source selection -----------------------------------------

// After a device write and a host read-back, valid copies live on device 0
// AND the host. The p2p link (25 GB/s) beats the host link (10 GB/s), so a
// read on device 1 must source the peer — the legacy protocol order picked
// the most recently created valid instance, i.e. the host.
TEST(TransferRouting, PicksPeerOverHost) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  ctx.transfer_options().trace = true;
  constexpr std::size_t n = 1 << 16;  // 512 KiB: bandwidth dominates latency
  auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
          ->*[](std::size_t i, slice<double> x) { x(i) = 1.0; };
  double seen = 0.0;
  ctx.host_launch(lX.read())->*[&seen](slice<const double> x) { seen = x(0); };
  p.synchronize();  // settle the host fill so only link costs matter

  ctx.task(exec_place::device(1), lX.read())->*
      [](cudasim::stream&, slice<const double>) {};
  ctx.finalize();
  EXPECT_DOUBLE_EQ(seen, 1.0);

  const auto& trace = lX.impl()->ctx().xfer_trace;
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.back().dst_device, 1);
  EXPECT_EQ(trace.back().src_device, 0);  // p2p beats the host link
}

TEST(TransferRouting, DisabledFallsBackToProtocolOrder) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  ctx.transfer_options().trace = true;
  ctx.transfer_options().route_by_cost = false;
  constexpr std::size_t n = 1 << 16;
  auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
          ->*[](std::size_t i, slice<double> x) { x(i) = 1.0; };
  ctx.host_launch(lX.read())->*[](slice<const double>) {};
  p.synchronize();

  ctx.task(exec_place::device(1), lX.read())->*
      [](cudasim::stream&, slice<const double>) {};
  ctx.finalize();

  const auto& trace = lX.impl()->ctx().xfer_trace;
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.back().dst_device, 1);
  EXPECT_EQ(trace.back().src_device, -1);  // legacy order lands on the host
}

// --- (b) broadcast trees ---------------------------------------------------

// One producer, seven consumers submitted back to back: the fills must fan
// out over at least two distinct sources (instances just becoming valid are
// admissible), not serialize on device 0's copy engine.
TEST(TransferBroadcast, TreeUsesMultipleSources) {
  cudasim::scoped_platform sp(8, tdesc());
  cudasim::platform& p = sp.get();
  p.set_copy_payloads(false);
  context ctx(p);
  ctx.set_compute_payloads(false);
  ctx.transfer_options().trace = true;
  constexpr std::size_t n = 1 << 22;  // 32 MiB
  auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
          ->*[](std::size_t, slice<double>) {};
  for (int d = 1; d < 8; ++d) {
    ctx.task(exec_place::device(d), lX.read())->*
        [](cudasim::stream&, slice<const double>) {};
  }
  ctx.finalize();

  std::set<int> sources;
  for (const transfer_record& r : lX.impl()->ctx().xfer_trace) {
    if (r.dst_device >= 1) {
      sources.insert(r.src_device);
    }
  }
  EXPECT_GE(sources.size(), 2u);
  EXPECT_GE(ctx.stats().broadcast_fanout, 1u);
}

TEST(TransferBroadcast, TreeDisabledSerializesOnRoot) {
  cudasim::scoped_platform sp(8, tdesc());
  cudasim::platform& p = sp.get();
  p.set_copy_payloads(false);
  context ctx(p);
  ctx.set_compute_payloads(false);
  ctx.transfer_options().trace = true;
  ctx.transfer_options().broadcast_tree = false;
  constexpr std::size_t n = 1 << 22;
  auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
          ->*[](std::size_t, slice<double>) {};
  for (int d = 1; d < 8; ++d) {
    ctx.task(exec_place::device(d), lX.read())->*
        [](cudasim::stream&, slice<const double>) {};
  }
  ctx.finalize();

  for (const transfer_record& r : lX.impl()->ctx().xfer_trace) {
    if (r.dst_device >= 1) {
      EXPECT_EQ(r.src_device, 0);  // only settled copies admissible
    }
  }
  EXPECT_EQ(ctx.stats().broadcast_fanout, 0u);
}

// The whole point, on the virtual clock: tree + pipelined chunks beat the
// star fan-out from a single source.
TEST(TransferBroadcast, FasterThanStar) {
  auto run = [](bool planner_on) {
    cudasim::scoped_platform sp(8, cudasim::a100_desc());
    cudasim::platform& p = sp.get();
    p.set_copy_payloads(false);
    context ctx(p);
    ctx.set_compute_payloads(false);
    transfer_config& cfg = ctx.transfer_options();
    if (planner_on) {
      cfg.chunk_bytes = 8u << 20;  // pipeline the 64 MiB payload
    } else {
      cfg.route_by_cost = false;
      cfg.broadcast_tree = false;
      cfg.coalesce = false;
      cfg.chunk_bytes = 0;
    }
    constexpr std::size_t n = 1 << 23;  // 64 MiB
    auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
    ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
            ->*[](std::size_t, slice<double>) {};
    ctx.fence();
    p.synchronize();
    const double t0 = p.now();
    for (int d = 1; d < 8; ++d) {
      ctx.task(exec_place::device(d), lX.read())->*
          [](cudasim::stream&, slice<const double>) {};
    }
    ctx.finalize();
    return p.now() - t0;
  };
  const double t_on = run(true);
  const double t_off = run(false);
  EXPECT_LT(t_on, t_off * 0.8);
}

// --- (d) in-flight coalescing ----------------------------------------------

// A fill whose instance was re-invalidated (the fault path's MSI rollback
// does exactly this) but whose copy is still in flight and still delivers
// the current contents is joined, not duplicated.
TEST(TransferCoalesce, JoinsInFlightFill) {
  cudasim::scoped_platform sp(2, tdesc());
  context ctx(sp.get());
  constexpr std::size_t n = 1 << 16;
  auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
          ->*[](std::size_t i, slice<double> x) { x(i) = 2.0; };
  ctx.task(exec_place::device(1), lX.read())->*
      [](cudasim::stream&, slice<const double>) {};  // issues the fill

  logical_data_impl& d = *lX.impl();
  context_state& st = d.ctx();
  {
    std::lock_guard lock(st.mu);
    data_instance* inst = d.find_instance(data_place::device(1));
    ASSERT_NE(inst, nullptr);
    ASSERT_TRUE(inst->fill_pending);
    inst->state = msi_state::invalid;  // simulate a recovery rollback
    EXPECT_TRUE(request_transfer(st, d, *inst));
    EXPECT_EQ(inst->state, msi_state::shared);
  }
  EXPECT_EQ(ctx.stats().copies_coalesced, 1u);
  ctx.finalize();
}

TEST(TransferCoalesce, DisabledReissues) {
  cudasim::scoped_platform sp(2, tdesc());
  context ctx(sp.get());
  ctx.transfer_options().coalesce = false;
  ctx.transfer_options().trace = true;
  constexpr std::size_t n = 1 << 16;
  auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
          ->*[](std::size_t i, slice<double> x) { x(i) = 2.0; };
  ctx.task(exec_place::device(1), lX.read())->*
      [](cudasim::stream&, slice<const double>) {};

  logical_data_impl& d = *lX.impl();
  context_state& st = d.ctx();
  {
    std::lock_guard lock(st.mu);
    data_instance* inst = d.find_instance(data_place::device(1));
    ASSERT_NE(inst, nullptr);
    inst->state = msi_state::invalid;
    EXPECT_TRUE(request_transfer(st, d, *inst));
  }
  EXPECT_EQ(ctx.stats().copies_coalesced, 0u);
  std::size_t fills_to_dev1 = 0;
  for (const transfer_record& r : st.xfer_trace) {
    if (r.dst_device == 1) {
      ++fills_to_dev1;
    }
  }
  EXPECT_EQ(fills_to_dev1, 2u);  // the duplicate copy was issued
  ctx.finalize();
}

// --- (c) chunked, pipelined copies -----------------------------------------

TEST(TransferChunking, PreservesNumericsAndCounts) {
  cudasim::scoped_platform sp(1, tdesc());
  context ctx(sp.get());
  ctx.transfer_options().chunk_bytes = 4096;
  constexpr std::size_t n = 4096;  // 32 KiB / 4 KiB -> 8 chunks per copy
  std::vector<double> host(n);
  for (std::size_t i = 0; i < n; ++i) {
    host[i] = static_cast<double>(i);
  }
  auto lX = ctx.logical_data(host.data(), n, "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.rw())
          ->*[](std::size_t i, slice<double> x) { x(i) += 1.0; };
  ctx.finalize();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(host[i], static_cast<double>(i) + 1.0) << "i=" << i;
  }
  // 8 chunks up (host -> device) + 8 chunks back at write-back.
  EXPECT_EQ(ctx.stats().chunks_issued, 16u);
}

TEST(TransferChunking, DisabledIssuesMonolithicCopy) {
  cudasim::scoped_platform sp(1, tdesc());
  context ctx(sp.get());
  ctx.transfer_options().chunk_bytes = 0;
  constexpr std::size_t n = 4096;
  std::vector<double> host(n, 3.0);
  auto lX = ctx.logical_data(host.data(), n, "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.rw())
          ->*[](std::size_t i, slice<double> x) { x(i) += 1.0; };
  ctx.finalize();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(host[i], 4.0);
  }
  EXPECT_EQ(ctx.stats().chunks_issued, 0u);
}

// --- peer-staged eviction --------------------------------------------------

TEST(TransferEviction, PrefersPeerWithHeadroom) {
  cudasim::scoped_platform sp(2, cudasim::test_desc());
  cudasim::platform& p = sp.get();
  p.device(0).set_pool_capacity(10u << 20);  // fits one 8 MiB buffer
  context ctx(p);
  constexpr std::size_t n = 1 << 20;  // 8 MiB of doubles
  auto lA = ctx.logical_data<double, 1>(box<1>(n), "A");
  auto lB = ctx.logical_data<double, 1>(box<1>(n), "B");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lA.write())
          ->*[](std::size_t i, slice<double> a) {
            a(i) = static_cast<double>(i % 13);
          };
  // Allocating B on device 0 must evict A — whose sole (modified) copy is
  // staged to device 1 over the p2p link, not round-tripped via the host.
  ctx.parallel_for(exec_place::device(0), box<1>(n), lB.write())
          ->*[](std::size_t, slice<double>) {};
  EXPECT_GE(ctx.stats().evictions, 1u);
  EXPECT_GE(ctx.stats().p2p_bytes, n * sizeof(double));
  EXPECT_EQ(ctx.stats().host_link_bytes, 0u);

  // The staged copy must still hold A's contents.
  bool ok = true;
  ctx.host_launch(lA.read())->*[&ok, n](slice<const double> a) {
    for (std::size_t i = 0; i < n; i += 997) {
      ok = ok && a(i) == static_cast<double>(i % 13);
    }
  };
  ctx.finalize();
  EXPECT_TRUE(ok);
}

TEST(TransferEviction, DisabledStagesToHost) {
  cudasim::scoped_platform sp(2, cudasim::test_desc());
  cudasim::platform& p = sp.get();
  p.device(0).set_pool_capacity(10u << 20);
  context ctx(p);
  ctx.transfer_options().peer_eviction = false;
  constexpr std::size_t n = 1 << 20;
  auto lA = ctx.logical_data<double, 1>(box<1>(n), "A");
  auto lB = ctx.logical_data<double, 1>(box<1>(n), "B");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lA.write())
          ->*[](std::size_t i, slice<double> a) {
            a(i) = static_cast<double>(i % 13);
          };
  ctx.parallel_for(exec_place::device(0), box<1>(n), lB.write())
          ->*[](std::size_t, slice<double>) {};
  EXPECT_GE(ctx.stats().evictions, 1u);
  EXPECT_GE(ctx.stats().host_link_bytes, n * sizeof(double));
  EXPECT_EQ(ctx.stats().p2p_bytes, 0u);
  ctx.finalize();
}

// --- fault interaction -----------------------------------------------------

// A transient link error hitting a broadcast fill is absorbed by the retry
// loop: the run recovers fully and every consumer still sees the data.
TEST(TransferFaults, FaultedBroadcastRecovers) {
  cudasim::scoped_platform sp(4, tdesc());
  cudasim::platform& p = sp.get();
  p.ensure_fault_injector().schedule(
      {.kind = cudasim::fault_kind::link_error, .device = -1, .at_op = 0});
  context ctx(p);
  constexpr std::size_t n = 1 << 14;
  auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
          ->*[](std::size_t i, slice<double> x) {
            x(i) = static_cast<double>(i);
          };
  std::vector<double> firsts(4, -1.0);
  for (int d = 1; d < 4; ++d) {
    auto lout = ctx.logical_data(firsts.data() + d, 1, "out");
    ctx.task(exec_place::device(d), lX.read(), lout.write())->*
        [&p](cudasim::stream& s, slice<const double> x, slice<double> o) {
          p.launch_kernel(s, {.name = "probe"}, [=] { o(0) = x(100); });
        };
  }
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GE(rep.tasks_retried, 1u);
  for (int d = 1; d < 4; ++d) {
    EXPECT_DOUBLE_EQ(firsts[static_cast<std::size_t>(d)], 100.0);
  }
}

// --- HEFT interaction (satellite: p2p-aware transfer estimate) -------------

// Data held by a busy device: the old placement model priced any remote
// fetch at host-link rates with the data assumed instantly available, so a
// loaded holder pushed the task to an idle device. The fixed model charges
// the p2p rate AND the holder's queue (the copy cannot start earlier), so
// the task stays with its data.
TEST(TransferHeft, ChargesP2pAndReadinessForPeerResidentSource) {
  cudasim::scoped_platform sp(2, tdesc());
  context ctx(sp.get());
  constexpr std::size_t n = 1 << 20;  // 8 MiB: host-link fetch ~ 840 us
  auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
          ->*[](std::size_t, slice<double>) {};

  context_state& st = lX.impl()->ctx();
  {
    std::lock_guard lock(st.mu);
    // Busier than an old-model migration (2 ms > 840 us + work), idle peer.
    st.heft_load = {2.0e-3, 0.0};
  }
  int chosen = -1;
  ctx.task(exec_place::automatic(), lX.rw())->*
      [&chosen](cudasim::stream& s, slice<double>) { chosen = s.device(); };
  ctx.finalize();
  EXPECT_EQ(chosen, 0);  // stays with the data
}

// --- graph backend smoke ---------------------------------------------------

// Graph-node events never report completion before launch, so the planner
// stays conservative under the graph backend — but routing, chunking and
// the peer-copy graph nodes must still produce correct results.
TEST(TransferGraphBackend, BroadcastCorrectUnderGraphs) {
  cudasim::scoped_platform sp(4, tdesc());
  cudasim::platform& p = sp.get();
  context ctx = context::graph(p);
  ctx.transfer_options().chunk_bytes = 4096;
  constexpr std::size_t n = 1 << 12;
  auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
          ->*[](std::size_t i, slice<double> x) {
            x(i) = static_cast<double>(2 * i);
          };
  std::vector<double> probes(4, -1.0);
  for (int d = 1; d < 4; ++d) {
    auto lout = ctx.logical_data(probes.data() + d, 1, "out");
    ctx.task(exec_place::device(d), lX.read(), lout.write())->*
        [&p](cudasim::stream& s, slice<const double> x, slice<double> o) {
          p.launch_kernel(s, {.name = "probe"}, [=] { o(0) = x(7); });
        };
  }
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  for (int d = 1; d < 4; ++d) {
    EXPECT_DOUBLE_EQ(probes[static_cast<std::size_t>(d)], 14.0);
  }
}

// --- routing invariance: pinned decisions on an out-of-core factorization -

// FNV-1a over every planned transfer (src, dst, bytes, chunks, coalesced),
// in issue order: any changed routing decision changes the hash.
std::uint64_t trace_hash(const std::vector<transfer_record>& trace) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((v >> (8 * b)) & 0xff)) * 1099511628211ull;
    }
  };
  for (const transfer_record& r : trace) {
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.src_device)));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.dst_device)));
    mix(r.bytes);
    mix(r.chunks);
    mix(r.coalesced ? 1 : 0);
  }
  return h;
}

// The planner trace lives in the context state, reachable through any
// logical data handle; a shape-only probe is never accessed, so it issues
// no transfer of its own.
const context_state& state_of(context& ctx) {
  auto probe = ctx.logical_data<double, 1>(box<1>(1), "probe");
  return probe.impl()->ctx();
}

struct ooc_outcome {
  std::uint64_t hash = 0;
  std::size_t transfers = 0;
  double now = 0.0;
  std::uint64_t evictions = 0;
  std::uint64_t broadcast_fanout = 0;
  std::uint64_t p2p_bytes = 0;
};

// Timing-only 16x16-tile Cholesky on 4 A100 models whose pools hold 40
// tiles each: reads fan out across devices while eviction churns, so
// hundreds of fills are routed among several valid sources by scores that
// include the copy-engine occupancy term.
ooc_outcome run_ooc_cholesky(bool graph) {
  constexpr std::size_t block = 512, tiles = 16;
  cudasim::scoped_platform sp(4, cudasim::a100_desc());
  cudasim::platform& p = sp.get();
  for (int d = 0; d < 4; ++d) {
    p.device(d).set_pool_capacity(40 * block * block * sizeof(double));
  }
  p.set_copy_payloads(false);
  blaslib::tile_matrix mat(tiles * block, block, /*zero_init=*/false);
  context ctx = graph ? context::graph(p) : context(p);
  ctx.set_compute_payloads(false);
  ctx.transfer_options().trace = true;
  const context_state& st = state_of(ctx);
  blaslib::tiled_cholesky_stf(
      ctx, mat, {.block = block, .compute = false, .devices = {}});
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  ooc_outcome o;
  o.hash = trace_hash(st.xfer_trace);
  o.transfers = st.xfer_trace.size();
  o.now = p.now();
  o.evictions = ctx.stats().evictions;
  o.broadcast_fanout = ctx.stats().broadcast_fanout;
  o.p2p_bytes = ctx.stats().p2p_bytes;
  return o;
}

// Pinned routing of this factorization, recorded with per-device use
// clocks and sole-copy staging in the victim policy: the planner's
// bookkeeping may get cheaper, but never route differently.
constexpr std::uint64_t ooc_trace_hash = 0xf324f88e47fdc962ull;
constexpr std::size_t ooc_transfers = 672;
constexpr std::uint64_t ooc_evictions = 378;
constexpr std::uint64_t ooc_broadcast_fanout = 151;
constexpr std::uint64_t ooc_p2p_bytes = 838860800;

void expect_pinned_routing(const ooc_outcome& o) {
  EXPECT_EQ(o.hash, ooc_trace_hash);
  EXPECT_EQ(o.transfers, ooc_transfers);
  EXPECT_EQ(o.evictions, ooc_evictions);
  EXPECT_EQ(o.broadcast_fanout, ooc_broadcast_fanout);
  EXPECT_EQ(o.p2p_bytes, ooc_p2p_bytes);
}

TEST(TransferInvariance, OutOfCoreCholeskyStreamBackend) {
  const ooc_outcome o = run_ooc_cholesky(/*graph=*/false);
  expect_pinned_routing(o);
  EXPECT_EQ(o.now, 0x1.770be509e59e9p-7);
}

// Same decisions on the graph backend, whose node events never report
// completion; only the virtual clock differs (graph launch costs).
TEST(TransferInvariance, OutOfCoreCholeskyGraphBackend) {
  const ooc_outcome o = run_ooc_cholesky(/*graph=*/true);
  expect_pinned_routing(o);
  EXPECT_EQ(o.now, 0x1.f0ad8e0508eacp-6);
}

// Occupancy must drain: once synchronize() has retired every copy, an
// identical second fan-out from the same source must route exactly like
// the first. A count that never drops would still see round one's copies
// queued on their sources and pick different ones.
TEST(TransferInvariance, OccupancyDrainsAfterSynchronize) {
  cudasim::scoped_platform sp(8, tdesc());
  cudasim::platform& p = sp.get();
  p.set_copy_payloads(false);
  context ctx(p);
  ctx.set_compute_payloads(false);
  ctx.transfer_options().trace = true;
  constexpr std::size_t n = 1 << 22;  // 32 MiB
  auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
  const context_state& st = lX.impl()->ctx();
  auto fan_out = [&] {
    const std::size_t first = st.xfer_trace.size();
    ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
            ->*[](std::size_t, slice<double>) {};  // invalidates the peers
    for (int d = 1; d < 8; ++d) {
      ctx.task(exec_place::device(d), lX.read())->*
          [](cudasim::stream&, slice<const double>) {};
    }
    p.synchronize();
    std::vector<std::pair<int, int>> routes;
    for (std::size_t i = first; i < st.xfer_trace.size(); ++i) {
      routes.emplace_back(st.xfer_trace[i].src_device,
                          st.xfer_trace[i].dst_device);
    }
    return routes;
  };
  const auto first = fan_out();
  const auto second = fan_out();
  ASSERT_EQ(first.size(), 7u);
  EXPECT_EQ(first, second);
  EXPECT_TRUE(ctx.finalize().ok());
}

}  // namespace
