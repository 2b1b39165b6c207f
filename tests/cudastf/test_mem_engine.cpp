// Out-of-core memory engine (DESIGN.md §9): caching suballocator, victim
// selection, trim-under-pressure — and their interaction with fault
// injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <limits>
#include <random>
#include <vector>

#include "blaslib/tiled_cholesky.hpp"
#include "cudastf/context_state.hpp"
#include "cudastf/cudastf.hpp"
#include "cudastf/mem_engine.hpp"

namespace {

using namespace cudastf;

cudasim::device_desc small_pool_desc(std::size_t cap) {
  auto d = cudasim::test_desc();
  d.mem_capacity = cap;
  return d;
}

TEST(MemEngine, SizeClassRounding) {
  // 256-byte floor; powers of two are their own class; spacing <= 12.5%.
  EXPECT_EQ(mem_size_class(1), 256u);
  EXPECT_EQ(mem_size_class(256), 256u);
  EXPECT_EQ(mem_size_class(1u << 20), 1u << 20);
  for (std::size_t b : {300u, 777u, 4097u, 100000u, (3u << 20) + 1}) {
    const std::size_t c = mem_size_class(b);
    EXPECT_GE(c, b);
    EXPECT_LE(c - b, b / 8) << b;  // at most one 12.5% class step of waste
  }
}

TEST(MemEngine, EvictedBlocksAreRecycledAsCacheHits) {
  // 6 same-size blocks cycled through a pool that holds 4: every eviction
  // parks a block that the next same-class allocation recycles without a
  // platform malloc round-trip.
  cudasim::scoped_platform sp(1, small_pool_desc(4u << 20));
  cudasim::platform& p = sp.get();
  context ctx(p);
  constexpr int blocks = 6;
  constexpr std::size_t elems = (1u << 20) / sizeof(double);
  std::vector<std::vector<double>> host(blocks,
                                        std::vector<double>(elems, 0.0));
  std::vector<logical_data<slice<double>>> data;
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
  ctx.finalize();
  EXPECT_GT(ctx.stats().evictions, 0u);
  EXPECT_GT(ctx.stats().alloc_cache_hits, 0u);
  EXPECT_GE(ctx.stats().alloc_cache_bytes_reused,
            ctx.stats().alloc_cache_hits * (1u << 20));
  for (int b = 0; b < blocks; ++b) {
    EXPECT_DOUBLE_EQ(host[b][0], double(b + 1)) << b;
  }
}

TEST(MemEngine, TrimReturnsCachedBlocksBeforeOom) {
  // Fill the pool with 1 MB blocks, evict them into the cache, then ask
  // for one 3 MB block: no 3 MB bin exists, so the allocator must trim the
  // mismatched cached blocks back to the platform instead of reporting a
  // spurious OOM.
  cudasim::scoped_platform sp(1, small_pool_desc(4u << 20));
  cudasim::platform& p = sp.get();
  context ctx(p);
  ctx.set_compute_payloads(false);
  constexpr std::size_t small_elems = (1u << 20) / sizeof(double);
  std::vector<logical_data<slice<double>>> small;
  for (int b = 0; b < 4; ++b) {
    small.push_back(ctx.logical_data<double, 1>(box<1>(small_elems), "s"));
    ctx.task(small.back().write())->*[](cudasim::stream&, slice<double>) {};
  }
  constexpr std::size_t big_elems = (3u << 20) / sizeof(double);
  auto big = ctx.logical_data<double, 1>(box<1>(big_elems), "big");
  ctx.task(big.write())->*[](cudasim::stream&, slice<double>) {};
  EXPECT_GE(ctx.stats().pool_trims, 1u);

  // Genuine exhaustion still surfaces: larger than the whole pool.
  auto huge = ctx.logical_data<double, 1>(
      box<1>((5u << 20) / sizeof(double)), "huge");
  EXPECT_THROW(ctx.task(huge.write())->*[](cudasim::stream&, slice<double>) {},
               std::bad_alloc);
  ctx.finalize();
}

TEST(MemEngine, CleanVictimsPreferredOverDirty) {
  // Resident: A dirty (older), B clean (younger, host holds a valid copy).
  // Pure LRU would evict A and pay a 1 MB write-back; the victim key
  // drops B for free.
  cudasim::scoped_platform sp(1, small_pool_desc((2u << 20) + (64u << 10)));
  cudasim::platform& p = sp.get();
  context ctx(p);
  ctx.memory_options().evict_batch = 1;
  constexpr std::size_t elems = (1u << 20) / sizeof(double);
  std::vector<double> a(elems, 0.0), b(elems, 7.0);
  auto la = ctx.logical_data(a.data(), elems, "a");
  auto lb = ctx.logical_data(b.data(), elems, "b");
  auto lc = ctx.logical_data<double, 1>(box<1>(elems), "c");
  ctx.task(la.rw())->*[&p](cudasim::stream& s, slice<double> v) {
    p.launch_kernel(s, {.name = "dirty"}, [=] { v(0) = 42.0; });
  };
  ctx.task(lb.read())->*[](cudasim::stream&, slice<const double>) {};
  // Third 1 MB allocation: one of A/B must go.
  ctx.task(lc.write())->*[](cudasim::stream&, slice<double>) {};
  EXPECT_GE(ctx.stats().clean_drops, 1u);
  EXPECT_GE(ctx.stats().writebacks_avoided, 1u);
  ctx.finalize();
  EXPECT_DOUBLE_EQ(a[0], 42.0);  // the dirty copy survived untouched
  EXPECT_DOUBLE_EQ(b[0], 7.0);
}

TEST(MemEngine, PinnedInstancesNeverEvictedEvenWithCache) {
  // A task's own dependencies are pinned while it acquires: three 1 MB
  // deps against a 2 MB pool can never fit, cache or no cache.
  cudasim::scoped_platform sp(1, small_pool_desc(2u << 20));
  context ctx(sp.get());
  constexpr std::size_t elems = (1u << 20) / sizeof(double);
  auto la = ctx.logical_data<double, 1>(box<1>(elems), "a");
  auto lb = ctx.logical_data<double, 1>(box<1>(elems), "b");
  auto lc = ctx.logical_data<double, 1>(box<1>(elems), "c");
  EXPECT_THROW(ctx.task(la.write(), lb.write(), lc.write())->*
                   [](cudasim::stream&, slice<double>, slice<double>,
                      slice<double>) {},
               std::bad_alloc);
  ctx.finalize();
}

TEST(MemEngine, InjectedAllocFaultRetriedThroughCache) {
  // An injected allocation fault fires on the platform path; cache hits
  // bypass it entirely. The run must absorb the fault, keep recycling, and
  // produce correct data.
  cudasim::scoped_platform sp(1, small_pool_desc(4u << 20));
  cudasim::platform& p = sp.get();
  p.ensure_fault_injector().schedule(
      {.kind = cudasim::fault_kind::alloc_fail, .device = -1, .at_op = 0});
  context ctx(p);
  constexpr int blocks = 6;
  constexpr std::size_t elems = (1u << 20) / sizeof(double);
  std::vector<std::vector<double>> host(blocks,
                                        std::vector<double>(elems, 0.0));
  std::vector<logical_data<slice<double>>> data;
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
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GE(rep.alloc_retries, 1u);
  EXPECT_GT(ctx.stats().alloc_cache_hits, 0u);
  for (int b = 0; b < blocks; ++b) {
    EXPECT_DOUBLE_EQ(host[b][0], double(b + 1)) << b;
  }
}

TEST(MemEngine, RegistryStaysBoundedWithoutFence) {
  // Registration sweeps expired entries every 256 registrations; nothing
  // else has to. 10k short-lived data in one epoch, under enough pool
  // pressure to evict, must not grow the registry.
  cudasim::scoped_platform sp(1, small_pool_desc(4u << 20));
  sp.get().set_copy_payloads(false);
  context ctx(sp.get());
  ctx.set_compute_payloads(false);
  constexpr std::size_t elems = (1u << 20) / sizeof(double);
  std::vector<logical_data<slice<double>>> keep;
  for (int k = 0; k < 4; ++k) {
    keep.push_back(ctx.logical_data<double, 1>(box<1>(elems), "keep"));
  }
  const context_state& st = keep[0].impl()->ctx();
  std::size_t peak = 0;
  for (int i = 0; i < 10000; ++i) {
    auto tmp = ctx.logical_data<double, 1>(box<1>(elems), "tmp");
    ctx.task(keep[i % 4].rw(), tmp.write())
            ->*[](cudasim::stream&, slice<double>, slice<double>) {};
    peak = std::max(peak, st.registry.size());
  }
  EXPECT_LT(peak, 512u);
  EXPECT_GT(ctx.stats().evictions, 0u);
  EXPECT_TRUE(ctx.finalize().ok());
}

// --- victim-order invariance -------------------------------------------
//
// Which instance evict_for picks decides every later routing decision and
// the virtual clock. The values below were recorded with per-device use
// clocks and sole-copy staging; the ordered walk picks what a full scan of
// the device's resident instances would (VictimWalk below), and any
// cheaper selection must reproduce them exactly.

// FNV-1a over every planned transfer, in planning order.
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

struct victim_cell {
  std::uint64_t scan_threshold;
  std::uint64_t scan_guard;
  std::uint64_t dirty_penalty;
};

struct victim_outcome {
  std::uint64_t evictions = 0;
  std::uint64_t clean_drops = 0;
  std::uint64_t writebacks_avoided = 0;
  std::uint64_t hash = 0;
  double now = 0.0;
};

bool operator==(const victim_outcome& a, const victim_outcome& b) {
  return a.evictions == b.evictions && a.clean_drops == b.clean_drops &&
         a.writebacks_avoided == b.writebacks_avoided && a.hash == b.hash &&
         a.now == b.now;
}

std::ostream& operator<<(std::ostream& os, const victim_outcome& o) {
  char now[64];
  std::snprintf(now, sizeof now, "%a", o.now);
  return os << "{" << o.evictions << ", " << o.clean_drops << ", "
            << o.writebacks_avoided << ", 0x" << std::hex << o.hash
            << std::dec << "ull, " << now << "}";
}

// Timing-only 28x28-tile Cholesky on 4 A100 models whose pools hold 120
// of its 406 tiles each: thousands of evictions, with reuse intervals on
// both sides of the default scan threshold. `then` (when set)
// reconfigures the engine after a fence and factors the matrix again.
victim_outcome run_victim_cholesky(const victim_cell& cell,
                                   const victim_cell* then = nullptr) {
  constexpr std::size_t block = 256, tiles = 28;
  cudasim::scoped_platform sp(4, cudasim::a100_desc());
  cudasim::platform& p = sp.get();
  for (int d = 0; d < 4; ++d) {
    p.device(d).set_pool_capacity(120 * block * block * sizeof(double));
  }
  p.set_copy_payloads(false);
  blaslib::tile_matrix mat(tiles * block, block, /*zero_init=*/false);
  context ctx(p);
  ctx.set_compute_payloads(false);
  ctx.transfer_options().trace = true;
  auto configure = [&ctx](const victim_cell& c) {
    mem_config& m = ctx.memory_options();
    m.scan_threshold = c.scan_threshold;
    m.scan_guard = c.scan_guard;
    m.dirty_penalty = c.dirty_penalty;
  };
  auto probe = ctx.logical_data<double, 1>(box<1>(1), "probe");
  const context_state& st = probe.impl()->ctx();
  configure(cell);
  blaslib::cholesky_options opts;
  opts.block = block;
  opts.compute = false;
  blaslib::tiled_cholesky_stf(ctx, mat, opts);
  if (then != nullptr) {
    ctx.fence();
    configure(*then);
    blaslib::tiled_cholesky_stf(ctx, mat, opts);
  }
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  victim_outcome o;
  o.evictions = ctx.stats().evictions;
  o.clean_drops = ctx.stats().clean_drops;
  o.writebacks_avoided = ctx.stats().writebacks_avoided;
  o.hash = trace_hash(st.xfer_trace);
  o.now = p.now();
  return o;
}

constexpr std::uint64_t default_dirty = mem_config{}.dirty_penalty;

// {scan_threshold 768, 0} x {scan_guard 192, 0} x {default dirty_penalty,
// 1 << 20}.
TEST(VictimOrderInvariance, ConfigMatrix) {
  constexpr std::uint64_t big_dirty = std::uint64_t{1} << 20;
  const struct {
    victim_cell cell;
    victim_outcome expect;
  } table[] = {
      {{768, 192, default_dirty},
       {1334, 812, 793, 0x310250aacacfb688ull, 0x1.40c6f05fa2bf3p-7}},
      {{768, 192, big_dirty},
       {1010, 1010, 1005, 0x8f89cdc8a249e223ull, 0x1.512bad33071fp-7}},
      {{768, 0, default_dirty},
       {1622, 1322, 1302, 0x9d4907d9bdb1eff0ull, 0x1.57dc953df91f5p-7}},
      {{768, 0, big_dirty},
       {1472, 1472, 1467, 0x84173aed91745ec0ull, 0x1.4f73f72339318p-7}},
      {{0, 192, default_dirty},
       {1324, 794, 772, 0x1d48b8d00a830b03ull, 0x1.48e6f39c4994ap-7}},
      {{0, 192, big_dirty},
       {1010, 1010, 1005, 0xfe37ef2c2783a1a1ull, 0x1.5059b2f35125cp-7}},
      {{0, 0, default_dirty},
       {1324, 794, 772, 0x1d48b8d00a830b03ull, 0x1.48e6f39c4994ap-7}},
      {{0, 0, big_dirty},
       {1010, 1010, 1005, 0xfe37ef2c2783a1a1ull, 0x1.5059b2f35125cp-7}},
  };
  for (const auto& row : table) {
    const victim_cell& c = row.cell;
    EXPECT_EQ(run_victim_cholesky(c), row.expect)
        << "scan_threshold " << c.scan_threshold << ", scan_guard "
        << c.scan_guard
        << ", dirty_penalty " << c.dirty_penalty;
  }
}

// Changing scan_threshold moves instances between the streaming and hot
// classes; a run that changes it between two fences must pick the same
// victims as the original full scan.
TEST(VictimOrderInvariance, ScanThresholdChangedBetweenFences) {
  const victim_cell first{768, 192, default_dirty};
  const victim_cell second{96, 192, default_dirty};
  const victim_outcome expect{3916, 1662, 1563, 0x9a674160a774c998ull,
                              0x1.3e6a784d47519p-5};
  EXPECT_EQ(run_victim_cholesky(first, &second), expect);
}

// --- ordered victim walk against the full scan ---------------------------

bool evictable(const data_instance& inst) {
  return !inst.pinned && !inst.user_owned && inst.allocated;
}

// Dropping the instance would lose the data: modified, or the only valid
// instance.
bool reference_sole_copy(const logical_data_impl& d,
                         const data_instance& inst) {
  if (inst.state == msi_state::invalid) {
    return false;
  }
  std::size_t valid = 0;
  for (const auto& other : d.instances()) {
    valid += other->state != msi_state::invalid ? 1 : 0;
  }
  return inst.state == msi_state::modified || valid == 1;
}

bool streaming(const mem_config& cfg, const data_instance& inst) {
  return cfg.scan_threshold != 0 &&
         inst.last_use - inst.prev_use > cfg.scan_threshold;
}

// The victim key exactly as a full scan of device 0 computes it.
std::uint64_t reference_key(const context_state& st,
                            const mem_engine::resident_ref& r) {
  const data_instance& inst = *r.inst;
  const mem_config& cfg = st.mem.cfg;
  constexpr std::uint64_t scan_base = std::uint64_t{1} << 40;
  std::uint64_t key;
  if (streaming(cfg, inst)) {
    key = scan_base - inst.last_use;
    if (cfg.scan_guard != 0 &&
        inst.last_use + cfg.scan_guard > st.mem.clock(0)) {
      key += scan_base / 2;
    }
  } else {
    key = inst.last_use + scan_base;
  }
  if (reference_sole_copy(*r.data, inst)) {
    key += cfg.dirty_penalty;
  }
  return key;
}

// The victim choice as a full scan of the device's resident index made
// it: lowest key, first in index order on ties, and the least recently
// used evictable instance beside it.
mem_engine::victim_choice reference_scan(context_state& st, int device) {
  mem_engine::victim_choice out;
  std::uint64_t best_key = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t lru_key = std::numeric_limits<std::uint64_t>::max();
  for (const mem_engine::resident_ref& r : *st.mem.resident(device)) {
    if (!evictable(*r.inst)) {
      continue;
    }
    if (r.inst->last_use < lru_key) {
      lru_key = r.inst->last_use;
      out.lru = r;
    }
    const std::uint64_t key = reference_key(st, r);
    if (key < best_key) {
      best_key = key;
      out.best = r;
    }
  }
  return out;
}

struct walk_fixture {
  cudasim::scoped_platform sp{1, cudasim::a100_desc()};
  context ctx{sp.get()};
  std::deque<std::vector<double>> host;
  std::vector<logical_data<slice<const double>>> data;
  std::size_t refills = 0;

  walk_fixture() {
    sp.get().set_copy_payloads(false);
    ctx.set_compute_payloads(false);
  }
  context_state& st() { return data.front().impl()->ctx(); }
  data_instance& inst(std::size_t i) {
    return data[i].impl()->instance_at(data_place::device(0));
  }
  /// A new logical data, resident on device 0; its host copy stays valid,
  /// so it can be dropped from the device and refilled.
  void add() {
    host.emplace_back(64, 1.0);
    data.push_back(ctx.logical_data(
        static_cast<const double*>(host.back().data()), host.back().size(),
        "d"));
    read(data.size() - 1);
  }
  /// A device-0 read of datum i: the demand acquire that fills a dropped
  /// copy and re-links the instance with a fresh last_use.
  void read(std::size_t i) {
    ctx.task(exec_place::device(0), data[i].read())
            ->*[](cudasim::stream&, slice<const double>) {};
  }
  /// Drops datum i's device copy and refills it through a demand acquire.
  void evict_and_refill(std::size_t i) {
    data_instance& x = inst(i);
    if (!x.allocated || x.pinned) {
      return;
    }
    release_device_instance(st(), *data[i].impl(), x, /*recycle=*/false);
    read(i);
    ++refills;
  }
  void expect_matches_scan(const char* what) {
    const mem_engine::victim_choice want = reference_scan(st(), 0);
    const mem_engine::victim_choice got = st().mem.pick_victim(0);
    ASSERT_NE(want.best.inst, nullptr) << what;
    EXPECT_EQ(got.best.inst, want.best.inst) << what;
    EXPECT_EQ(got.best.data, want.best.data) << what;
    EXPECT_EQ(got.lru.inst, want.lru.inst) << what;
  }
};

// Equal keys must go to the lower index position even when the walk meets
// the higher one first: the walk may only stop once the next lower bound
// is strictly above the best key.
TEST(VictimWalk, TiesGoToLowerIndexPosition) {
  walk_fixture f;
  for (int i = 0; i < 8; ++i) {
    f.add();
  }
  mem_config& cfg = f.ctx.memory_options();
  // Every instance hot: last_use == 0 everywhere gives equal keys.
  cfg.scan_threshold = 0;
  f.st().mem.pick_victim(0);  // builds the lists

  // Relinked in reverse index order so the list meets the highest
  // position first.
  for (std::size_t i = f.data.size(); i-- > 0;) {
    f.inst(i).last_use = 0;
    f.inst(i).prev_use = 0;
    f.st().mem.on_use(f.inst(i));
  }
  f.expect_matches_scan("last_use == 0 ties");
  EXPECT_EQ(f.st().mem.pick_victim(0).best.inst->resident_pos, 0u);

  // A dirty old streaming instance (met first, key base - 100 + 110) ties
  // a clean hot one (base + 10) at a lower index position.
  cfg.scan_threshold = 50;
  cfg.scan_guard = 0;
  cfg.dirty_penalty = 110;
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    data_instance& x = f.inst(i);
    x.state = msi_state::shared;
    x.prev_use = 20 + i;
    x.last_use = 20 + i;  // hot, key base + 20 + i
    f.st().mem.on_use(x);
  }
  data_instance* hot = nullptr;
  data_instance* streaming = nullptr;
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    data_instance& x = f.inst(i);
    if (x.resident_pos == 2) {
      hot = &x;
    } else if (x.resident_pos == 5) {
      streaming = &x;
    }
  }
  ASSERT_TRUE(hot != nullptr && streaming != nullptr);
  hot->prev_use = 5;
  hot->last_use = 10;
  f.st().mem.on_use(*hot);
  streaming->prev_use = 0;
  streaming->last_use = 100;
  streaming->state = msi_state::modified;
  f.st().mem.on_use(*streaming);
  f.expect_matches_scan("cross-class tie");
  EXPECT_EQ(f.st().mem.pick_victim(0).best.inst, hot);
  EXPECT_TRUE(f.ctx.finalize().ok());
}

// link() walks from whichever end of the list is nearer in last_use; from
// either end the instance must land after every equal last_use, where a
// walk from the tail puts it. Inserts below the head, mid-list, at ties
// and above the tail, each checked against a stably sorted reference.
TEST(VictimWalk, LinkFromEitherEndKeepsTailWalkOrder) {
  walk_fixture f;
  for (int i = 0; i < 16; ++i) {
    f.add();
  }
  f.ctx.memory_options().scan_threshold = 0;  // every instance is hot
  f.st().mem.pick_victim(0);                  // builds the lists
  auto listed = [&f] {
    const data_instance* x = &f.inst(0);
    while (x->lru_prev != nullptr) {
      x = x->lru_prev;
    }
    std::vector<const data_instance*> out;
    for (; x != nullptr; x = x->lru_next) {
      out.push_back(x);
    }
    return out;
  };
  std::vector<const data_instance*> want = listed();
  ASSERT_EQ(want.size(), f.data.size());
  auto use = [&](std::size_t i, std::uint64_t last_use) {
    data_instance& x = f.inst(i);
    want.erase(std::find(want.begin(), want.end(), &x));
    x.last_use = last_use;
    x.prev_use = last_use;
    f.st().mem.on_use(x);
    want.insert(std::upper_bound(want.begin(), want.end(), last_use,
                                 [](std::uint64_t v, const data_instance* y) {
                                   return v < y->last_use;
                                 }),
                &x);
    EXPECT_EQ(listed(), want) << "instance " << i << " at " << last_use;
  };
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    use(i, 100 + 10 * i);  // 100 .. 250, each appended at the tail
  }
  use(7, 5);     // below the head
  use(8, 0);     // below the new head
  use(3, 175);   // mid-list, nearer the tail
  use(12, 131);  // mid-list, nearer the head
  use(9, 0);     // ties the head
  use(1, 5);     // ties the second node
  use(4, 110);   // ties a node near the head
  use(5, 200);   // ties a node near the tail
  use(14, 250);  // ties the tail
  use(2, 400);   // above the tail
  std::mt19937_64 rng(7);
  for (int round = 0; round < 2000; ++round) {
    use(rng() % f.data.size(), rng() % 48);  // dense ties everywhere
  }
  EXPECT_TRUE(f.ctx.finalize().ok());
}

// Random resident populations, use histories, pins, states and engine
// settings — including crafted cross-class full-key ties, duplicate and
// zero last_use values, sole shared copies, threshold changes (list
// rebuilds), instances arriving and leaving, and demand refills between
// choices. Use values are drawn below device 0's clock, which a head
// start keeps above every draw.
TEST(VictimWalk, MatchesFullScanRandomized) {
  walk_fixture f;
  for (int i = 0; i < 48; ++i) {
    f.add();
  }
  for (int i = 0; i < 1024; ++i) {
    f.st().mem.tick(0);
  }
  std::mt19937_64 rng(20241117);
  auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  mem_config& cfg = f.ctx.memory_options();
  std::size_t ties = 0;
  std::size_t cross_class_ties = 0;
  std::size_t sole_shared = 0;  // rounds with an evictable sole shared copy
  // 20000 rounds: crafted cross-class ties decide about one choice in 140.
  for (int round = 0; round < 20000; ++round) {
    SCOPED_TRACE(round);
    if (pick(4) == 0) {
      // Leave (the destructor drops the instance) and arrive.
      f.data.erase(f.data.begin() +
                   static_cast<std::ptrdiff_t>(pick(f.data.size())));
      f.add();
    }
    if (pick(3) == 0) {
      f.evict_and_refill(pick(f.data.size()));
    }
    const std::uint64_t span = 1 + pick(200);
    // The clock reads pick(span + 64) ticks past `origin`; a drawn use v
    // is tick origin + v, and 0 stays 0 (never used).
    const std::uint64_t origin = f.st().mem.clock(0) - pick(span + 64);
    auto at = [origin](std::uint64_t v) { return v == 0 ? 0 : origin + v; };
    for (std::size_t i = 0; i < f.data.size(); ++i) {
      data_instance& x = f.inst(i);
      if (pick(3) != 0) {
        continue;  // keep some history across rounds
      }
      x.last_use = pick(4) == 0 ? 0 : at(pick(span));
      x.prev_use = at(pick(span));  // may exceed last_use: interval wraps
      x.pinned = pick(10) == 0;
      x.state = pick(2) == 0 ? msi_state::modified : msi_state::shared;
      f.st().mem.on_use(x);
    }
    // Invalidate some host copies for this round: a shared device copy
    // is then the sole one.
    std::vector<std::pair<data_instance*, msi_state>> hosts;
    for (std::size_t i = 0; i < f.data.size(); ++i) {
      if (pick(4) == 0) {
        data_instance& h = f.data[i].impl()->instance_at(data_place::host());
        hosts.emplace_back(&h, h.state);
        h.state = msi_state::invalid;
      }
    }
    if (pick(8) == 0) {
      cfg.scan_threshold = pick(3) == 0 ? 0 : pick(span);
    }
    cfg.scan_guard = pick(3) == 0 ? 0 : pick(span);
    // Dirty penalty that makes a dirty streaming instance a and a clean
    // hot instance b tie exactly: base - a + p == base + b. Streaming and
    // hot keys sit 2 * origin apart, so a random penalty spans that gap.
    const data_instance& a = f.inst(pick(f.data.size()));
    const data_instance& b = f.inst(pick(f.data.size()));
    cfg.dirty_penalty = pick(2) == 0 ? a.last_use + b.last_use
                                     : 2 * origin + pick(2 * span);
    const mem_engine::victim_choice want = reference_scan(f.st(), 0);
    const mem_engine::victim_choice got = f.st().mem.pick_victim(0);
    ASSERT_EQ(got.best.inst, want.best.inst);
    ASSERT_EQ(got.best.data, want.best.data);
    ASSERT_EQ(got.lru.inst, want.lru.inst);
    // Count choices an exact full-key tie decided, to show they happen.
    if (want.best.inst != nullptr) {
      const std::uint64_t best_key = reference_key(f.st(), want.best);
      bool tie = false;
      bool cross = false;
      for (const mem_engine::resident_ref& r : *f.st().mem.resident(0)) {
        if (r.inst != want.best.inst && evictable(*r.inst) &&
            reference_key(f.st(), r) == best_key) {
          tie = true;
          cross = cross || streaming(cfg, *r.inst) !=
                               streaming(cfg, *want.best.inst);
        }
      }
      ties += tie;
      cross_class_ties += cross;
    }
    for (const mem_engine::resident_ref& r : *f.st().mem.resident(0)) {
      if (evictable(*r.inst) && r.inst->state == msi_state::shared &&
          reference_sole_copy(*r.data, *r.inst)) {
        ++sole_shared;
        break;
      }
    }
    for (const auto& [h, state] : hosts) {
      h->state = state;
    }
  }
  EXPECT_GT(ties, 1000u);
  EXPECT_GT(cross_class_ties, 100u);
  EXPECT_GT(sole_shared, 1000u);
  EXPECT_GT(f.refills, 1000u);
  EXPECT_TRUE(f.ctx.finalize().ok());
}

}  // namespace
