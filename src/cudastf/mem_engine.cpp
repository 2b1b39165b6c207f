// Out-of-core memory engine (DESIGN.md §9): caching suballocator,
// last_use-ordered victim lists walked by victim key, and batched
// eviction. Owns context_state::alloc_with_eviction.
//
// Threading contract (DESIGN.md §11): allocation and eviction mutate
// instances of arbitrary logical data; this engine only ever runs under the
// context lock.
#include "cudastf/mem_engine.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <new>

#include "cudastf/context_state.hpp"
#include "cudastf/data.hpp"
#include "cudastf/error.hpp"
#include "cudastf/recover.hpp"
#include "cudastf/submit.hpp"  // complete dot_exporter for ~context_state
#include "cudastf/transfer.hpp"

namespace cudastf {

std::size_t mem_size_class(std::size_t bytes) {
  if (bytes <= 256) {
    return 256;
  }
  const int msb = 63 - std::countl_zero(bytes);
  const std::size_t gran = std::size_t{1} << (msb - 3);
  return (bytes + gran - 1) / gran * gran;
}

mem_engine::device_mem& mem_engine::dev(int device) {
  const auto idx = static_cast<std::size_t>(device);
  if (dev_.size() <= idx) {
    dev_.resize(idx + 1);
  }
  return dev_[idx];
}

void* mem_engine::take_cached(context_state& st, int device, std::size_t bytes,
                              event_list& out) {
  device_mem& dm = dev(device);
  auto it = dm.bins.find(mem_size_class(bytes));
  if (it == dm.bins.end()) {
    return nullptr;
  }
  std::vector<cached_block>& bin = it->second;
  // A bin spans one class step, so a block can be slightly smaller than
  // the request; scan for a fit (homogeneous workloads hit the first).
  // Oldest-first: the oldest parked block's carried events (its previous
  // life's write-back) are the most likely to have completed, so the new
  // allocation chains behind the least work.
  for (std::size_t i = 0; i < bin.size(); ++i) {
    if (bin[i].bytes < bytes) {
      continue;
    }
    cached_block blk = std::move(bin[i]);
    bin.erase(bin.begin() + static_cast<std::ptrdiff_t>(i));
    if (bin.empty()) {
      dm.bins.erase(it);
    }
    dm.cached_bytes -= blk.bytes;
    st.events_pruned += out.merge(blk.deps);
    backend_stats& bs = st.backend->mutable_stats();
    ++bs.alloc_cache_hits;
    bs.alloc_cache_bytes_reused += blk.bytes;
    return blk.ptr;
  }
  return nullptr;
}

void mem_engine::release_block(context_state& /*st*/, int device,
                               std::size_t bytes, void* p, event_list deps) {
  deps.prune_completed_entries();
  device_mem& dm = dev(device);
  dm.bins[mem_size_class(bytes)].push_back({p, bytes, std::move(deps)});
  dm.cached_bytes += bytes;
}

bool mem_engine::trim_device(context_state& st, int device, std::size_t want) {
  if (static_cast<std::size_t>(device) >= dev_.size()) {
    return false;
  }
  device_mem& dm = dev_[static_cast<std::size_t>(device)];
  std::size_t freed = 0;
  for (auto it = dm.bins.begin(); it != dm.bins.end() && freed < want;) {
    std::vector<cached_block>& bin = it->second;
    while (!bin.empty() && freed < want) {
      cached_block blk = std::move(bin.back());
      bin.pop_back();
      dm.cached_bytes -= blk.bytes;
      freed += blk.bytes;
      st.backend->free_device(device, blk.ptr, blk.deps, st.dangling);
    }
    it = bin.empty() ? dm.bins.erase(it) : std::next(it);
  }
  if (freed == 0) {
    return false;
  }
  ++st.backend->mutable_stats().pool_trims;
  return true;
}

void mem_engine::trim_all(context_state& st) {
  for (std::size_t d = 0; d < dev_.size(); ++d) {
    trim_device(st, static_cast<int>(d),
                std::numeric_limits<std::size_t>::max());
  }
}

void mem_engine::on_resident(int device, logical_data_impl& d,
                             data_instance& inst) {
  device_mem& dm = dev(device);
  inst.resident_pos = static_cast<std::uint32_t>(dm.resident.size());
  dm.resident.push_back({&d, &inst});
  if (dm.ordered) {
    link(dm, inst);
  }
}

void mem_engine::on_nonresident(int device, data_instance& inst) {
  if (inst.resident_pos == data_instance::not_resident ||
      static_cast<std::size_t>(device) >= dev_.size()) {
    return;
  }
  device_mem& dm = dev_[static_cast<std::size_t>(device)];
  if (inst.lru_class != 0) {
    unlink(dm, inst);
  }
  std::vector<resident_ref>& idx = dm.resident;
  const std::size_t pos = inst.resident_pos;
  if (pos < idx.size() && idx[pos].inst == &inst) {
    idx[pos] = idx.back();
    idx[pos].inst->resident_pos = static_cast<std::uint32_t>(pos);
    idx.pop_back();
  }
  inst.resident_pos = data_instance::not_resident;
}

std::uint64_t mem_engine::clock(int device) const {
  if (static_cast<std::size_t>(device) >= dev_.size()) {
    return 0;
  }
  return dev_[static_cast<std::size_t>(device)].clock;
}

std::vector<mem_engine::resident_ref>* mem_engine::resident(int device) {
  if (static_cast<std::size_t>(device) >= dev_.size()) {
    return nullptr;
  }
  return &dev_[static_cast<std::size_t>(device)].resident;
}

namespace {

/// lru_class values; the list index is the class minus one.
constexpr std::uint8_t streaming_class = 1;
constexpr std::uint8_t hot_class = 2;

std::uint8_t use_class(const data_instance& inst, std::uint64_t threshold) {
  return threshold != 0 && inst.last_use - inst.prev_use > threshold
             ? streaming_class
             : hot_class;
}

}  // namespace

void mem_engine::order(device_mem& dm) {
  std::vector<data_instance*> by_use;
  by_use.reserve(dm.resident.size());
  for (const resident_ref& r : dm.resident) {
    by_use.push_back(r.inst);
  }
  std::sort(by_use.begin(), by_use.end(),
            [](const data_instance* a, const data_instance* b) {
              return a->last_use < b->last_use;
            });
  dm.lists[0] = {};
  dm.lists[1] = {};
  dm.ordered = true;
  dm.ordered_threshold = cfg.scan_threshold;
  for (data_instance* inst : by_use) {
    link(dm, *inst);  // ascending last_use: always appends at the tail
  }
}

void mem_engine::link(device_mem& dm, data_instance& inst) {
  inst.lru_class = use_class(inst, dm.ordered_threshold);
  lru_list& l = dm.lists[inst.lru_class - 1];
  // Insert after the last node whose last_use is not larger, walking from
  // the end nearer in last_use: an acquire's fresh last_use lands at the
  // tail, a staged peer's or a refill's stale one near the head.
  data_instance* after = l.tail;
  if (after != nullptr &&
      2 * inst.last_use < l.head->last_use + after->last_use) {
    data_instance* before = l.head;
    while (before->last_use <= inst.last_use) {
      before = before->lru_next;  // stops at the tail: it is larger
    }
    after = before->lru_prev;
  }
  while (after != nullptr && after->last_use > inst.last_use) {
    after = after->lru_prev;
  }
  inst.lru_prev = after;
  inst.lru_next = after != nullptr ? after->lru_next : l.head;
  (after != nullptr ? after->lru_next : l.head) = &inst;
  (inst.lru_next != nullptr ? inst.lru_next->lru_prev : l.tail) = &inst;
}

void mem_engine::unlink(device_mem& dm, data_instance& inst) {
  lru_list& l = dm.lists[inst.lru_class - 1];
  (inst.lru_prev != nullptr ? inst.lru_prev->lru_next : l.head) =
      inst.lru_next;
  (inst.lru_next != nullptr ? inst.lru_next->lru_prev : l.tail) =
      inst.lru_prev;
  inst.lru_prev = nullptr;
  inst.lru_next = nullptr;
  inst.lru_class = 0;
}

void mem_engine::relink(data_instance& inst) {
  device_mem& dm = dev_[static_cast<std::size_t>(inst.place.device_index())];
  unlink(dm, inst);
  link(dm, inst);
}

std::size_t mem_engine::cached_bytes(int device) const {
  if (static_cast<std::size_t>(device) >= dev_.size()) {
    return 0;
  }
  return dev_[static_cast<std::size_t>(device)].cached_bytes;
}

void* alloc_host_staging(context_state& st, std::size_t bytes) {
  void* p = ::operator new(bytes);
  st.backend->mutable_stats().host_staging_bytes += bytes;
  return p;
}

void release_device_instance(context_state& st, logical_data_impl& d,
                             data_instance& inst, bool recycle) {
  const int device = inst.place.device_index();
  event_list deps;
  deps.merge(inst.readers);
  deps.merge(inst.writer);
  st.mem.on_nonresident(device, inst);
  if (recycle && !st.plat->device_failed(device)) {
    st.mem.release_block(st, device, d.bytes(), inst.ptr, std::move(deps));
  } else {
    st.backend->free_device(device, inst.ptr, deps, st.dangling);
  }
  inst.allocated = false;
  inst.ptr = nullptr;
  inst.state = msi_state::invalid;
  inst.readers.clear();
  inst.writer.clear();
  reset_fill_tracking(inst);
}

bool sole_copy(const logical_data_impl& d, const data_instance& inst) {
  if (inst.state != msi_state::shared) {
    return inst.state == msi_state::modified;
  }
  for (const auto& other : d.instances()) {
    if (other.get() != &inst && other->state != msi_state::invalid) {
      return false;
    }
  }
  return true;
}

namespace {

bool evictable(const data_instance& inst) {
  return !inst.pinned && !inst.user_owned && inst.allocated;
}

// Scan resistance: streaming instances (reuse interval beyond the
// threshold) are evicted most-recent-first and always before hot ones.
// scan_base splits the key space so every streaming key sorts below every
// hot key; penalties still add on top.
constexpr std::uint64_t scan_base = std::uint64_t{1} << 40;

bool young(const mem_config& cfg, const data_instance& inst,
           std::uint64_t clock) {
  // Too young: its producers are still in flight (see scan_guard).
  return cfg.scan_guard != 0 && inst.last_use + cfg.scan_guard > clock;
}

/// The victim key: lowest is evicted first. The penalty-free part depends
/// only on the class and last_use; the sole-copy penalty is nonnegative.
/// `clock` is the use clock of the instance's device.
std::uint64_t victim_key(const mem_config& cfg, const logical_data_impl& d,
                         const data_instance& inst, std::uint64_t clock) {
  std::uint64_t key;
  if (use_class(inst, cfg.scan_threshold) == streaming_class) {
    key = scan_base - inst.last_use;
    if (young(cfg, inst, clock)) {
      key += scan_base / 2;
    }
  } else {
    key = inst.last_use + scan_base;
  }
  if (sole_copy(d, inst)) {
    key += cfg.dirty_penalty;
  }
  return key;
}

/// Walks part of one victim list in nondecreasing penalty-free key order:
/// base + last_use forward from `at`, or base - last_use backward.
struct victim_cursor {
  data_instance* at = nullptr;
  data_instance* end = nullptr;  ///< exclusive
  std::uint64_t base = 0;
  bool backward = false;

  bool done() const { return at == end; }
  std::uint64_t bound() const {
    return backward ? base - at->last_use : base + at->last_use;
  }
  data_instance& next() {
    data_instance& inst = *at;
    at = backward ? at->lru_prev : at->lru_next;
    return inst;
  }
};

/// Strictly better victim: lower key, ties to the lower index position.
bool better(std::uint64_t key, const data_instance& inst,
            std::uint64_t best_key, const data_instance* best) {
  return key < best_key || (best != nullptr && key == best_key &&
                            inst.resident_pos < best->resident_pos);
}

}  // namespace

mem_engine::victim_choice mem_engine::pick_victim(int device) {
  if (static_cast<std::size_t>(device) >= dev_.size()) {
    return {};
  }
  device_mem& dm = dev_[static_cast<std::size_t>(device)];
  if (!dm.ordered || dm.ordered_threshold != cfg.scan_threshold) {
    order(dm);
  }
  const lru_list& streaming = dm.lists[streaming_class - 1];
  const lru_list& hot = dm.lists[hot_class - 1];
  // Young streaming instances are a suffix of the streaming list.
  data_instance* old_end = streaming.tail;
  while (old_end != nullptr && young(cfg, *old_end, dm.clock)) {
    old_end = old_end->lru_prev;
  }
  victim_cursor cur[] = {
      {old_end, nullptr, scan_base, true},
      {hot.head, nullptr, scan_base, false},
      {streaming.tail, old_end, scan_base + scan_base / 2, true},
  };
  data_instance* best = nullptr;
  std::uint64_t best_key = std::numeric_limits<std::uint64_t>::max();
  for (;;) {
    victim_cursor* c = nullptr;
    for (victim_cursor& k : cur) {
      if (!k.done() && (c == nullptr || k.bound() < c->bound())) {
        c = &k;
      }
    }
    // Every unvisited key is >= the smallest bound; equal may still win
    // the tie on index position.
    if (c == nullptr || c->bound() > best_key) {
      break;
    }
    data_instance& inst = c->next();
    if (!evictable(inst)) {
      continue;
    }
    const std::uint64_t key =
        victim_key(cfg, *dm.resident[inst.resident_pos].data, inst, dm.clock);
    if (better(key, inst, best_key, best)) {
      best_key = key;
      best = &inst;
    }
  }
  if (best == nullptr) {
    return {};
  }
  // Pure-LRU reference: the least recent evictable instance near either
  // list's head.
  data_instance* lru = nullptr;
  for (const lru_list& l : dm.lists) {
    for (data_instance* p = l.head; p != nullptr; p = p->lru_next) {
      if (lru != nullptr && p->last_use > lru->last_use) {
        break;
      }
      if (evictable(*p) &&
          (lru == nullptr || better(p->last_use, *p, lru->last_use, lru))) {
        lru = p;
      }
    }
  }
  return {dm.resident[best->resident_pos], dm.resident[lru->resident_pos]};
}

bool context_state::evict_for(int device, std::size_t bytes_needed) {
  backend_stats& bs = backend->mutable_stats();
  const std::size_t batch = std::max<std::size_t>(1, mem.cfg.evict_batch);
  std::size_t evicted = 0;
  std::size_t freed = 0;
  while (evicted < batch || freed < bytes_needed) {
    const mem_engine::victim_choice choice = mem.pick_victim(device);
    if (choice.best.inst == nullptr) {
      break;
    }
    logical_data_impl& d = *choice.best.data;
    data_instance& victim = *choice.best.inst;
    if (choice.lru.inst != &victim && !sole_copy(d, victim) &&
        sole_copy(*choice.lru.data, *choice.lru.inst)) {
      ++bs.writebacks_avoided;  // pure LRU would have paid a write-back here
    }
    // Trust boundary (integrity engine, DESIGN.md §10): a sole-copy victim
    // is about to be persisted by its staging copy — never persist corrupt
    // bytes. A corrupt victim with a verified sharer is simply dropped
    // (repair); a sole corrupt copy escalates (the corruption_error
    // propagates to the submission engine through alloc_with_eviction).
    if (integ != nullptr && sole_copy(d, victim)) [[unlikely]] {
      if (!integ->verify_instance(*this, d, victim, "eviction_writeback") &&
          !integ->handle_corruption(*this, d, victim,
                                    "eviction_writeback")) {
        detail::throw_corruption(*this, d, device, "eviction_writeback");
      }
    }
    if (sole_copy(d, victim)) {
      // Only valid copy: stage it somewhere safe first. The planner
      // prefers a healthy peer device with pool headroom (one p2p hop);
      // otherwise fall back to the host round-trip.
      if (!stage_eviction_to_peer(*this, d, victim, device)) {
        data_instance& host = d.instance_at(data_place::host());
        if (!host.allocated) {
          host.ptr = alloc_host_staging(*this, d.bytes());
          host.allocated = true;
        }
        issue_copy(*this, d, victim, host);
        host.state = msi_state::modified;  // device copy is about to vanish
      }
    } else {
      ++bs.clean_drops;  // another valid copy exists: free to drop
    }
    freed += d.bytes();
    release_device_instance(*this, d, victim, /*recycle=*/true);
    ++bs.evictions;
    ++evicted;
  }
  return evicted > 0;
}

void* context_state::alloc_with_eviction(int device, std::size_t bytes,
                                         event_list& out) {
  if (plat->device_failed(device)) {
    // The pool of a failed device would hand out nullptr forever; report
    // the loss so the submission path re-routes instead of evicting.
    throw detail::device_lost_error(device);
  }
  if (void* p = mem.take_cached(*this, device, bytes, out)) {
    return p;
  }
  for (;;) {
    if (void* p = backend->alloc_device(device, bytes, out)) {
      return p;
    }
    if (plat->consume_injected_alloc_failure()) {
      // Injected cudaMallocAsync-style failure: not sticky, absorbed by
      // simply retrying the allocation (§5).
      ++report.alloc_retries;
      continue;
    }
    if (plat->device_failed(device)) {
      throw detail::device_lost_error(device);  // died mid-eviction loop
    }
    // Pool exhausted. First hand cached blocks (possibly of other size
    // classes) back to the platform; only then evict resident instances,
    // a batch at a time (§IV-B, Fig. 3). The evicted blocks land in the
    // cache, so the retry is usually a recycling hit.
    if (mem.trim_device(*this, device, bytes)) {
      continue;
    }
    if (!evict_for(device, bytes)) {
      const cudasim::device_state& dev = plat->device(device);
      throw oom_error(device, bytes, dev.pool_capacity() - dev.pool_used());
    }
    if (void* p = mem.take_cached(*this, device, bytes, out)) {
      return p;
    }
  }
}

context_state::~context_state() {
  // Cached blocks still hold platform pool space; hand them back so a
  // context torn down without finalize() leaks nothing.
  try {
    mem.trim_all(*this);
  } catch (...) {
    // Teardown must not throw; the platform reclaims on shutdown.
  }
}

}  // namespace cudastf
