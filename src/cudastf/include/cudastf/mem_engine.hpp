// Out-of-core memory engine (DESIGN.md §9).
//
// Three mechanisms make the eviction regime fast without touching the
// fault/checkpoint ladders: (1) a per-device size-class caching
// suballocator in front of backend->alloc_device — binned free lists that
// recycle evicted blocks without a platform malloc/free round-trip, each
// block carrying the precise completion events of its previous life
// instead of serializing on the shared alloc stream; (2) a per-device
// resident-instance index with lookahead-aware victim scoring (droppable
// before sole copies, idle before pending, and replay-log future uses when
// checkpointing is armed); (3) batched eviction plus prefetch-back of
// evicted instances through the transfer engine so re-fills overlap
// compute instead of stalling acquire.
//
// Each device keeps its own use clock, ticked by acquires of that device's
// instances and by prefetch-back refills into it; last_use and prev_use of
// a device instance are readings of its device's clock, so the reuse
// interval and the scan_guard window count that device's accesses only,
// whatever the device count.
//
// Victim selection walks the index in key order instead of scanning it.
// Each device keeps two intrusive lists of its resident instances, ordered
// by last_use: the streaming class (reuse interval above scan_threshold)
// and the hot class. A victim key is a penalty-free part fixed by the
// class and last_use, plus nonnegative penalties, so three cursors — old
// streaming by descending last_use from the scan_guard boundary, hot by
// ascending last_use, young streaming by descending last_use from the tail
// — yield instances in nondecreasing lower-bound order. The walk computes
// each visited instance's full key and stops once the next lower bound
// exceeds the best key found; key ties go to the lower resident-index
// position, so the victim is the one a full scan of the index would pick.
// The lists are built at a device's first eviction (devices that never
// evict pay one branch per acquire) and rebuilt when scan_threshold
// changes.
//
// Cached blocks still count against the device pool, so the engine trims
// itself back to the platform under OOM pressure and at epoch boundaries
// (ctx.fence()/finalize()) — genuine exhaustion still surfaces as
// oom_error exactly like the pre-engine allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cudastf/data.hpp"
#include "cudastf/events.hpp"

namespace cudastf {

struct context_state;

/// Memory-engine configuration, per context (ctx.memory_options()). Every
/// mechanism is independently toggleable; with all three off the allocator
/// is behaviorally identical to the pre-engine code (the resident index
/// picks the same LRU victims a full-registry scan would).
struct mem_config {
  /// (1) Caching suballocator: freed device blocks are parked in binned
  /// free lists and recycled without a platform round-trip.
  bool cache = true;
  /// (2) Lookahead-aware victim selection: prefer clean instances (free to
  /// drop, no write-back) and instances without pending uses over pure LRU.
  bool lookahead = true;
  /// (3) Prefetch-back: evicted instances are re-filled through the
  /// transfer engine when capacity reappears, overlapping compute.
  bool prefetch = true;
  /// Victims evicted per OOM round; >1 leaves recycled blocks ready for
  /// the allocations that follow.
  std::size_t evict_batch = 2;
  /// Victim-score penalty (use-clock ticks) for a sole copy — a modified
  /// instance, or the only valid one — whose eviction costs a write-back.
  std::uint64_t dirty_penalty = 256;
  /// Penalty for an instance with uncompleted reader/writer events — its
  /// recycled block would stall the next consumer on those events.
  std::uint64_t pending_penalty = 64;
  /// Scan resistance (LRU-2 flavored): an instance whose reuse interval
  /// (last_use - prev_use, in acquire ticks of the instance's device)
  /// exceeds this is classed as streaming — touched once per sweep of a
  /// working set too big to cache — and streaming victims are evicted
  /// most-recent-first, which keeps a stable resident prefix under a
  /// cyclic sweep instead of LRU's every-access-misses thrash.
  /// Short-interval (hot) instances are only evicted when no streaming
  /// victim exists. 0 disables (pure LRU base).
  std::uint64_t scan_threshold = 768;
  /// Young guard on the streaming class: a victim acquired within the last
  /// scan_guard acquire ticks of its device has its producing kernels
  /// still in flight, so its write-back — and the allocation recycling its
  /// block — would chain behind the newest compute. Such victims are
  /// deferred behind older streaming ones, trading a few extra misses for
  /// a shallow dependency pipeline. 0 disables the guard.
  std::uint64_t scan_guard = 192;
  /// Penalty for data a not-yet-replayed submission-log entry touches
  /// (only meaningful during a checkpoint epoch replay, when the log *is*
  /// the future).
  std::uint64_t future_penalty = 1024;
  /// Prefetch-back fills issued per allocator visit.
  std::size_t prefetch_max_inflight = 2;
  /// Bound on remembered eviction victims awaiting prefetch-back.
  std::size_t prefetch_queue_cap = 512;
};

/// Rounds `bytes` up to its allocation size class: 3 significant mantissa
/// bits (jemalloc-style ≤12.5% spacing), 256-byte floor. Blocks are binned
/// under the class of their actual size, so recycling a block never wastes
/// more than one class step.
std::size_t mem_size_class(std::size_t bytes);

/// Per-context engine state. All entry points run under the context
/// submission lock.
class mem_engine {
 public:
  mem_config cfg;

  /// One entry of a per-device resident-instance index: an allocated,
  /// evictable-in-principle device instance and its owning logical data.
  struct resident_ref {
    logical_data_impl* data = nullptr;
    data_instance* inst = nullptr;
  };

  // --- caching suballocator ---

  /// Serves an allocation from the device's free lists; nullptr on miss.
  /// On a hit the block's carried events (previous readers/writer and
  /// staging copies) are appended to `out` — the precise per-block
  /// dependencies that replace alloc-stream ordering.
  void* take_cached(context_state& st, int device, std::size_t bytes,
                    event_list& out);

  /// Parks a freed block (with its outstanding events) for recycling.
  void release_block(context_state& st, int device, std::size_t bytes,
                     void* p, event_list deps);

  /// Returns cached blocks on `device` to the platform (asynchronous
  /// stream-ordered frees) until at least `want` bytes were handed back or
  /// the cache is empty. True when any block was freed.
  bool trim_device(context_state& st, int device, std::size_t want);

  /// Epoch-end trim: every device, everything.
  void trim_all(context_state& st);

  // --- resident-instance index ---

  void on_resident(int device, logical_data_impl& d, data_instance& inst);
  void on_nonresident(int device, data_instance& inst);

  /// Ticks the device's use clock and returns the new reading.
  std::uint64_t tick(int device) { return ++dev(device).clock; }

  /// The device's use clock: 0 until its first tick.
  std::uint64_t clock(int device) const;

  /// Must follow every change of a device instance's last_use or
  /// prev_use: moves it to its place in the victim lists.
  void on_use(data_instance& inst) {
    if (inst.lru_class != 0) {
      relink(inst);
    }
  }

  /// The device's resident instances; nullptr when none were ever tracked.
  std::vector<resident_ref>* resident(int device);

  /// One eviction round's choice among the device's unpinned, allocated,
  /// not user-owned resident instances: `best` has the lowest victim key
  /// and `lru` the lowest last_use (the pure-LRU reference behind
  /// writebacks_avoided); both break ties by the lower resident-index
  /// position. Empty when nothing is evictable.
  struct victim_choice {
    resident_ref best;
    resident_ref lru;
  };
  victim_choice pick_victim(const context_state& st, int device);

  // --- prefetch-back ---

  /// Remembers an eviction victim as a prefetch-back candidate.
  void note_eviction(logical_data_impl& d, int device);

  /// Opportunistically re-fills remembered victims (FIFO — under a cyclic
  /// working-set sweep the oldest eviction is needed soonest) when a cached
  /// block or real pool headroom can back them without evicting anything.
  /// The later demand acquire coalesces onto the in-flight fill.
  void pump_prefetch(context_state& st, int device);

  /// Bytes currently parked in the device's free lists (they still count
  /// against the pool until trimmed).
  std::size_t cached_bytes(int device) const;

 private:
  struct cached_block {
    void* ptr = nullptr;
    std::size_t bytes = 0;
    event_list deps;
  };
  /// Resident instances of one class, ascending last_use from head.
  struct lru_list {
    data_instance* head = nullptr;
    data_instance* tail = nullptr;
  };
  struct device_mem {
    std::unordered_map<std::size_t, std::vector<cached_block>> bins;
    std::size_t cached_bytes = 0;
    std::vector<resident_ref> resident;
    /// The device's use clock (see the header comment).
    std::uint64_t clock = 0;
    /// Victim lists, indexed by lru_class - 1 (streaming, hot); valid once
    /// `ordered`, for the scan_threshold they were classified under.
    lru_list lists[2];
    bool ordered = false;
    std::uint64_t ordered_threshold = 0;
  };
  struct prefetch_entry {
    std::weak_ptr<logical_data_impl> data;
    int device = -1;
  };

  device_mem& dev(int device);

  /// (Re)builds the device's victim lists from its resident index.
  void order(device_mem& dm);
  /// Inserts `inst` into its class list at its last_use position.
  void link(device_mem& dm, data_instance& inst);
  static void unlink(device_mem& dm, data_instance& inst);
  void relink(data_instance& inst);

  // deque, not vector: growing for a new device (e.g. peer staging inside
  // an eviction) must not move other devices' entries.
  std::deque<device_mem> dev_;
  std::deque<prefetch_entry> prefetch_q_;
  bool pumping_ = false;
};

/// Counted host staging allocation (eviction staging, blacklist
/// evacuation, checkpoint restore): plain host memory, but the bytes show
/// up in stats().host_staging_bytes so out-of-core pressure is visible.
void* alloc_host_staging(context_state& st, std::size_t bytes);

/// Frees a device instance's backing through the engine: removes it from
/// the resident index, carries its readers/writer as the block's
/// dependencies, and either parks the block for recycling (`recycle`, with
/// the cache enabled and the device healthy) or issues the asynchronous
/// platform free. Leaves the instance invalid and unallocated.
void release_device_instance(context_state& st, logical_data_impl& d,
                             data_instance& inst, bool recycle);

/// Dropping `inst` would lose the data's contents: it is modified, or it
/// is valid and no other instance is. After a peer read the producer's
/// copy is shared and the host copy invalid, so two shared replicas can be
/// all that is left; the last of them must be staged (eviction) or
/// evacuated (blacklisting), not dropped.
bool sole_copy(const logical_data_impl& d, const data_instance& inst);

}  // namespace cudastf
