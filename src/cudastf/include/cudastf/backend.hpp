// Context backends (§III-A). Both backends implement the same abstract
// interface in terms of abstract events: the stream backend lowers every
// operation to simulated CUDA streams/events, the graph backend records the
// same operations as CUDA graph nodes and launches whole epochs at once,
// memoizing executable graphs across epochs (§III-B).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cudasim/cudasim.hpp"
#include "cudastf/error.hpp"
#include "cudastf/events.hpp"

namespace cudastf {

/// Stream-pool configuration (§VII-C ablation).
enum class stream_pool_mode : std::uint8_t {
  pooled,       ///< default: several compute streams + dedicated copy streams
  two_streams,  ///< one compute stream + one copy stream per device
  single,       ///< one stream for everything on each device
};

/// Counters exposed for tests and the memoization experiments.
struct backend_stats {
  std::uint64_t tasks = 0;
  std::uint64_t graph_instantiations = 0;
  std::uint64_t graph_updates = 0;
  std::uint64_t graph_launches = 0;
  std::uint64_t epochs = 0;
  std::uint64_t evictions = 0;  // maintained by the context allocator
  /// Dependency events that reached the backend and had to be wired
  /// (stream waits / graph edges). Pruned events never show up here.
  std::uint64_t deps_wired = 0;

  // --- transfer planner (DESIGN.md §6) ---
  /// Fill requests that joined a copy already in flight for the same
  /// (data, place, contents) instead of issuing a duplicate.
  std::uint64_t copies_coalesced = 0;
  /// Copies sourced from an instance whose own fill was still in flight —
  /// the edges of a broadcast tree beyond the root.
  std::uint64_t broadcast_fanout = 0;
  /// Chunk segments issued for transfers split above chunk_bytes (counted
  /// only when a transfer was actually split).
  std::uint64_t chunks_issued = 0;
  /// Payload bytes moved across peer (NVLink-like) links.
  std::uint64_t p2p_bytes = 0;
  /// Payload bytes moved across the host (PCIe-like) link.
  std::uint64_t host_link_bytes = 0;

  // --- memory engine (DESIGN.md §9) ---
  /// Device allocations served by recycling a cached freed block instead
  /// of a platform malloc/free round-trip.
  std::uint64_t alloc_cache_hits = 0;
  /// Bytes of those recycled blocks.
  std::uint64_t alloc_cache_bytes_reused = 0;
  /// Eviction victims dropped without any staging copy (another valid
  /// replica existed).
  std::uint64_t clean_drops = 0;
  /// OOM rounds where the victim key picked a clean victim while pure LRU
  /// would have evicted a sole copy (and paid the write-back).
  std::uint64_t writebacks_avoided = 0;
  /// Always 0: the memory engine has no prefetch-back. Kept because
  /// perfbench reports it as mem.prefetch_refills.
  std::uint64_t prefetch_refills = 0;
  /// Times the cache handed blocks back to the platform (OOM pressure or
  /// an epoch-end trim).
  std::uint64_t pool_trims = 0;
  /// Host staging bytes allocated for eviction staging, blacklist
  /// evacuation and checkpoint restore (out-of-core pressure gauge).
  std::uint64_t host_staging_bytes = 0;

  // --- checkpoint/restart (DESIGN.md §7) ---
  /// Committed epoch checkpoints (aborted attempts are not counted).
  std::uint64_t checkpoints_taken = 0;
  /// Payload bytes snapshotted to host staging buffers (dirty data only).
  std::uint64_t checkpoint_bytes = 0;
  /// Epoch rollbacks performed after a permanent failure escalated past
  /// retry + blacklist.
  std::uint64_t rollbacks = 0;
  /// Tasks re-executed from the submission log during epoch restarts.
  std::uint64_t tasks_replayed = 0;
  /// Whole-epoch graph launches that were refused by a transient fault and
  /// relaunched in place (a refused launch enqueues none of its nodes).
  std::uint64_t graph_launch_retries = 0;

  // --- integrity engine (DESIGN.md §10) ---
  /// Content checksums computed at write-release (one per writing task).
  std::uint64_t checksums_computed = 0;
  /// Instance verifications performed at trust boundaries.
  std::uint64_t checksums_verified = 0;
  /// Verifications that caught corrupted bytes.
  std::uint64_t checksum_mismatches = 0;
  /// Corrupt replicas invalidated and re-sourced from a valid MSI sharer.
  std::uint64_t replicas_repaired = 0;
  /// Background scrubber sweeps over resident instances.
  std::uint64_t scrub_passes = 0;
  /// Dual-execution verification reruns (task_config::verified()).
  std::uint64_t verified_reexecutions = 0;

  // --- hang recovery / overload control (DESIGN.md §12) ---
  /// Tasks submitted with a finite deadline armed.
  std::uint64_t deadlines_armed = 0;
  /// Deadline expiries that found an actual wedged (stalled) operation.
  std::uint64_t hangs_detected = 0;
  /// DES operations cooperatively cancelled out of a wedged engine.
  std::uint64_t ops_cancelled = 0;
  /// Devices blacklisted because repeated hangs crossed quarantine_after.
  std::uint64_t quarantines = 0;
  /// Submissions that blocked at least once on the admission window.
  std::uint64_t submits_throttled = 0;
  /// try_task() submissions shed with overload_error at a full window.
  std::uint64_t tasks_shed = 0;
};

/// Outcome of one run() submission (DESIGN.md §5). The platform never
/// throws for injected/device faults; it refuses the submission and sticks a
/// status on the stream. run() harvests (and clears) that status here.
struct run_result {
  cudasim::sim_status status = cudasim::sim_status::success;
  /// True when the payload enqueued real work before the fault hit, i.e. a
  /// prefix of a multi-op payload executed. Such a submission must not be
  /// retried (the prefix would run twice); only clean refusals are retried.
  bool partial = false;
};

/// The abstract asynchronous substrate the STF core is written against.
/// Every operation takes a list of input events and returns the event that
/// signals its completion (§IV-B).
class backend_iface {
 public:
  enum class channel : std::uint8_t { compute, transfer, host };

  virtual ~backend_iface() = default;

  virtual cudasim::platform& plat() = 0;

  /// Schedules `payload` after `deps`. The payload receives a stream bound
  /// to `device` (ignored for the host channel) and submits asynchronous
  /// work to it; it must not block. Returns the completion event.
  /// When `rr` is non-null the submission stream's sticky fault status is
  /// harvested into it (and cleared from the stream, since pooled streams
  /// are reused across unrelated tasks); with rr == nullptr a fault status
  /// is still cleared but otherwise ignored, preserving the fault-free
  /// fast path.
  virtual event run(int device, channel ch, const event_list& deps,
                    const std::function<void(cudasim::stream&)>& payload,
                    std::string_view name, run_result* rr = nullptr) = 0;

  /// Stream-ordered device allocation. Returns nullptr when the device pool
  /// is exhausted (the caller reacts, e.g. by evicting). On success appends
  /// the allocation's completion event to `out`.
  virtual void* alloc_device(int device, std::size_t bytes, event_list& out) = 0;

  /// Asynchronously frees `p` once `deps` completed; appends the completion
  /// of the free to `dangling` (§IV-D).
  virtual void free_device(int device, void* p, const event_list& deps,
                           event_list& dangling) = 0;

  /// Host-blocking wait on a list of abstract events.
  virtual void wait(const event_list& l) = 0;

  /// Non-blocking epoch boundary (ctx.fence()). The graph backend closes
  /// the current graph, reuses or instantiates an executable and launches
  /// it; the stream backend has nothing to flush.
  virtual void fence() = 0;

  /// Blocks until every operation ever submitted has completed.
  virtual void wait_idle() = 0;

  /// Propagates the context's retry policy (ctx.set_retry_policy()); the
  /// graph backend applies it to refused epoch relaunches. Default: ignore.
  virtual void set_retry_policy(const retry_policy&) {}

  /// Counter snapshot. Every counter increments under the context lock;
  /// read while quiescent (tests read stats after joining workers).
  const backend_stats& stats() const { return stats_; }
  backend_stats& mutable_stats() { return stats_; }

 protected:
  backend_stats stats_;
};

/// CUDA-stream backend: per-device pools of compute streams and copy
/// streams; dependencies lowered to simulated CUDA events; no host-side
/// synchronization anywhere on the submission path (§IV-A).
class stream_backend final : public backend_iface {
 public:
  explicit stream_backend(cudasim::platform& p,
                          stream_pool_mode mode = stream_pool_mode::pooled,
                          int pool_size = 4);

  cudasim::platform& plat() override { return *plat_; }
  event run(int device, channel ch, const event_list& deps,
            const std::function<void(cudasim::stream&)>& payload,
            std::string_view name, run_result* rr = nullptr) override;
  void* alloc_device(int device, std::size_t bytes, event_list& out) override;
  void free_device(int device, void* p, const event_list& deps,
                   event_list& dangling) override;
  void wait(const event_list& l) override;
  void fence() override {}
  void wait_idle() override;

 private:
  struct per_device {
    std::vector<std::unique_ptr<cudasim::stream>> compute;
    std::vector<std::unique_ptr<cudasim::stream>> copy;
    std::unique_ptr<cudasim::stream> alloc;
    std::size_t next_compute = 0;
    std::size_t next_copy = 0;
  };

  /// Round-robin over the device's pool for `ch` (the host stream for the
  /// host channel).
  cudasim::stream& pick(int device, channel ch);

  cudasim::platform* plat_;
  std::vector<per_device> dev_;
  std::unique_ptr<cudasim::stream> host_stream_;
};

/// Records the current tail of `s` as an abstract event.
inline event record_event(cudasim::stream& s) {
  cudasim::event e;
  e.record(s);
  return event(e);
}

/// CUDA-graph backend: operations of one epoch are recorded as graph nodes;
/// ctx.fence() ends the epoch, looks up a cache of executable graphs by
/// task summary, updates an existing executable when the topology matches
/// (cheap) or instantiates a new one (expensive), then launches it.
class graph_backend final : public backend_iface {
 public:
  explicit graph_backend(cudasim::platform& p);

  cudasim::platform& plat() override { return *plat_; }
  event run(int device, channel ch, const event_list& deps,
            const std::function<void(cudasim::stream&)>& payload,
            std::string_view name, run_result* rr = nullptr) override;
  void* alloc_device(int device, std::size_t bytes, event_list& out) override;
  void free_device(int device, void* p, const event_list& deps,
                   event_list& dangling) override;
  void wait(const event_list& l) override;
  void fence() override;
  void wait_idle() override;

  void set_retry_policy(const retry_policy& p) override { retry_ = p; }

 private:
  /// One pass over a dependency list: whether it mentions graph nodes at
  /// all, and whether any belongs to the epoch still under construction
  /// (shared by free_device and wait — only a current-epoch dep forces a
  /// flush; flushed epochs are already ordered by the serialized epoch
  /// stream, and an empty current epoch can never hold a dep).
  struct graph_dep_scan {
    bool any = false;      ///< some dep is a graph-node event
    bool current = false;  ///< ... of the epoch under construction
  };
  graph_dep_scan scan_graph_deps(const event_list& deps) const;

  void ensure_epoch();
  /// Closes the current epoch graph (if any) and launches it.
  void flush();
  /// Cold path for a refused epoch launch: retries transient refusals and
  /// surfaces permanent ones (a silent drop would corrupt user data).
  void launch_refused(cudasim::graph_exec& exec);

  cudasim::platform* plat_;
  std::unique_ptr<cudasim::stream> epoch_stream_;  ///< serializes epoch launches
  std::vector<std::unique_ptr<cudasim::stream>> capture_;  ///< one per device
  std::unique_ptr<cudasim::stream> host_capture_;          ///< host-channel capture
  std::vector<std::unique_ptr<cudasim::stream>> alloc_;    ///< real alloc streams

  /// The one capture graph, rebuilt every epoch and cleared after it.
  cudasim::graph graph_;
  bool open_ = false;         ///< an epoch is under construction in graph_
  /// Serial of the next graph event, and the first serial of the epoch
  /// under construction: graph events at or above it belong to that epoch.
  std::uint64_t next_serial_ = 1;
  std::uint64_t epoch_first_ = 1;
  std::uint64_t summary_ = 1469598103934665603ull;  ///< FNV accumulator
  event_list external_deps_;  ///< real-stream events the epoch launch waits on
  /// run()'s current-epoch dependency nodes (scratch; every call arrives
  /// under the context lock).
  std::vector<cudasim::graph_node> dep_nodes_;
  /// Memoization cache: summary hash -> executables with that summary.
  std::unordered_map<std::uint64_t,
                     std::vector<std::unique_ptr<cudasim::graph_exec>>>
      cache_;
  retry_policy retry_;  ///< governs refused-epoch relaunch attempts/backoff
  event last_epoch_done_;  ///< epoch stream tail of the last flush
};

}  // namespace cudastf
