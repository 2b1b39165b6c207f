// Shared state behind a context handle. Lives as long as any logical_data
// created from the context, so destruction-time cleanup always has a
// backend to talk to (§IV-D).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cudasim/cudasim.hpp"
#include "cudastf/backend.hpp"
#include "cudastf/checkpoint.hpp"
#include "cudastf/deadline.hpp"
#include "cudastf/error.hpp"
#include "cudastf/events.hpp"
#include "cudastf/integrity.hpp"
#include "cudastf/mem_engine.hpp"
#include "cudastf/transfer.hpp"

namespace cudastf {

class logical_data_impl;
class submit_observer;
class dot_exporter;

/// The context lock (DESIGN.md §11): recursive, and handoff-free. A waiter
/// backs off in user space, so unlock() is a release store that never
/// wakes anyone: the releasing thread may take the lock again at once, and
/// the submission pipeline's working set stays in one core's cache. Not
/// fair — a waiter may see the holder re-take the lock many times before
/// it gets a turn.
class context_lock {
 public:
  void lock() {
    const std::thread::id me = std::this_thread::get_id();
    if (owner_.load(std::memory_order_relaxed) == me) {
      ++depth_;
      return;
    }
    std::thread::id none;
    if (!owner_.compare_exchange_strong(none, me, std::memory_order_acquire,
                                        std::memory_order_relaxed))
        [[unlikely]] {
      wait(me);
    }
    depth_ = 1;
  }

  void unlock() {
    if (--depth_ == 0) {
      owner_.store(std::thread::id(), std::memory_order_release);
    }
  }

 private:
  /// Contended path: re-tests the owner word after runs of yields that
  /// double up to a fixed cap, then takes the lock with one CAS.
  void wait(std::thread::id me);

  std::atomic<std::thread::id> owner_{};
  static_assert(std::atomic<std::thread::id>::is_always_lock_free);
  unsigned depth_ = 0;  ///< touched by the owner only
};

struct context_state {
  context_state() = default;
  /// Trims cached device blocks back to the platform (mem_engine.hpp) so a
  /// context torn down without finalize() leaks no pool space.
  ~context_state();

  cudasim::platform* plat = nullptr;
  std::unique_ptr<backend_iface> backend;

  /// The context lock (DESIGN.md §11): every submission, from any thread,
  /// and every structural operation — fence, finalize, registration,
  /// destruction, engine configuration — runs under it, so multiple CPU
  /// threads may inject tasks concurrently (§VII-E). Recursive because
  /// structural operations nest (finalize -> restart -> replay -> task).
  context_lock mu;

  /// Deterministic-order mode (ctx.set_deterministic_order()): worker
  /// threads in parallel_submit() hand off through a ticket turnstile so
  /// submissions retire in item order — the replay log (DESIGN.md §7) and
  /// checksum identities (§10) then match a single-threaded run exactly.
  bool deterministic_order = false;

  /// Every live logical data, for the epoch-wide sweeps (write-back,
  /// blacklist evacuation, checkpoint, integrity). Weak: registration does
  /// not keep data alive; expired entries are swept every 256
  /// registrations, so the vector stays bounded without a fence.
  std::vector<std::weak_ptr<logical_data_impl>> registry;

  /// Completion events of asynchronous destructions (§IV-D); awaited at
  /// fence/finalize time.
  event_list dangling;

  /// When false, kernels submit with empty bodies: virtual-time benches at
  /// paper scale without paying host-side numerics.
  bool compute_payloads = true;

  /// Redundant events (duplicates, completed, dominated by a later
  /// same-stream event) pruned while building dependency lists on the
  /// acquire/release path (§IV).
  std::uint64_t events_pruned = 0;

  /// Task submissions the pipeline ran with no engine or observer armed
  /// (ctx.fast_path_submits()); tests assert that disarmed submission did
  /// not silently pick up engine work.
  std::uint64_t fast_submits = 0;

  /// Estimated accumulated work per device (seconds), maintained by the
  /// HEFT-style automatic placement policy (§IX extension).
  std::vector<double> heft_load;

  // --- memory engine (mem_engine.cpp, DESIGN.md §9) ---

  /// Caching suballocator and resident-instance victim index; configured
  /// via ctx.memory_options().
  mem_engine mem;

  /// Allocates a device instance buffer: recycles a cached block when one
  /// fits, else allocates from the platform, trimming the cache and then
  /// evicting batches of victims (lowest victim key first)
  /// under pool pressure. Appends allocation-completion events to `out`;
  /// throws oom_error (derives std::bad_alloc) if nothing can be evicted.
  void* alloc_with_eviction(int device, std::size_t bytes, event_list& out);

  /// One OOM round: evicts up to mem.cfg.evict_batch unpinned resident
  /// instances from `device` (more if needed to cover `bytes_needed`),
  /// staging sole-copy victims first. False when nothing was evictable.
  bool evict_for(int device, std::size_t bytes_needed);

  // --- transfer planner (transfer.cpp, DESIGN.md §6) ---

  /// Planner configuration; every mechanism individually toggleable
  /// (ctx.transfer_options()).
  transfer_config xfer;

  /// One record per planned transfer while xfer.trace is set.
  std::vector<transfer_record> xfer_trace;

  /// Outbound copies the planner has issued and not yet seen complete, one
  /// bucket per source (index = source device + 1; the host is 0), sized
  /// at the first copy. The routing score uses a bucket's size as that
  /// source's copy-engine occupancy (transfer.cpp, outstanding_from).
  struct outbound_bucket {
    std::vector<event_ptr> copies;  ///< last-segment completion events
    std::uint64_t pruned_at = 0;    ///< ops_completed() at the last prune
  };
  std::vector<outbound_bucket> xfer_outbound;

  void sweep_registry();

  // --- error model / fault recovery (DESIGN.md §5) ---

  /// Context-wide retry policy for transiently-failed submissions.
  retry_policy retry;

  /// Accumulated failures + recovery counters, returned by ctx.finalize().
  error_report report;

  /// Per-device blacklist flags (1 = permanently failed, do not submit).
  std::vector<std::uint8_t> blacklisted;

  /// Set once any failure has been recorded; together with an armed fault
  /// injector this routes submissions through the recovery slow path.
  bool recovery_active = false;

  /// True when submissions must take the fault-aware slow path. Fault-free
  /// runs with no injector keep the exact pre-existing fast path.
  bool fault_aware() const {
    return recovery_active || (plat != nullptr && plat->has_injector());
  }

  bool device_blacklisted(int device) const {
    return device >= 0 &&
           static_cast<std::size_t>(device) < blacklisted.size() &&
           blacklisted[static_cast<std::size_t>(device)] != 0;
  }

  /// Marks `device` permanently failed: evacuates modified sole copies to
  /// the host (device-to-host copies from a failed device stay allowed),
  /// frees its instances and poisons data whose only valid copy was lost.
  void blacklist_device(int device);

  /// Deterministically remaps a submission device onto a surviving device
  /// (survivors[device % n_survivors]); throws device_lost_error when no
  /// device survives.
  int reroute_device(int device);

  /// Records a failure (capped at error_report::max_recorded) and returns
  /// its id for downstream caused_by chains.
  std::uint64_t record_failure(failure_kind kind, std::string symbol,
                               int device, int attempts, std::string detail,
                               std::vector<std::uint64_t> caused_by = {});

  // --- checkpoint/restart (checkpoint.cpp, DESIGN.md §7) ---

  /// Non-null while checkpointing is enabled (ctx.enable_checkpointing()).
  /// Every submission-path hook gates on this single pointer, so the
  /// fault-free fast path pays one null check when disabled.
  std::unique_ptr<checkpoint_manager> ckpt;

  // --- hang recovery / overload control (deadline.cpp, DESIGN.md §12) ---

  /// Non-null once a deadline or an admission limit was armed
  /// (ctx.set_default_deadline(), ctx.limits(), task().deadline()). Like
  /// ckpt, every hook gates on this single pointer: a context that never
  /// arms hang recovery pays one null check per submission.
  std::unique_ptr<deadline_monitor> dl;

  /// Creates the monitor on first arming.
  deadline_monitor& ensure_dl();

  // --- integrity engine (integrity.cpp, DESIGN.md §10) ---

  /// Non-null once ctx.integrity_options() has been called. Like ckpt,
  /// every checksum/verify hook gates on this single pointer, so a
  /// disarmed context pays one null check per boundary.
  std::unique_ptr<integrity_engine> integ;

  // --- declared task ordering (DESIGN.md §7 watchdog) ---

  /// User-declared symbol-level ordering edges (before, after). Declared
  /// through ctx.order_after(), which rejects cycles up front — a cyclic
  /// declaration can never be satisfied and would otherwise surface as a
  /// DES hang.
  std::vector<std::pair<std::string, std::string>> order_edges;

  /// Completion events of the last task seen per constrained symbol.
  std::vector<std::pair<std::string, event_list>> order_done;

  /// Registers an edge "tasks with symbol `after` start after tasks with
  /// symbol `before`"; throws std::logic_error naming the offending
  /// symbols when the edge closes a cycle.
  void declare_order(std::string before, std::string after);

  /// Events a task with `symbol` must additionally wait for under the
  /// declared ordering (empty when unconstrained).
  event_list order_wait(std::string_view symbol) const;

  /// Records a finished task's completion events when its symbol is the
  /// predecessor of a declared edge.
  void order_record(std::string_view symbol, const event_list& done);

  // --- submission pipeline observers (submit.cpp, DESIGN.md §13) ---

  /// Registered pipeline observers (ctx.observe()). Op records are built
  /// and emitted under `mu`.
  std::vector<submit_observer*> observers;

  /// The context-owned DOT exporter, when enabled via ctx.enable_dot() or
  /// the CUDASTF_DOT_FILE environment variable. Incomplete type here; the
  /// destructor lives in context.cpp where dot_exporter is complete.
  std::unique_ptr<dot_exporter> dot;

  /// Monotonic op id for pipeline records (incremented under `mu`).
  std::uint64_t next_op_id = 1;
};

}  // namespace cudastf
