// The context (§II): entry point for API calls and state container.
// A default-constructed context uses the CUDA-stream backend; a context
// created with context::graph() lowers everything to CUDA graphs (§III).
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cudasim/cudasim.hpp"
#include "cudastf/backend.hpp"
#include "cudastf/context_state.hpp"
#include "cudastf/launch.hpp"
#include "cudastf/logical_data.hpp"
#include "cudastf/parallel_for.hpp"
#include "cudastf/task.hpp"

namespace cudastf {

class context {
 public:
  /// Stream backend on the process-default platform.
  context() : context(cudasim::default_platform()) {}

  /// Stream backend on an explicit platform, with stream-pool control
  /// (§VII-C ablation).
  explicit context(cudasim::platform& p,
                   stream_pool_mode mode = stream_pool_mode::pooled,
                   int pool_size = 4)
      : st_(std::make_shared<context_state>()) {
    st_->plat = &p;
    st_->backend = std::make_unique<stream_backend>(p, mode, pool_size);
    detail::arm_env_dot(*st_);  // CUDASTF_DOT_FILE (DESIGN.md §13)
  }

  /// Graph backend (§III-A): same task interface, all operations lowered to
  /// CUDA graphs, with epoch memoization via ctx.fence().
  static context graph() { return graph(cudasim::default_platform()); }
  static context graph(cudasim::platform& p) {
    context c(p);
    c.st_->backend = std::make_unique<graph_backend>(p);
    return c;
  }

  // --- logical data factories (§II-A) ---

  /// Tracks a C-array living in host memory (write-back on finalize).
  template <class E, std::size_t N>
  cudastf::logical_data<slice<E>> logical_data(E (&arr)[N], std::string name = "data") {
    return from_ptr<E, 1>(arr, {N}, std::move(name));
  }

  /// Tracks `n` contiguous elements at `p` in host memory.
  template <class E>
  cudastf::logical_data<slice<E>> logical_data(E* p, std::size_t n,
                                               std::string name = "data") {
    return from_ptr<E, 1>(p, {n}, std::move(name));
  }

  /// Tracks a dense row-major matrix in host memory.
  template <class E>
  cudastf::logical_data<slice<E, 2>> logical_data(E* p, std::size_t rows,
                                                  std::size_t cols,
                                                  std::string name = "data") {
    return from_ptr<E, 2>(p, {rows, cols}, std::move(name));
  }

  /// Tracks the memory viewed by an existing slice.
  template <class E, int R>
  cudastf::logical_data<slice<E, R>> logical_data(const slice<E, R>& view,
                                                  std::string name = "data") {
    std::vector<std::size_t> ext(view.extents().begin(), view.extents().end());
    return cudastf::logical_data<slice<E, R>>(register_impl(
        std::move(ext), sizeof(E), const_cast<std::remove_const_t<E>*>(
                                       view.data_handle()),
        std::move(name)));
  }

  /// Creates logical data from a shape only — no host backing; the runtime
  /// allocates instances on demand (temporary data, §IV-D).
  template <class E, int R>
  cudastf::logical_data<slice<E, R>> logical_data(const box<R>& shape,
                                                  std::string name = "tmp") {
    std::vector<std::size_t> ext(shape.extents().begin(), shape.extents().end());
    return cudastf::logical_data<slice<E, R>>(
        register_impl(std::move(ext), sizeof(E), nullptr, std::move(name)));
  }

  // --- task constructs ---

  template <class... Deps>
  task_builder<Deps...> task(Deps... deps) {
    return task_builder<Deps...>(st_, exec_place::current_device(),
                                 std::move(deps)...);
  }
  template <class... Deps>
  task_builder<Deps...> task(exec_place where, Deps... deps) {
    return task_builder<Deps...>(st_, std::move(where), std::move(deps)...);
  }

  /// Like task(), but a full admission window sheds the submission with a
  /// typed overload_error instead of blocking (hang recovery / overload
  /// control, DESIGN.md §12). Identical to task() while no limits are
  /// armed.
  template <class... Deps>
  task_builder<Deps...> try_task(Deps... deps) {
    return task_builder<Deps...>(st_, exec_place::current_device(),
                                 std::move(deps)...)
        .shed_on_overload();
  }

  template <class... Deps>
  host_launch_builder<Deps...> host_launch(Deps... deps) {
    return host_launch_builder<Deps...>(st_, std::move(deps)...);
  }

  template <int R, class... Deps>
  parallel_for_builder<R, Deps...> parallel_for(box<R> shape, Deps... deps) {
    return parallel_for_builder<R, Deps...>(
        st_, exec_place::current_device(), shape, std::move(deps)...);
  }
  template <int R, class... Deps>
  parallel_for_builder<R, Deps...> parallel_for(exec_place where, box<R> shape,
                                                Deps... deps) {
    return parallel_for_builder<R, Deps...>(st_, std::move(where), shape,
                                            std::move(deps)...);
  }

  template <class... Deps>
  launch_builder<Deps...> launch(hierarchy_spec spec, exec_place where,
                                 Deps... deps) {
    return launch_builder<Deps...>(st_, spec, std::move(where),
                                   std::move(deps)...);
  }

  // --- parallel host-side submission (§VII-E, DESIGN.md §11) ---

  /// Runs `fn(item)` for every item in [0, n_items) from `n_threads` host
  /// threads (item i handled by thread i % n_threads). Every STF call takes
  /// the context lock, so any of them is safe from the workers; the
  /// simulator and the pipeline run one submission at a time. The lock
  /// hands nothing off: a worker keeps submitting while the others back
  /// off, so items retire in runs per worker rather than interleaved.
  ///
  /// Under set_deterministic_order(true), workers hand off through a ticket
  /// turnstile so submissions retire in exact item order — the resulting
  /// schedule, replay log (§7) and checksum identities (§10) are
  /// bit-identical to a single-threaded loop over the same items.
  ///
  /// The first worker exception stops the remaining items and is rethrown
  /// after all workers have joined. Not reentrant: do not call
  /// parallel_submit from inside a worker.
  template <class Fn>
  void parallel_submit(int n_threads, std::size_t n_items, Fn&& fn) {
    if (n_threads <= 1 || n_items <= 1) {
      for (std::size_t i = 0; i < n_items; ++i) {
        fn(i);
      }
      return;
    }
    const bool det = st_->deterministic_order;
    std::atomic<std::size_t> turn{0};
    std::atomic<bool> stop{false};
    std::exception_ptr first_error;
    std::mutex err_mu;
    auto worker = [&](int tid) {
      for (std::size_t i = static_cast<std::size_t>(tid); i < n_items;
           i += static_cast<std::size_t>(n_threads)) {
        if (det) {
          // Ticket turnstile: wait for our item's turn, submit, pass the
          // baton. Retirement order is then the item order by construction.
          while (turn.load(std::memory_order_acquire) != i) {
            if (stop.load(std::memory_order_relaxed)) {
              return;
            }
            std::this_thread::yield();
          }
        }
        if (stop.load(std::memory_order_relaxed)) {
          if (det) {
            turn.store(i + 1, std::memory_order_release);
          }
          return;
        }
        try {
          fn(i);
        } catch (...) {
          {
            std::lock_guard el(err_mu);
            if (!first_error) {
              first_error = std::current_exception();
            }
          }
          stop.store(true, std::memory_order_relaxed);
          if (det) {
            turn.store(i + 1, std::memory_order_release);
          }
          return;
        }
        if (det) {
          turn.store(i + 1, std::memory_order_release);
        }
      }
    };
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(n_threads));
    for (int t = 0; t < n_threads; ++t) {
      workers.emplace_back(worker, t);
    }
    for (std::thread& th : workers) {
      th.join();
    }
    if (first_error) {
      std::rethrow_exception(first_error);
    }
  }

  /// Convenience overload: one item per thread, `fn(tid)`.
  template <class Fn>
  void parallel_submit(int n_threads, Fn&& fn) {
    parallel_submit(n_threads, static_cast<std::size_t>(n_threads),
                    [&fn](std::size_t i) { fn(static_cast<int>(i)); });
  }

  /// Canonicalizes multi-threaded submission order (see parallel_submit).
  /// Set while quiescent — not from inside a worker.
  void set_deterministic_order(bool on) { st_->deterministic_order = on; }
  bool deterministic_order() const { return st_->deterministic_order; }

  // --- synchronization ---

  /// Non-blocking epoch boundary (§III-B): the graph backend closes and
  /// launches the epoch's graph, reusing memoized executables. Also trims
  /// the memory engine's cached blocks back to the platform (DESIGN.md §9)
  /// so pool accounting is exact across epochs.
  void fence() {
    std::lock_guard lock(st_->mu);
    st_->mem.trim_all(*st_);
    try {
      st_->backend->fence();
    } catch (...) {
      // A permanently refused epoch launch (graph backend) escalates to an
      // epoch restart when a checkpoint is armed; without one the refusal
      // propagates — the epoch's work is unrecoverably lost (DESIGN.md §7).
      if (!detail::try_epoch_restart(*st_, nullptr, 0)) {
        throw;
      }
    }
    if (st_->dl != nullptr) [[unlikely]] {
      // Drain deadline (DESIGN.md §12): resolve every tracked submission —
      // cancelling, retrying, quarantining or restarting wedged ones —
      // instead of leaving hangs for a blocking wait to wedge on.
      st_->dl->settle(false);
    }
  }

  /// Waits for all pending operations — tasks, transfers, destructions —
  /// and writes every host-backed logical data back to its original
  /// location (§II-B). Returns the context's structured error report
  /// (DESIGN.md §5): report.ok() on a fault-free run; otherwise the
  /// recorded failures with their cause chains and recovery counters.
  /// Poisoned logical data is never written back.
  error_report finalize();

  // --- error model (DESIGN.md §5) ---

  /// Retry policy for transiently-failed submissions (attempts, exponential
  /// virtual-time backoff). Also governs the graph backend's epoch-launch
  /// relaunch loop.
  void set_retry_policy(const retry_policy& p) {
    std::lock_guard lock(st_->mu);
    st_->retry = p;
    st_->backend->set_retry_policy(p);
  }

  /// The failures and recovery counters accumulated so far.
  const error_report& report() const { return st_->report; }

  /// Marks a device as permanently failed: modified sole copies are
  /// evacuated to the host while device-to-host copies are still allowed,
  /// then future work is re-routed to the surviving devices.
  void blacklist_device(int device) {
    std::lock_guard lock(st_->mu);
    st_->blacklist_device(device);
  }

  // --- hang recovery & overload control (DESIGN.md §12) ---

  /// Arms a context-wide default deadline (virtual seconds; 0 disarms the
  /// default but keeps the monitor): any submission without its own
  /// .deadline() inherits it. On expiry the monitor cancels the wedged DES
  /// operation and escalates through the existing ladder (retry in place
  /// -> quarantine the hanging device -> epoch restart -> poison-cancel
  /// with a cause chain naming the stuck predecessors).
  void set_default_deadline(double seconds) {
    std::lock_guard lock(st_->mu);
    st_->ensure_dl().default_deadline = seconds;
  }

  /// Arms the admission window: submissions block (driving the simulation,
  /// with deadline escalation) while max_inflight_tasks submissions or
  /// max_pending_bytes touched bytes are in flight; ctx.try_task()
  /// submissions shed with overload_error instead. 0 = unlimited.
  void limits(task_limits lim) {
    std::lock_guard lock(st_->mu);
    st_->ensure_dl().limits = lim;
  }

  /// Hang strikes a device survives before quarantine (default 2).
  void set_quarantine_after(int strikes) {
    std::lock_guard lock(st_->mu);
    st_->ensure_dl().quarantine_after = strikes;
  }

  /// The deadline monitor, or nullptr while hang recovery is disarmed
  /// (introspection).
  const deadline_monitor* hang_recovery() const { return st_->dl.get(); }

  // --- checkpoint/restart (DESIGN.md §7) ---

  /// Enables epoch checkpoint/restart: incremental host snapshots of dirty
  /// logical data plus a submission log, so a permanent failure escalates
  /// to a rollback + deterministic replay instead of poison-and-cancel.
  /// Data already registered is adopted (host-settled contents become the
  /// epoch-0 snapshot). Fully gated off when never called: disabled
  /// contexts pay a single null-pointer check per submission.
  void enable_checkpointing(checkpoint_options opts = {}) {
    std::lock_guard lock(st_->mu);
    st_->ckpt = std::make_unique<checkpoint_manager>(*st_, opts);
    st_->sweep_registry();
    for (auto& w : st_->registry) {
      if (auto d = w.lock()) {
        st_->ckpt->on_register(d);
      }
    }
  }

  /// Drops the checkpoint manager (snapshots, submission log, restart
  /// budget). Outstanding snapshot copies are drained first.
  void disable_checkpointing() {
    std::lock_guard lock(st_->mu);
    st_->ckpt.reset();
  }

  /// Takes an explicit epoch checkpoint now (see checkpoint_manager::
  /// take_checkpoint). Returns false when checkpointing is disabled or the
  /// attempt was aborted by a refused snapshot copy.
  bool checkpoint() {
    std::lock_guard lock(st_->mu);
    return st_->ckpt != nullptr && st_->ckpt->take_checkpoint();
  }

  /// The checkpoint manager, or nullptr while disabled (introspection).
  const checkpoint_manager* checkpointing() const { return st_->ckpt.get(); }

  // --- end-to-end data integrity (DESIGN.md §10) ---

  /// Arms the integrity engine and returns its knobs (content checksums at
  /// trust boundaries, replica repair, dual-execution voting). The first
  /// call creates the engine and adopts already-registered data: settled
  /// host contents become the trusted reference, closing the
  /// trust-on-first-use window. Never calling this leaves every hook at a
  /// single null-pointer check — the disarmed fast path is untouched.
  integrity_config& integrity_options() {
    std::lock_guard lock(st_->mu);
    if (st_->integ == nullptr) {
      st_->integ = std::make_unique<integrity_engine>();
      st_->sweep_registry();
      for (auto& w : st_->registry) {
        if (auto d = w.lock()) {
          st_->integ->adopt(*st_, *d);
        }
      }
    }
    return st_->integ->cfg;
  }

  /// One idle-time scrubber pass: verifies every resident replica against
  /// its reference checksum, repairing (or escalating) mismatches exactly
  /// like a trust-boundary detection. Returns the number of replicas
  /// verified; 0 when the integrity engine is disarmed.
  std::size_t scrub() {
    std::lock_guard lock(st_->mu);
    return st_->integ == nullptr ? 0 : st_->integ->scrub(*st_);
  }

  // --- declared task ordering (DESIGN.md §7 watchdog) ---

  /// Declares that tasks submitted with symbol `after` must start after
  /// tasks with symbol `before` have completed — an explicit ordering
  /// constraint on top of the inferred data dependencies. Throws
  /// std::logic_error naming the offending symbols when the new edge
  /// closes a cycle: a cyclic declaration can never be satisfied and would
  /// otherwise hang the DES (the watchdog would catch it only at drain
  /// time).
  void order_after(std::string before, std::string after) {
    std::lock_guard lock(st_->mu);
    st_->declare_order(std::move(before), std::move(after));
  }

  // --- submission-pipeline observers (DESIGN.md §13) ---

  /// Registers a pipeline observer: `obs.on_op()` fires once per
  /// submission with its terminal op_record (completed, cancelled or
  /// failed), under the context lock. The observer must outlive the
  /// context or be detached with unobserve(). While any observer is
  /// attached, submissions leave the disarmed fast path
  /// (fast_path_submits() stops advancing).
  void observe(submit_observer& obs) {
    std::lock_guard lock(st_->mu);
    st_->observers.push_back(&obs);
  }

  /// Detaches a previously registered observer (no-op if absent).
  void unobserve(submit_observer& obs) {
    std::lock_guard lock(st_->mu);
    auto& v = st_->observers;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] == &obs) {
        v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  }

  /// Arms the context-owned Graphviz exporter (idempotent) and returns it.
  /// Equivalent to setting CUDASTF_DOT_FILE, minus the finalize()-time
  /// auto-write: render with dot_export(path) whenever convenient.
  dot_exporter& enable_dot() {
    std::lock_guard lock(st_->mu);
    if (st_->dot == nullptr) {
      st_->dot = std::make_unique<dot_exporter>();
      st_->observers.push_back(st_->dot.get());
    }
    return *st_->dot;
  }

  /// Writes the lowered task graph observed so far as Graphviz DOT —
  /// places, access modes, devices, and cause-chain poison edges (the real
  /// CUDASTF's CUDASTF_DOT_FILE view). False when no exporter is armed
  /// (enable_dot() / CUDASTF_DOT_FILE) or the file could not be written.
  bool dot_export(const std::string& path) {
    std::lock_guard lock(st_->mu);
    return st_->dot != nullptr && st_->dot->write(path);
  }

  // --- configuration & introspection ---

  /// Caps the graph backend's memoized-executable cache (least recently
  /// launched epochs are destroyed first, counted in stats().
  /// graph_execs_evicted). No-op on the stream backend.
  void set_graph_cache_capacity(std::size_t n) {
    std::lock_guard lock(st_->mu);
    st_->backend->set_exec_cache_capacity(n);
  }

  /// When disabled, kernel bodies are skipped: virtual-time benchmarking at
  /// paper scale without host-side numerics (see DESIGN.md §1).
  void set_compute_payloads(bool on) { st_->compute_payloads = on; }

  /// Transfer-planner knobs (DESIGN.md §6): min-cost routing, broadcast
  /// trees, chunking threshold, in-flight coalescing, peer eviction
  /// staging. Each mechanism toggles independently for ablation; mutate
  /// before submitting the work it should affect.
  transfer_config& transfer_options() { return st_->xfer; }
  const transfer_config& transfer_options() const { return st_->xfer; }

  /// Memory-engine victim-policy settings (DESIGN.md §9): eviction batch,
  /// sole-copy penalty, scan threshold and young guard. The caching
  /// suballocator and the victim key themselves are always on.
  mem_config& memory_options() { return st_->mem.cfg; }
  const mem_config& memory_options() const { return st_->mem.cfg; }

  cudasim::platform& platform() { return *st_->plat; }
  const backend_stats& stats() const { return st_->backend->stats(); }

  /// Redundant dependency events pruned on the submission fast path
  /// (duplicates, completed, same-stream dominated; see DESIGN.md).
  std::uint64_t events_pruned() const { return st_->events_pruned; }

  /// Task submissions the pipeline ran with no engine or observer armed,
  /// from any thread (see DESIGN.md §11).
  std::uint64_t fast_path_submits() const { return st_->fast_submits; }

 private:
  template <class E, int R>
  cudastf::logical_data<slice<E, R>> from_ptr(E* p,
                                              std::vector<std::size_t> ext,
                                              std::string name) {
    return cudastf::logical_data<slice<E, R>>(register_impl(
        std::move(ext), sizeof(E),
        const_cast<std::remove_const_t<E>*>(p), std::move(name)));
  }

  data_impl_ptr register_impl(std::vector<std::size_t> extents,
                              std::size_t elem_size, void* host_ptr,
                              std::string name);

  std::shared_ptr<context_state> st_;
};

}  // namespace cudastf
