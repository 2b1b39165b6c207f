// Epoch checkpoint/restart (DESIGN.md §7).
//
// The checkpoint_manager takes epoch-consistent, incremental snapshots of
// logical data into host staging buffers — dirty-only via the transfer
// planner's write_version generation — issued as asynchronous routed
// transfers so checkpointing overlaps compute. Between checkpoints it
// records the submission log of the running epoch; when a permanent failure
// escalates past retry and blacklisting, the escalation ladder
// (recover.hpp: retry → re-route/blacklist → restart-epoch → poison) rolls
// the affected data back to the last committed checkpoint and replays the
// log deterministically on the surviving devices, bit-identical to a
// fault-free run.
//
// Everything is gated off a single null pointer (context_state::ckpt) when
// checkpointing is disabled, keeping the fault-free fast path untouched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cudastf/error.hpp"
#include "cudastf/events.hpp"

namespace cudastf {

struct context_state;
class logical_data_impl;
struct task_dep_untyped;

/// Checkpoint policy, passed to ctx.enable_checkpointing().
struct checkpoint_options {
  /// Take a checkpoint automatically after this many recorded submissions
  /// (0 = only explicit ctx.checkpoint() calls).
  std::uint64_t every_n_tasks = 0;
  /// Take a checkpoint automatically when this much virtual time elapsed
  /// since the last one (0 = disabled). Virtual time advances at simulator
  /// drain points, so this is a coarse trigger.
  double every_seconds = 0.0;
  /// Upper bound on epoch restarts for one context — a fault storm beyond
  /// this falls back to poison-and-cancel instead of looping forever.
  int max_restarts = 8;
};

/// Owns the committed host snapshots, the dirty tracking, and the epoch
/// submission log of one context. All entry points are called with the
/// context submission lock held (it is recursive, so replay can re-enter
/// the builders).
class checkpoint_manager {
 public:
  checkpoint_manager(context_state& st, checkpoint_options opts);
  ~checkpoint_manager();

  checkpoint_manager(const checkpoint_manager&) = delete;
  checkpoint_manager& operator=(const checkpoint_manager&) = delete;

  /// Tracks a newly registered logical data. Data whose host copy is valid
  /// and settled is committed immediately (cheap synchronous memcpy at
  /// registration time); anything else starts dirty and is captured by the
  /// next checkpoint.
  void on_register(const std::shared_ptr<logical_data_impl>& d);

  /// Called by every builder at submission time (when the manager exists):
  /// first applies the automatic checkpoint triggers, then appends the
  /// task's replay closure to the epoch submission log. No-op during
  /// replay — replayed tasks are already in the log.
  void record(std::function<void()> replay);

  /// Takes an epoch-consistent incremental checkpoint: an epoch barrier
  /// (backend fence), one asynchronous snapshot copy per dirty logical
  /// data, a second barrier, then an atomic commit of all staged buffers.
  /// If any snapshot cannot be issued the whole attempt is aborted and the
  /// previous committed state is kept for every entry — a capture-time
  /// refusal never corrupts a checkpoint in flight. Returns whether a new
  /// checkpoint was committed (false also when nothing was dirty and the
  /// log was simply recommitted).
  bool take_checkpoint();

  /// The restart-epoch rung of the escalation ladder: quiesce the backend,
  /// roll every logical data touched since the last commit (or by the
  /// failing task's writes) back to its committed snapshot, and replay the
  /// epoch submission log deterministically. Returns false — caller falls
  /// back to poison-and-cancel — when restarts are exhausted or a failure
  /// occurs while already replaying.
  bool try_restart(const task_dep_untyped* const* deps, std::size_t n);

  /// Hang-cancellation fence (DESIGN.md §12): called by the deadline
  /// monitor after it cancels a wedged op. Any committed snapshot whose
  /// copies have not landed yet may capture post-cancellation bytes —
  /// those entries are marked tainted and restore refuses them.
  void note_cancellation();

  bool replaying() const { return replaying_; }
  int restarts() const { return restarts_; }
  /// Deadline-retry suppression (DESIGN.md §12): while set, record() is a
  /// no-op. The deadline monitor resubmits a cancelled task through the
  /// regular builders; the original submission is already in the log, and
  /// logging the retry too would replay the task twice after a restart.
  void set_suppressed(bool on) { suppressed_ = on; }
  bool suppressed() const { return suppressed_; }
  /// Committed checkpoint epochs (matches stats().checkpoints_taken).
  std::uint64_t epoch() const { return epoch_; }
  std::size_t log_size() const { return log_.size(); }
  const checkpoint_options& options() const { return opts_; }

 private:
  struct entry {
    std::weak_ptr<logical_data_impl> data;
    /// Last committed snapshot (null until first commit for data that was
    /// not settled at registration).
    std::unique_ptr<char[]> committed;
    /// Staging buffer the next snapshot lands in; swapped into `committed`
    /// at commit so an aborted attempt never tears the committed bytes.
    std::unique_ptr<char[]> spare;
    /// write_version the committed snapshot corresponds to. 0 = dirty
    /// since registration (not yet captured).
    std::uint64_t committed_version = 0;
    bool has_committed = false;
    /// Checksum of the committed bytes (integrity engine, DESIGN.md §10):
    /// written at commit after the staged spare verified against the
    /// reference, re-checked at rollback restore before the snapshot is
    /// trusted. Only maintained while the engine is armed.
    std::uint64_t committed_sum = 0;
    bool has_sum = false;
    /// Completion of the committed snapshot's copies. The commit swaps the
    /// buffers while the copies may still be in flight — safe because
    /// try_restart() quiesces before reading them — but a hang
    /// cancellation (DESIGN.md §12) breaks that: a copy queued behind the
    /// cancelled op lands afterwards, capturing bytes that embed the
    /// cancellation. note_cancellation() marks such entries `tainted`.
    event_list snapshot_evs;
    /// The committed bytes may embed a cancelled (never-executed) op:
    /// restore refuses them and poisons the data with a report instead of
    /// replaying corruption as truth. Cleared by the next clean commit.
    bool tainted = false;
  };

  void restore_entry(entry& e, logical_data_impl& d);

  context_state* st_;
  checkpoint_options opts_;
  std::vector<entry> entries_;
  std::vector<std::function<void()>> log_;
  std::uint64_t tasks_since_ = 0;
  double last_checkpoint_time_ = 0.0;
  std::uint64_t epoch_ = 0;
  int restarts_ = 0;
  bool replaying_ = false;
  bool suppressed_ = false;  ///< deadline-retry suppression (set_suppressed)
};

namespace detail {

/// The restart-epoch rung, callable from the submission paths: true when
/// the context has a checkpoint manager and it rolled back + replayed;
/// false when the caller must poison instead.
bool try_epoch_restart(context_state& st, const task_dep_untyped* const* deps,
                       std::size_t n);

/// Drop-in replacement for fail_task at permanent-failure sites: escalates
/// to an epoch restart when possible, else records the failure and poisons
/// the written deps exactly like fail_task. Returns the failure id (0 when
/// the epoch was restarted instead).
std::uint64_t fail_task_or_restart(context_state& st,
                                   const task_dep_untyped* const* deps,
                                   std::size_t n, std::string_view symbol,
                                   failure_kind kind, int device, int attempts,
                                   std::string what);

}  // namespace detail

}  // namespace cudastf
