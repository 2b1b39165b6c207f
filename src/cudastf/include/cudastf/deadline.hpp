// Hang recovery and overload control (DESIGN.md §12).
//
// The watchdog in the DES (timeline::drain) only detects a wedged run at
// full-drain time, and only by throwing. This engine turns stuck-detection
// into stuck-repair: tasks arm virtual-time deadlines at submission
// (ctx.task(...).deadline(s), ctx.set_default_deadline(s)); when a deadline
// expires the monitor cooperatively cancels the wedged DES operation
// (timeline::cancel tears it out of its engine and fires its successors)
// and classifies the hang into the existing escalation ladder:
//
//   1. cancelled op is the expired task's own op, its outputs unread and
//      its inputs unchanged            -> resubmit the task in place (retry)
//   2. a device keeps hanging (>= quarantine_after strikes)
//                                      -> blacklist + re-route off it
//   3. not retryable in place          -> epoch restart with bit-identical
//                                         replay (checkpoint.hpp)
//   4. no checkpoint / restarts gone   -> poison-cancel with a cause chain
//                                         naming the deadline and the stuck
//                                         predecessor chain (stuck_report)
//
// The same engine provides overload backpressure: ctx.limits() bounds the
// in-flight submission window; a full window blocks the submitter (driving
// the DES, with deadline escalation, so a wedged window cannot deadlock the
// host) or — for ctx.try_task() — sheds the submission with a typed
// overload_error.
//
// Everything is gated off one null pointer (context_state::dl): a context
// that never arms a deadline or a limit pays a single null check per
// submission and nothing else, preserving Table 1.
//
// Deadlines are virtual seconds (cudasim timepoints), not wall-clock —
// hangs are simulated faults, so their detection must be deterministic and
// replayable like every other fault. On the graph backend completion is
// epoch-grained: captured work only reaches the DES at flush, so deadlines
// bite at ctx.fence()/finalize().
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cudastf/events.hpp"

namespace cudastf {

struct context_state;
class logical_data_impl;
struct task_dep_untyped;

/// Admission-control limits (ctx.limits()). 0 = unlimited.
struct task_limits {
  /// Block (or shed) when this many tracked submissions are in flight.
  std::size_t max_inflight_tasks = 0;
  /// Block (or shed) when the bytes touched by in-flight submissions
  /// exceed this (a submission is always admitted into an empty window,
  /// however large).
  std::size_t max_pending_bytes = 0;
};

/// Deadline, cancellation and backpressure engine of one context. All entry
/// points run with the context lock held.
class deadline_monitor {
 public:
  explicit deadline_monitor(context_state& st) : st_(&st) {}

  deadline_monitor(const deadline_monitor&) = delete;
  deadline_monitor& operator=(const deadline_monitor&) = delete;

  /// One tracked submission.
  struct entry {
    /// Completion event of the submission (tail of its done list).
    event done;
    /// Absolute virtual-time deadline; +inf for window-only tracking.
    double deadline_abs = std::numeric_limits<double>::infinity();
    /// Relative deadline it was armed with (re-applied on extension).
    double deadline_rel = 0.0;
    /// Bytes of data the submission touches (backpressure accounting).
    std::size_t bytes = 0;
    std::string symbol;
    int device = -1;
    /// Written deps — poisoned on the fail rung, checked on the retry rung.
    std::vector<std::weak_ptr<logical_data_impl>> written;
    /// Read deps with the contents generation observed at submission: a
    /// retry in place is only bit-identical while every input is unchanged.
    std::vector<std::pair<std::weak_ptr<logical_data_impl>, std::uint64_t>>
        reads;
    /// Re-invokes a copy of the builder (null when the body is move-only —
    /// such tasks skip the retry rung, like the checkpoint log does).
    std::function<void()> resubmit;
  };

  /// Context-wide default deadline (virtual seconds; 0 = none), applied to
  /// submissions that did not arm their own.
  double default_deadline = 0.0;

  /// Admission window (ctx.limits()).
  task_limits limits;

  /// Hang strikes on one device before it is quarantined (blacklisted and
  /// re-routed around) — one wedged op may be bad luck, a pattern is a bad
  /// device.
  static constexpr int quarantine_after = 2;

  /// The effective relative deadline for a submission that asked for
  /// `requested` (0 = didn't ask).
  double effective_rel(double requested) const {
    return requested > 0.0 ? requested : default_deadline;
  }

  bool window_armed() const {
    return limits.max_inflight_tasks != 0 || limits.max_pending_bytes != 0;
  }

  /// Registers a submission. Counts stats().deadlines_armed when the entry
  /// carries a finite deadline.
  void track(entry e);

  /// Backpressure gate, called before a submission acquires anything: waits
  /// (driving the DES with deadline escalation) while the window is full,
  /// or throws overload_error when `shed`. No-op while the window is
  /// unarmed, and during checkpoint replay / deadline resubmission (those
  /// re-run already-admitted work).
  void admit(std::size_t bytes, bool shed);

  /// Drives the DES until every tracked entry completed or was escalated
  /// (cancel -> retry / quarantine / restart / poison). With `until_idle`
  /// also drains the rest of the DES, escalating untracked wedges (stalled
  /// coherence or write-back copies) instead of hanging — the
  /// deadline-aware replacement for backend->wait_idle().
  void settle(bool until_idle);

  /// Deadline-aware replacement for backend->wait(): drives the DES until
  /// every event in `l` completed, escalating wedges.
  void wait(const event_list& l);

  std::size_t tracked() const { return entries_.size(); }

  /// Set when escalation restarted the epoch (rung 3). finalize() checks
  /// it after draining: a restart replays the epoch's tasks on the
  /// devices, so write-backs enqueued before it carried pre-restart bytes
  /// and must be issued again.
  bool epoch_restarted = false;

 private:
  /// One bounded step of progress: escalate an overdue entry, complete
  /// pending events, or advance the clock to the earliest armed deadline.
  /// False when the DES is idle and nothing is overdue — no further
  /// progress is possible without new submissions.
  bool step();

  /// Drops completed entries. On the graph backend an entry's node event
  /// never completes individually; such entries resolve when the DES fully
  /// drained after the epoch flush (epoch-grained completion).
  void prune();
  bool entry_complete(const entry& e) const;

  /// Escalates: cancels a wedged op (preferring `idx`'s own op) and walks
  /// the ladder. With idx == npos escalates an untracked wedge. When
  /// nothing is actually stalled, extends the deadline instead — a slow
  /// but progressing run is never killed by detection alone.
  void escalate(std::size_t idx);

  /// Whether resubmitting `e` in place reproduces the fault-free result
  /// bit-identically: outputs unread and still exclusively ours, inputs at
  /// the observed contents generation, nothing poisoned.
  bool retry_safe(const entry& e) const;

  /// Records the deadline_expired failure (cause chain carries the
  /// pre-cancellation stuck report) and poisons `e`'s written data.
  void fail_entry(const entry& e, const std::string& stuck);

  /// One hang strike against `device`; quarantines it at the threshold.
  void strike(int device);

  std::size_t pending_bytes() const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  context_state* st_;
  std::vector<entry> entries_;
  /// Per-device hang strikes (indexed by device).
  std::vector<int> strikes_;
  /// True while escalate() re-invokes a cancelled task's builder: the
  /// retry must not re-enter the admission gate (it replaces work that was
  /// already admitted) or recurse into escalation.
  bool resubmitting_ = false;
};

namespace detail {

/// Submission-path hooks, no-ops while st.dl is null.
void admit(context_state& st, const task_dep_untyped* const* deps,
           std::size_t n, bool shed);
void track_submission(context_state& st, const event_list& done,
                      std::string_view symbol, int device, double rel_deadline,
                      const task_dep_untyped* const* deps, std::size_t n,
                      std::function<void()> resubmit);

}  // namespace detail

}  // namespace cudastf
