// Hang recovery and overload control (deadline.hpp, DESIGN.md §12).
//
// Pipeline hook points (DESIGN.md §13): arming and overload admission
// (block or shed) run in submit_pipeline::stage_admission; the retry rung
// receives the op's requeue closure from the terminal finish stage
// (track_submission), so a cancelled-then-retried op re-enters the
// pipeline from the top.
#include "cudastf/deadline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "cudastf/backend.hpp"
#include "cudastf/checkpoint.hpp"
#include "cudastf/context_state.hpp"
#include "cudastf/data.hpp"
#include "cudastf/error.hpp"

namespace cudastf {

deadline_monitor& context_state::ensure_dl() {
  if (dl == nullptr) {
    dl = std::make_unique<deadline_monitor>(*this);
  }
  return *dl;
}

overload_error::overload_error(std::size_t inflight, std::size_t pending_bytes,
                               std::size_t max_tasks, std::size_t max_bytes)
    : std::runtime_error(
          "cudastf: submission shed at full admission window: " +
          std::to_string(inflight) + " task(s), " +
          std::to_string(pending_bytes) + " byte(s) in flight (limits: " +
          (max_tasks != 0 ? std::to_string(max_tasks) : std::string("unlimited")) +
          " tasks, " +
          (max_bytes != 0 ? std::to_string(max_bytes) : std::string("unlimited")) +
          " bytes)"),
      inflight_(inflight),
      pending_bytes_(pending_bytes) {}

bool deadline_monitor::entry_complete(const entry& e) const {
  if (!e.done || e.done.completed()) {
    return true;
  }
  if (e.done.type() == event::kind::graph) {
    // Graph-node events have no individual completion; an epoch's entries
    // resolve together once the DES fully drained after the flush
    // (epoch-grained completion, see the header).
    return st_->plat->live_ops() == 0;
  }
  return false;
}

void deadline_monitor::prune() {
  std::erase_if(entries_,
                [this](const entry& e) { return entry_complete(e); });
}

void deadline_monitor::track(entry e) {
  if (std::isfinite(e.deadline_abs)) {
    ++st_->backend->mutable_stats().deadlines_armed;
  }
  entries_.push_back(std::move(e));
}

std::size_t deadline_monitor::pending_bytes() const {
  std::size_t sum = 0;
  for (const entry& e : entries_) {
    sum += e.bytes;
  }
  return sum;
}

void deadline_monitor::admit(std::size_t bytes, bool shed) {
  if (!window_armed() || resubmitting_) {
    return;
  }
  if (st_->ckpt != nullptr && st_->ckpt->replaying()) {
    return;  // epoch replay re-runs already-admitted work
  }
  bool throttled = false;
  for (;;) {
    prune();
    const std::size_t inflight = entries_.size();
    const std::size_t pend = pending_bytes();
    const bool over_tasks = limits.max_inflight_tasks != 0 &&
                            inflight >= limits.max_inflight_tasks;
    const bool over_bytes = limits.max_pending_bytes != 0 && pend > 0 &&
                            pend + bytes > limits.max_pending_bytes;
    if (!over_tasks && !over_bytes) {
      return;
    }
    if (shed) {
      ++st_->backend->mutable_stats().tasks_shed;
      throw overload_error(inflight, pend, limits.max_inflight_tasks,
                           limits.max_pending_bytes);
    }
    if (!throttled) {
      ++st_->backend->mutable_stats().submits_throttled;
      throttled = true;
    }
    if (!step()) {
      // DES idle, nothing overdue, window still full: the tracked work can
      // only complete after a structural event this loop cannot drive (a
      // graph epoch not yet flushed). Admitting beats deadlocking.
      return;
    }
  }
}

void deadline_monitor::settle(bool until_idle) {
  for (;;) {
    prune();
    if (entries_.empty() && (!until_idle || st_->plat->live_ops() == 0)) {
      return;
    }
    if (!step()) {
      return;
    }
  }
}

void deadline_monitor::wait(const event_list& l) {
  const auto all_done = [&l] {
    for (const event& e : l) {
      if (!e.completed()) {
        return false;
      }
    }
    return true;
  };
  while (!all_done()) {
    if (!step()) {
      // The DES is idle; incomplete handles can only be lagging a sweep.
      // A full backend drain settles them and cannot block here.
      st_->backend->wait_idle();
      return;
    }
  }
}

bool deadline_monitor::step() {
  cudasim::platform& plat = *st_->plat;
  prune();
  const double now = plat.now();
  // Earliest-armed overdue entry first: escalation happens in deadline
  // order, so the oldest wedge is repaired before it cascades.
  std::size_t overdue = npos;
  double best = std::numeric_limits<double>::infinity();
  double horizon = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const double d = entries_[i].deadline_abs;
    horizon = std::min(horizon, d);
    if (d <= now && d < best) {
      best = d;
      overdue = i;
    }
  }
  if (overdue != npos) {
    escalate(overdue);
    return true;
  }
  if (std::isfinite(horizon)) {
    if (plat.drain_window(horizon) > 0) {
      return true;
    }
    if (plat.drain_one()) {
      return true;  // the next completion lies past the horizon
    }
    if (plat.live_ops() == 0) {
      return false;  // entries are stale or epoch-pending; prune resolves
    }
    // Live ops but nothing completable before the horizon: waiting out the
    // deadline costs virtual time, after which the entry is overdue and
    // the next step escalates.
    plat.advance_clock(horizon);
    return true;
  }
  // No armed deadlines: plain drive (window-only entries / full drain).
  if (plat.drain_one()) {
    return true;
  }
  if (plat.live_ops() == 0) {
    return false;
  }
  // Wedged with no deadline governing the wait: escalate directly instead
  // of hanging forever (the drain-deadline of fence/finalize).
  escalate(npos);
  return true;
}

void deadline_monitor::escalate(std::size_t idx) {
  cudasim::platform& plat = *st_->plat;
  backend_stats& bs = st_->backend->mutable_stats();
  // Drain to a fixpoint before surgery: everything not blocked by the
  // wedge completes first. Beyond sharpening the stuck report, this lets
  // unblocked snapshot copies land, so note_cancellation() below taints
  // only snapshots genuinely queued behind the cancelled op.
  while (plat.drain_one()) {
  }
  const cudasim::op_node* prefer = nullptr;
  if (idx != npos && entries_[idx].done.type() == event::kind::stream) {
    prefer = entries_[idx].done.sim().pending_node();
  }
  // Capture the report before surgery: it names the wedge and its stuck
  // predecessor chain while they are still stuck.
  const std::string stuck = plat.stuck_report();
  const cudasim::platform::stall_info info = plat.cancel_stalled_op(prefer);
  if (!info.found) {
    // Nothing is actually wedged — the run is slow, not stuck. Extend the
    // deadline (detection alone must never kill a progressing run) and
    // take one bounded step.
    if (idx != npos) {
      entry& e = entries_[idx];
      const double rel =
          e.deadline_rel > 0.0 ? e.deadline_rel : default_deadline;
      e.deadline_abs = rel > 0.0 ? plat.now() + rel
                                 : std::numeric_limits<double>::infinity();
    }
    if (!plat.drain_one() && plat.live_ops() > 0) {
      // Live ops, no pending completions, nothing cancellable: a
      // structural wedge (e.g. an unsatisfiable dependency) — the same
      // condition the plain drain watchdog reports, with the same report.
      throw std::logic_error(
          "cudastf: deadline expired on a structurally wedged simulation "
          "(nothing cancellable)\n" +
          stuck);
    }
    return;
  }
  ++bs.hangs_detected;
  ++bs.ops_cancelled;
  st_->recovery_active = true;
  strike(info.device);
  if (st_->ckpt != nullptr) {
    st_->ckpt->note_cancellation();
  }
  // Match the cancelled op to a tracked submission by its tail node.
  std::size_t victim = npos;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const event& done = entries_[i].done;
    if (done.type() == event::kind::stream &&
        done.sim().node_id() == info.id) {
      victim = i;
      break;
    }
  }
  if (victim != npos && retry_safe(entries_[victim])) {
    // Rung 1: the expired task's own op was the wedge, its outputs are
    // unread and its inputs unchanged — resubmit in place. The checkpoint
    // log is suppressed for the retry: the original submission is already
    // logged, and a restart must replay exactly one copy.
    entry e = std::move(entries_[victim]);
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(victim));
    ++st_->report.tasks_retried;
    const bool ckpt = st_->ckpt != nullptr;
    resubmitting_ = true;
    if (ckpt) {
      st_->ckpt->set_suppressed(true);
    }
    try {
      e.resubmit();
    } catch (...) {
      resubmitting_ = false;
      if (ckpt) {
        st_->ckpt->set_suppressed(false);
      }
      throw;
    }
    resubmitting_ = false;
    if (ckpt) {
      st_->ckpt->set_suppressed(false);
    }
    return;
  }
  // Rung 3: epoch restart with bit-identical replay. The whole epoch is
  // rolled back, so every other stall victim can be cancelled too — and
  // must be, or the restart's quiesce would wedge on them.
  if (st_->ckpt != nullptr && !st_->ckpt->replaying()) {
    for (;;) {
      const cudasim::platform::stall_info more = plat.cancel_stalled_op();
      if (!more.found) {
        break;
      }
      ++bs.ops_cancelled;
      strike(more.device);
      st_->ckpt->note_cancellation();
    }
    // Quiesce-and-cancel: cancelling the visible wedges starts queued ops
    // that may themselves be armed to stall — a stall only registers once
    // its op begins executing. Drain to idle here, cancelling each late
    // wedge as it surfaces, so the restart's own quiesce cannot hang.
    for (;;) {
      try {
        st_->backend->wait_idle();
        break;
      } catch (const std::exception&) {
        const cudasim::platform::stall_info late = plat.cancel_stalled_op();
        if (!late.found) {
          throw;
        }
        ++bs.ops_cancelled;
        strike(late.device);
        st_->ckpt->note_cancellation();
      }
    }
    const std::size_t before = entries_.size();
    if (detail::try_epoch_restart(*st_, nullptr, 0)) {
      epoch_restarted = true;
      // Pre-restart entries track cancelled history; replayed submissions
      // re-registered themselves behind them during the replay.
      entries_.erase(entries_.begin(),
                     entries_.begin() + static_cast<std::ptrdiff_t>(
                                            std::min(before, entries_.size())));
      return;
    }
  }
  // Rung 4: poison-cancel with the cause chain naming the deadline and the
  // stuck predecessor chain.
  if (victim != npos) {
    fail_entry(entries_[victim], stuck);
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(victim));
  } else if (idx != npos) {
    // The wedge was an untracked op (a coherence copy) feeding the expired
    // task: the task's inputs are suspect, so it takes the poison.
    fail_entry(entries_[idx], stuck);
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(idx));
  } else {
    // Untracked wedge during a drain (write-back / evacuation copy).
    st_->record_failure(
        failure_kind::deadline_expired, info.name, info.device, 1,
        "drain deadline: cancelled wedged op #" + std::to_string(info.id) +
            "\n" + stuck);
  }
}

bool deadline_monitor::retry_safe(const entry& e) const {
  if (!e.resubmit) {
    return false;
  }
  if (st_->ckpt != nullptr && st_->ckpt->replaying()) {
    return false;  // mid-replay surgery belongs to the restart rung
  }
  for (const auto& w : e.written) {
    const auto d = w.lock();
    if (d == nullptr || d->poisoned_by != 0) {
      return false;
    }
    if (!d->readers_since_write.empty()) {
      return false;  // someone already consumed the (never-computed) output
    }
    if (d->last_writer.size() != 1 ||
        *d->last_writer.begin() != e.done) {
      return false;  // a later writer owns the data now
    }
  }
  for (const auto& [w, version] : e.reads) {
    const auto d = w.lock();
    if (d == nullptr || d->poisoned_by != 0 || d->write_version != version) {
      return false;  // an input changed since submission (WAR)
    }
  }
  return true;
}

void deadline_monitor::fail_entry(const entry& e, const std::string& stuck) {
  const double rel = e.deadline_rel > 0.0 ? e.deadline_rel : default_deadline;
  const std::uint64_t id = st_->record_failure(
      failure_kind::deadline_expired, e.symbol, e.device, 1,
      "deadline (" + std::to_string(rel) +
          "s virtual) expired; wedged op cancelled, not recoverable in "
          "place\n" +
          stuck);
  for (const auto& w : e.written) {
    if (const auto d = w.lock(); d != nullptr && d->poisoned_by == 0) {
      d->poisoned_by = id;
      if (!st_->report.failures.empty() &&
          st_->report.failures.back().id == id) {
        st_->report.failures.back().poisoned.push_back(d->name());
      }
    }
  }
}

void deadline_monitor::strike(int device) {
  if (device < 0) {
    return;
  }
  if (strikes_.size() <= static_cast<std::size_t>(device)) {
    strikes_.resize(static_cast<std::size_t>(device) + 1, 0);
  }
  if (++strikes_[static_cast<std::size_t>(device)] < quarantine_after) {
    return;
  }
  if (st_->device_blacklisted(device)) {
    return;
  }
  // Rung 2: the device keeps wedging — quarantine it. blacklist_device
  // evacuates sole copies and future work re-routes to the survivors.
  ++st_->backend->mutable_stats().quarantines;
  st_->blacklist_device(device);
}

namespace detail {

void admit(context_state& st, const task_dep_untyped* const* deps,
           std::size_t n, bool shed) {
  if (st.dl == nullptr) {
    return;
  }
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bytes += deps[i]->data->bytes();
  }
  st.dl->admit(bytes, shed);
}

void track_submission(context_state& st, const event_list& done,
                      std::string_view symbol, int device, double rel_deadline,
                      const task_dep_untyped* const* deps, std::size_t n,
                      std::function<void()> resubmit) {
  deadline_monitor& dl = *st.dl;
  const double rel = dl.effective_rel(rel_deadline);
  if (rel <= 0.0 && !dl.window_armed()) {
    return;
  }
  deadline_monitor::entry e;
  if (!done.empty()) {
    e.done = *(done.end() - 1);
  }
  e.deadline_rel = rel;
  e.deadline_abs = rel > 0.0 ? st.plat->now() + rel
                             : std::numeric_limits<double>::infinity();
  e.symbol = std::string(symbol);
  e.device = device;
  for (std::size_t i = 0; i < n; ++i) {
    const task_dep_untyped& dep = *deps[i];
    e.bytes += dep.data->bytes();
    if (mode_writes(dep.mode)) {
      e.written.emplace_back(dep.data);
    }
    if (mode_reads(dep.mode)) {
      e.reads.emplace_back(dep.data, dep.data->write_version);
    }
  }
  e.resubmit = std::move(resubmit);
  dl.track(std::move(e));
}

}  // namespace detail

}  // namespace cudastf
