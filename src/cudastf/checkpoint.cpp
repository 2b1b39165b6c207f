// Epoch checkpoint/restart engine (DESIGN.md §7).
//
// Pipeline hook point (DESIGN.md §13): replay recording attaches to the
// admission stage — submit_pipeline::stage_admission appends the requeue
// closure to the log before anything is acquired or mutated, so a replay
// re-enters the builder verbatim; escalation (try_epoch_restart) is
// reached from the pipeline's failure ladder.
//
// Commit protocol: snapshots are issued asynchronously into per-entry spare
// buffers between two backend fences (the epoch barriers — on the graph
// backend they close the compute epoch before and the snapshot epoch
// after, so snapshot copies never share a captured graph with task nodes).
// Only when every snapshot was accepted are the spare buffers swapped into
// the committed slots, all at once. Any refusal — including a capture-time
// refusal on the graph backend — aborts the attempt with the previous
// committed state intact for every entry: a checkpoint in flight can be
// lost, never corrupted.
//
// The fences order the snapshot reads against *submitted* work; the copies
// themselves may still be in flight when the commit happens. That is safe
// because the only consumer of committed bytes is try_restart(), which
// fully drains the simulator first, and the DES executes every accepted
// operation deterministically (fail-stop refuses at submission, never
// mid-flight).
//
// Threading contract (DESIGN.md §11): this engine always runs under the
// context lock. Deterministic-order parallel_submit preserves the single-thread epoch
// numbering, which is what makes replay-after-restart bit-identical.
#include <cstring>
#include <new>
#include <stdexcept>

#include "cudastf/checkpoint.hpp"
#include "cudastf/context_state.hpp"
#include "cudastf/data.hpp"
#include "cudastf/recover.hpp"
#include "cudastf/transfer.hpp"

namespace cudastf {

checkpoint_manager::checkpoint_manager(context_state& st,
                                       checkpoint_options opts)
    : st_(&st), opts_(opts) {
  last_checkpoint_time_ = st.plat != nullptr ? st.plat->now() : 0.0;
}

checkpoint_manager::~checkpoint_manager() {
  // Snapshot copies still in flight target our staging buffers; drain them
  // before the buffers die. (The context_state declares `ckpt` after the
  // backend, so the backend is still alive here.)
  if (st_ != nullptr && st_->backend != nullptr) {
    try {
      st_->backend->wait_idle();
    } catch (...) {
      // A stuck DES already threw at the user; don't terminate in unwind.
    }
  }
}

void checkpoint_manager::on_register(const std::shared_ptr<logical_data_impl>& d) {
  entry e;
  e.data = d;
  data_instance* host = d->find_instance(data_place::host());
  bool settled = host != nullptr && host->allocated &&
                 host->state != msi_state::invalid;
  if (settled) {
    for (const event_ptr& ev : host->writer) {
      if (ev && !ev->completed()) {
        settled = false;
        break;
      }
    }
  }
  if (settled) {
    // Registration-time contents are the epoch-0 snapshot (user-provided
    // host data): capture synchronously, it is valid right now.
    e.committed = std::make_unique<char[]>(d->bytes());
    std::memcpy(e.committed.get(), host->ptr, d->bytes());
    e.has_committed = true;
    e.committed_version = d->write_version;
  } else {
    bool any_valid = false;
    for (const auto& inst : d->instances()) {
      if (inst->state != msi_state::invalid) {
        any_valid = true;
        break;
      }
    }
    // Shape-only data is clean (never written: nothing to snapshot, and a
    // rollback simply invalidates it). Data with unsettled or device-only
    // contents starts dirty and is captured by the next checkpoint.
    e.committed_version = any_valid ? 0 : d->write_version;
  }
  entries_.push_back(std::move(e));
}

void checkpoint_manager::record(std::function<void()> replay) {
  if (replaying_ || suppressed_) {
    return;  // replayed / deadline-resubmitted tasks are already in the log
  }
  const bool by_tasks =
      opts_.every_n_tasks > 0 && tasks_since_ >= opts_.every_n_tasks;
  const bool by_time =
      opts_.every_seconds > 0.0 && st_->plat != nullptr &&
      st_->plat->now() - last_checkpoint_time_ >= opts_.every_seconds;
  if ((by_tasks || by_time) && !log_.empty()) {
    take_checkpoint();  // a refused attempt just retries at the next trigger
  }
  log_.push_back(std::move(replay));
  ++tasks_since_;
}

bool checkpoint_manager::take_checkpoint() {
  if (replaying_) {
    return false;
  }
  // Poisoned data cannot be snapshotted; committing the log around it would
  // also discard the cancelled tasks a later restart still needs to replay.
  for (entry& e : entries_) {
    if (auto d = e.data.lock(); d && d->poisoned_by != 0) {
      return false;
    }
  }

  backend_stats& bs = st_->backend->mutable_stats();

  struct planned {
    entry* e;
    std::uint64_t version;
    bool copied;
    data_instance* src = nullptr;    ///< snapshot source (integrity verify)
    event_list evs;                  ///< snapshot copy completion
    std::uint64_t sum = 0;           ///< spare checksum (integrity commit)
    bool summed = false;
  };
  std::vector<planned> plan;
  std::uint64_t bytes_staged = 0;
  try {
    st_->backend->fence();  // epoch barrier: close the compute epoch
    for (entry& e : entries_) {
      auto d = e.data.lock();
      if (!d || d->write_version == e.committed_version) {
        continue;  // dead or clean: previous snapshot still matches
      }
      data_instance* src = pick_snapshot_source(*st_, *d);
      if (src == nullptr) {
        // No valid copy anywhere: the data is (still) never-written at
        // this version; a rollback will simply invalidate it.
        plan.push_back({&e, d->write_version, false});
        continue;
      }
      if (!e.spare) {
        e.spare = std::make_unique<char[]>(d->bytes());
      }
      event_list evs = issue_snapshot_copy(*st_, *d, *src, e.spare.get());
      bytes_staged += d->bytes();
      plan.push_back({&e, d->write_version, true, src, std::move(evs)});
    }
    st_->backend->fence();  // epoch barrier: isolate the snapshot epoch
  } catch (...) {
    // Abort the whole attempt: nothing was committed, every entry keeps
    // its previous snapshot. Close the half-built snapshot epoch so
    // accepted segments (which only scribble spare buffers) drain
    // normally.
    try {
      st_->backend->fence();
    } catch (...) {
      // The epoch itself was refused at launch (fail-stop: nothing ran);
      // there is nothing left to close.
    }
    return false;
  }

  // Trust boundary (integrity engine, DESIGN.md §10): committing corrupt
  // bytes would make every later rollback replay them as truth. Each
  // staged spare is verified against the reference checksum before the
  // swap; any mismatch aborts the whole attempt, keeping the previous
  // committed state intact for every entry.
  if (st_->integ != nullptr && st_->plat != nullptr &&
      st_->plat->copy_payloads()) [[unlikely]] {
    for (planned& p : plan) {
      if (!p.copied) {
        continue;
      }
      auto d = p.e->data.lock();
      if (!d || d->bytes() == 0) {
        continue;
      }
      st_->backend->wait(p.evs);
      st_->backend->wait(d->integ_ready);
      p.sum = integrity_checksum(p.e->spare.get(), d->bytes());
      p.summed = true;
      if (d->integ == nullptr || !d->integ->valid ||
          d->integ->version != p.version) {
        continue;  // no reference for this generation: adopt the spare
      }
      if (p.sum == d->integ->sum) {
        ++bs.checksums_verified;
        continue;
      }
      ++bs.checksum_mismatches;
      // Was the source itself corrupt, or only the copy into the spare?
      // A corrupt source is invalidated and repaired from a verified
      // sharer when one exists; a sole corrupt copy escalates through the
      // ladder (restart from the *previous* committed snapshot, else
      // poison). An in-flight copy flip leaves the source untouched — the
      // next trigger simply re-snapshots.
      if (p.src != nullptr &&
          !st_->integ->verify_instance(*st_, *d, *p.src,
                                       "checkpoint_commit") &&
          !st_->integ->handle_corruption(*st_, *d, *p.src,
                                         "checkpoint_commit")) {
        task_dep_untyped dep;
        dep.data = d;
        dep.mode = access_mode::rw;
        const task_dep_untyped* dp = &dep;
        detail::fail_task_or_restart(
            *st_, &dp, 1, "checkpoint", failure_kind::data_corrupted, -1, 1,
            "snapshot of '" + d->name() +
                "' failed verification at checkpoint_commit (write_version " +
                std::to_string(p.version) + ") with no valid replica");
      }
      return false;
    }
  }

  // Atomic commit: all-or-nothing swap of the staged buffers.
  for (planned& p : plan) {
    if (p.copied) {
      std::swap(p.e->committed, p.e->spare);
      p.e->has_committed = true;
      p.e->committed_sum = p.sum;
      p.e->has_sum = p.summed;
      // A fresh snapshot supersedes any taint; its copies must land
      // before the bytes are trusted across a cancellation.
      p.e->snapshot_evs = std::move(p.evs);
      p.e->tainted = false;
    } else {
      p.e->snapshot_evs.clear();
      p.e->tainted = false;
    }
    p.e->committed_version = p.version;
  }
  log_.clear();
  tasks_since_ = 0;
  if (st_->plat != nullptr) {
    last_checkpoint_time_ = st_->plat->now();
  }
  ++epoch_;
  ++bs.checkpoints_taken;
  bs.checkpoint_bytes += bytes_staged;
  return true;
}

void checkpoint_manager::note_cancellation() {
  for (entry& e : entries_) {
    if (e.tainted || e.snapshot_evs.empty()) {
      continue;
    }
    e.snapshot_evs.prune_completed_entries();
    if (!e.snapshot_evs.empty()) {
      // The snapshot copy was queued behind (or beside) the op that was
      // just cancelled: when it lands it will capture bytes computed
      // without the cancelled step. Conservative: any unlanded copy
      // taints its entry.
      e.tainted = true;
    }
  }
}

void checkpoint_manager::restore_entry(entry& e, logical_data_impl& d) {
  for (const auto& inst : d.instances()) {
    inst->readers.clear();
    inst->writer.clear();
    inst->state = msi_state::invalid;
    inst->pinned = false;
    reset_fill_tracking(*inst);
  }
  d.last_writer.clear();
  d.readers_since_write.clear();
  d.poisoned_by = 0;
  // Contents generations are strictly monotonic — never roll write_version
  // back to the committed value. The transfer planner coalesces onto
  // in-flight fills keyed by write_version, so reusing a number from the
  // generation's previous life would let a stale fill satisfy a
  // post-rollback demand. Instead the restored contents get a fresh
  // generation and the snapshot is re-keyed to it, so the entry stays
  // clean until genuinely rewritten.
  d.write_version = std::max(d.write_version, e.committed_version) + 1;
  e.committed_version = d.write_version;
  if (e.tainted) [[unlikely]] {
    // Hang-cancellation taint (DESIGN.md §12): the committed bytes were
    // captured by a copy that was still in flight when a wedged op was
    // cancelled — they may embed the cancellation (a step that never
    // executed). There is no trustworthy state to roll back to: report
    // the loss and poison instead of replaying corruption as truth.
    d.poisoned_by = st_->record_failure(
        failure_kind::data_lost, d.name(), -1, 1,
        "committed snapshot of '" + d.name() +
            "' was in flight across a hang cancellation; no trustworthy "
            "rollback state exists");
    if (!st_->report.failures.empty() &&
        st_->report.failures.back().id == d.poisoned_by) {
      st_->report.failures.back().poisoned.push_back(d.name());
    }
    return;  // every instance stays invalid
  }
  if (e.has_committed) {
    // Trust boundary (integrity engine, DESIGN.md §10): a rotted committed
    // snapshot must not be installed as truth. Poison instead of restoring;
    // dependents cancel with the cause chain naming the data.
    if (st_->integ != nullptr && e.has_sum && st_->plat != nullptr &&
        st_->plat->copy_payloads() && d.bytes() > 0) [[unlikely]] {
      backend_stats& bs = st_->backend->mutable_stats();
      if (integrity_checksum(e.committed.get(), d.bytes()) !=
          e.committed_sum) {
        ++bs.checksum_mismatches;
        d.poisoned_by = st_->record_failure(
            failure_kind::data_corrupted, d.name(), -1, 1,
            "committed snapshot failed verification at checkpoint_restore "
            "(write_version " + std::to_string(d.write_version) + ")");
        if (!st_->report.failures.empty() &&
            st_->report.failures.back().id == d.poisoned_by) {
          st_->report.failures.back().poisoned.push_back(d.name());
        }
        return;  // every instance stays invalid
      }
      ++bs.checksums_verified;
    }
    data_instance& host = d.instance_at(data_place::host());
    if (!host.allocated) {
      host.ptr = alloc_host_staging(*st_, d.bytes());
      host.allocated = true;
    }
    std::memcpy(host.ptr, e.committed.get(), d.bytes());
    host.state = msi_state::modified;
  }
  // Re-seed the reference checksum for the fresh generation: the restored
  // bytes are the committed ones, whose sum was recorded at commit.
  if (st_->integ != nullptr) [[unlikely]] {
    d.integ_ready.clear();
    if (e.has_committed && e.has_sum) {
      if (d.integ == nullptr) {
        d.integ = std::make_shared<integrity_entry>();
      }
      d.integ->sum = e.committed_sum;
      d.integ->version = d.write_version;
      d.integ->valid = true;
    } else if (d.integ != nullptr) {
      d.integ->valid = false;  // trust-on-first-use re-seeds later
    }
  }
  // !has_committed: the data was never written as of the committed epoch;
  // leaving every instance invalid re-creates exactly that state (the
  // replayed epoch writes it before any read, or the original run would
  // have thrown on an uninitialized read already).
}

bool checkpoint_manager::try_restart(const task_dep_untyped* const* deps,
                                     std::size_t n) {
  if (replaying_ || restarts_ >= opts_.max_restarts) {
    return false;
  }
  ++restarts_;
  backend_stats& bs = st_->backend->mutable_stats();

  // Quiesce: every accepted operation — compute, coherence copies,
  // snapshot copies, blacklist evacuations — completes before state is
  // rewritten. After this the DES is empty and all event lists are
  // completed.
  try {
    st_->backend->fence();
  } catch (...) {
    // The in-flight epoch was refused at launch (e.g. its graph targets
    // the failed device). Fail-stop: none of it executed, and the rollback
    // below discards its submission-side effects anyway.
  }
  st_->backend->wait_idle();

  st_->sweep_registry();
  for (entry& e : entries_) {
    auto d = e.data.lock();
    if (!d) {
      continue;
    }
    if (!e.has_committed && e.committed_version == 0) {
      // Never captured (enabled mid-run over unsettled data): there is no
      // snapshot to roll back to. Leave the data untouched.
      continue;
    }
    bool touched =
        d->write_version != e.committed_version || d->poisoned_by != 0;
    // The failing task's written deps never reached release_dep, so their
    // write_version still matches — but a partial submission may have
    // scribbled the buffers. Roll them back too.
    for (std::size_t i = 0; !touched && i < n; ++i) {
      touched = mode_writes(deps[i]->mode) && deps[i]->data.get() == d.get();
    }
    if (touched) {
      restore_entry(e, *d);
    }
  }
  ++bs.rollbacks;

  // Deterministic replay: re-enter the builders in original submission
  // order. Device selection re-runs against the updated blacklist, so the
  // epoch lands on the surviving devices; the numerics are host-simulated
  // and device-independent, so results stay bit-identical. A permanent
  // failure inside the replay falls through to poison-and-cancel
  // (replaying_ guards re-entry).
  replaying_ = true;
  try {
    for (std::size_t i = 0; i < log_.size(); ++i) {
      log_[i]();
      ++bs.tasks_replayed;
    }
  } catch (...) {
    replaying_ = false;
    throw;
  }
  replaying_ = false;
  // The log stays: the epoch continues to grow until the next committed
  // checkpoint, and a later restart replays it from the same boundary.
  return true;
}

namespace detail {

bool try_epoch_restart(context_state& st, const task_dep_untyped* const* deps,
                       std::size_t n) {
  if (st.ckpt == nullptr) {
    return false;
  }
  return st.ckpt->try_restart(deps, n);
}

std::uint64_t fail_task_or_restart(context_state& st,
                                   const task_dep_untyped* const* deps,
                                   std::size_t n, std::string_view symbol,
                                   failure_kind kind, int device, int attempts,
                                   std::string what) {
  if (try_epoch_restart(st, deps, n)) {
    return 0;
  }
  return fail_task(st, deps, n, symbol, kind, device, attempts,
                   std::move(what));
}

}  // namespace detail

}  // namespace cudastf
