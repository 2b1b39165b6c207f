// Fault-recovery helpers behind the submission slow path (DESIGN.md §5/§7).
//
// The submission pipeline's round loop (submit_pipeline::execute,
// DESIGN.md §13) drives these for every construct; they are implemented
// in fault.cpp. None of this is touched on the fault-free fast path.
//
// Escalation ladder for a failed submission (DESIGN.md §7):
//   1. transient fault  -> retry with virtual-time backoff (run_resilient)
//   2. device lost      -> blacklist + evacuate + re-route to a survivor
//                          (the next round, via filter_blacklisted)
//   3. still permanent  -> epoch restart: roll data back to the committed
//                          checkpoint and replay the submission log
//                          (fail_task_or_restart -> checkpoint.hpp)
//   4. no checkpoint / restarts exhausted / failure during replay
//                       -> poison written data, cancel dependents
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cudastf/checkpoint.hpp"  // fail_task_or_restart / try_epoch_restart
#include "cudastf/context_state.hpp"
#include "cudastf/data.hpp"
#include "cudastf/error.hpp"

namespace cudastf::detail {

/// If any dependency's data is poisoned, records the task as cancelled
/// (cause chain = the poisoning failure ids), propagates poison to the
/// deps the task would have written, and returns true: the caller must not
/// execute the task.
bool cancel_if_poisoned(context_state& st, const task_dep_untyped* const* deps,
                        std::size_t n, std::string_view symbol);

/// Records a permanent task failure, poisons every written dependency and
/// switches the context into recovery mode. Returns the failure id.
std::uint64_t fail_task(context_state& st, const task_dep_untyped* const* deps,
                        std::size_t n, std::string_view symbol,
                        failure_kind kind, int device, int attempts,
                        std::string detail);

/// Drops the acquire-time pins of every dependency (a failed submission
/// never reaches release_dep, which normally unpins).
void unpin_deps(const task_dep_untyped* const* deps, std::size_t n);

/// MSI states of every instance of the given deps, captured before acquire
/// so a failed submission can be rolled back. restore() resets captured
/// instances to their old state and invalidates instances created since
/// (their fill-copy belongs to the submission being rolled back). Event
/// lists are left merged, never restored: over-synchronization is safe.
class msi_snapshot {
 public:
  void capture(const task_dep_untyped* const* deps, std::size_t n);
  void restore() const;

 private:
  struct entry {
    logical_data_impl* data;
    std::vector<std::pair<data_instance*, msi_state>> states;
  };
  std::vector<entry> entries_;
};

/// Removes blacklisted devices from the `n` entries of `devices` in place,
/// shrinking `n`. If that empties the list, re-routes each original device
/// onto a surviving one (survivors[d % n], deduplicated), so a one-device
/// list is re-routed exactly like reroute_device() and a task, a host op
/// and a whole grid recover through the one round loop. Returns whether
/// any device was blacklisted; throws device_lost_error when no device in
/// the platform survives.
bool filter_blacklisted(context_state& st, int* devices, std::size_t& n);

/// Outcome of run_resilient.
struct resilient_result {
  event ev;  ///< completion event (always recorded, meaningful on success)
  cudasim::sim_status status = cudasim::sim_status::success;
  bool partial = false;
  int attempts = 1;
};

/// Submits `payload` through the backend, absorbing transient faults with
/// up to retry.max_attempts attempts under exponential virtual-time
/// backoff. Returns on success, on a partial submission (never retried:
/// the executed prefix must not run twice), on a non-transient status, or
/// when attempts are exhausted.
resilient_result run_resilient(
    context_state& st, int device, backend_iface::channel ch,
    const event_list& ready,
    const std::function<void(cudasim::stream&)>& payload,
    std::string_view symbol);

/// Lifetime guard for failed (whole or partial) submissions: work already
/// submitted still references the dep instances asynchronously, so its
/// completion events must gate their deferred destruction and order any
/// retry's coherency copies after it. Null events are skipped.
void guard_partial(const task_dep_untyped* const* deps, std::size_t n,
                   const data_place* resolved, const event_list& evs);

}  // namespace cudastf::detail
