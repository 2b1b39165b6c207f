#!/usr/bin/env bash
# Builder-drift lint (DESIGN.md §13): the cross-cutting engines — fault
# retry and poison propagation, checkpoint replay recording, integrity
# verification, deadline arming, overload admission — attach to the shared
# submission pipeline in submit.{hpp,cpp}. The per-construct builder
# headers lower to an op_desc and hooks and must never call an engine
# entry point directly; a reference from a builder header means an engine
# is being re-inlined per builder, the exact drift this refactor removed.
#
# Exit 0 when clean, 1 with a file:line listing per violation.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
inc="$repo/src/cudastf/include/cudastf"

builders=(
  "$inc/task.hpp"
  "$inc/parallel_for.hpp"
  "$inc/launch.hpp"
)

# Engine entry points that must only be referenced from submit.{hpp,cpp}.
banned=(
  'record_replay'
  'verify_on_acquire'
  'run_verified'
  'run_resilient'
  'fail_task'
  'cancel_if_poisoned'
  'track_submission'
  'ensure_dl'
  '\badmit\('
  'msi_snapshot'
  'unpin_deps'
  'guard_partial'
  'output_hint_guard'
  'try_epoch_restart'
  'filter_blacklisted'
  'blacklist_device'
  'reroute_device'
  'record_failure'
  'pick_heft_device'
  # The round loop (retry, re-route, per-shard failure) lives in
  # submit_pipeline::execute; a builder naming its outcome types is
  # regrowing it.
  'resilient_result'
  'bad_device'
)

status=0
for f in "${builders[@]}"; do
  if [[ ! -f "$f" ]]; then
    echo "check_builder_drift: missing builder header: $f" >&2
    status=1
    continue
  fi
  for pat in "${banned[@]}"; do
    if hits="$(grep -EnH "$pat" "$f")"; then
      echo "check_builder_drift: engine entry point '$pat' referenced from a builder header (route it through submit.{hpp,cpp}):" >&2
      echo "$hits" >&2
      status=1
    fi
  done
done

if [[ "$status" == 0 ]]; then
  echo "check_builder_drift: builder headers are clean"
fi
exit "$status"
