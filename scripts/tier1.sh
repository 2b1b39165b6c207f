#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite, then the
# Table I task-overhead benchmark in JSON mode, and the Fig. 3 out-of-core,
# Fig. 8 multi-device Cholesky, Table II reduction, chaos and Fig. 10
# graph-backend benchmarks, whose JSON must equal BENCH_fig3.json,
# BENCH_fig8.json, BENCH_table2.json, BENCH_chaos.json and BENCH_fig10.json
# byte for byte.
# Exits nonzero on any failure.
# Usage: scripts/tier1.sh [--sanitize] [--tsan] [--bench-smoke] [--chaos]
#                         [build-dir]
#
# --sanitize additionally builds an ASan+UBSan tree (build-asan) and runs
# the fault-injection, checkpoint, eviction and transfer tests under it —
# the error and recovery paths are where lifetime bugs would hide — plus
# the simulator's stream/event suite (events holding recycled nodes).
#
# --tsan additionally builds a ThreadSanitizer tree (build-tsan) and runs
# the context-lock, parallel-submission, concurrency, fast-path,
# fault-injection, transfer, memory-engine, eviction and simulator
# stream/event tests under it — multi-threaded submission under the context
# lock (DESIGN.md §11) and lock-free event queries racing node recycling
# are where data races would hide.
#
# --bench-smoke additionally runs every --json benchmark once and diffs the
# set of JSON record keys against the checked-in BENCH_*.json baselines —
# a renamed or dropped counter fails fast, without pinning the (noisy)
# values themselves.
#
# --chaos additionally runs a seeded fault-injection soak: the checkpoint,
# fault-injection, integrity (silent-corruption), deadline and submission
# pipeline (failure-outcome matrix) suites loop over distinct seeds until
# the wall-clock budget (CHAOS_BUDGET seconds, default 60) is spent. Seeds are printed so a failure reproduces with
# CHAOS_SEED=<n>.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
sanitize=0
tsan=0
bench_smoke=0
chaos=0
while [[ "${1:-}" == --* ]]; do
  case "$1" in
    --sanitize) sanitize=1 ;;
    --tsan) tsan=1 ;;
    --bench-smoke) bench_smoke=1 ;;
    --chaos) chaos=1 ;;
    *)
      echo "usage: scripts/tier1.sh [--sanitize] [--tsan] [--bench-smoke] [--chaos] [build-dir]" >&2
      exit 2
      ;;
  esac
  shift
done
build="${1:-$repo/build}"
jobs="$(nproc 2>/dev/null || echo 4)"

cmake -S "$repo" -B "$build"
cmake --build "$build" -j "$jobs"
# Engine entry points live in submit.{hpp,cpp} only (DESIGN.md §13); a
# builder header referencing one is structural drift and fails the run.
"$repo/scripts/check_builder_drift.sh"
# Wall-clock timeout: the suite exercises hang injection and recovery; if a
# regression ever wedges a real (non-virtual) wait, the run fails loudly
# instead of hanging CI. Normal runs finish in seconds.
timeout --signal=KILL "${TIER1_CTEST_TIMEOUT:-600}" \
  ctest --test-dir "$build" --output-on-failure -j "$jobs"
"$build/bench/bench_table1_task_overhead" --json
# Virtual-time gates: every field of these JSON outputs is virtual time or
# a count, so each must match its checked-in baseline byte for byte. Any
# drift of the out-of-core victim policy (Fig. 3), the multi-device stream
# backend (Fig. 8), the reduction planner (Table II), the recovery ladders
# (chaos) or graph-epoch memoization (Fig. 10) fails the run.
for pair in \
  "bench_fig3_oom_cholesky:BENCH_fig3.json" \
  "bench_fig8_cholesky:BENCH_fig8.json" \
  "bench_table2_reduction:BENCH_table2.json" \
  "bench_chaos:BENCH_chaos.json" \
  "bench_fig10_miniweather_graphs:BENCH_fig10.json"; do
  bench="${pair%%:*}"
  if ! "$build/bench/$bench" --json | cmp - "$repo/${pair##*:}"; then
    echo "tier1: $bench --json differs from ${pair##*:}" >&2
    exit 1
  fi
done

# Sorted unique JSON object keys of a record stream — the schema, not the
# values.
json_keys() {
  grep -o '"[A-Za-z_][A-Za-z_0-9]*"[[:space:]]*:' "$1" | tr -d ' :' | sort -u
}

if [[ "$bench_smoke" == 1 ]]; then
  smoke_dir="$(mktemp -d)"
  trap 'rm -rf "$smoke_dir"' EXIT
  status=0
  for pair in \
    "bench_table1_task_overhead:BENCH_table1.json" \
    "bench_fig3_oom_cholesky:BENCH_fig3.json" \
    "bench_fig8_cholesky:BENCH_fig8.json" \
    "bench_table2_reduction:BENCH_table2.json" \
    "bench_chaos:BENCH_chaos.json" \
    "bench_fig10_miniweather_graphs:BENCH_fig10.json"; do
    bench="${pair%%:*}"
    baseline="$repo/${pair##*:}"
    out="$smoke_dir/$bench.json"
    echo "bench-smoke: $bench"
    "$build/bench/$bench" --json > "$out"
    if ! diff <(json_keys "$baseline") <(json_keys "$out") > "$smoke_dir/$bench.diff"; then
      echo "bench-smoke: $bench JSON keys drifted from ${pair##*:}:" >&2
      cat "$smoke_dir/$bench.diff" >&2
      status=1
    fi
  done
  [[ "$status" == 0 ]] || exit "$status"
  echo "bench-smoke: all benchmark JSON schemas match their baselines"

  # Task-overhead guard (Table I): the submission pipeline must not slow
  # the per-task cost. Compare the aggregate mean_us_per_task of this run
  # against the checked-in baseline; fail on a >10% regression. Aggregating
  # over all topology/device/thread records absorbs per-record noise while
  # still catching a systematic slowdown of the submission path.
  mean_us() {
    grep -o '"mean_us_per_task"[[:space:]]*:[[:space:]]*[0-9.]*' "$1" |
      awk -F: '{ sum += $2; n += 1 } END { if (n) printf "%.6f", sum / n }'
  }
  base_us="$(mean_us "$repo/BENCH_table1.json")"
  new_us="$(mean_us "$smoke_dir/bench_table1_task_overhead.json")"
  echo "bench-smoke: µs/task aggregate baseline=$base_us current=$new_us"
  if ! awk -v b="$base_us" -v n="$new_us" \
      'BEGIN { exit !(b > 0 && n <= b * 1.10) }'; then
    echo "bench-smoke: task overhead regressed >10% vs BENCH_table1.json" \
         "(baseline ${base_us}µs/task, current ${new_us}µs/task)" >&2
    exit 1
  fi
fi

if [[ "$chaos" == 1 ]]; then
  budget="${CHAOS_BUDGET:-60}"
  deadline=$((SECONDS + budget))
  seed="${CHAOS_SEED:-1}"
  rounds=0
  # The suites are already seeded internally (fault schedules are part of
  # each test); gtest_shuffle varies the interleaving per round so the soak
  # explores pool-recycling and ordering interactions, deterministically
  # per printed seed. The virtual-time DES makes each round cheap; the
  # watchdog converts any hang into a diagnostic failure well inside the
  # budget.
  while (( SECONDS < deadline )); do
    echo "chaos: round $rounds (seed $seed, $((deadline - SECONDS))s left)"
    "$build/tests/test_checkpoint" \
      --gtest_shuffle --gtest_random_seed="$((seed % 30000))" \
      --gtest_brief=1
    "$build/tests/test_fault_injection" \
      --gtest_shuffle --gtest_random_seed="$((seed % 30000))" \
      --gtest_brief=1
    "$build/tests/test_integrity" \
      --gtest_shuffle --gtest_random_seed="$((seed % 30000))" \
      --gtest_brief=1
    # Stall soak: the deadline suite carries its own seeded hang schedules
    # (permanent and transient stalls, backpressure, cancellation); shuffled
    # ordering varies pool recycling across rounds.
    "$build/tests/test_deadline" \
      --gtest_shuffle --gtest_random_seed="$((seed % 30000))" \
      --gtest_brief=1
    # Failure-outcome matrix: every construct under every failure class on
    # both backends, through the one submission round loop.
    "$build/tests/test_submit_pipeline" \
      --gtest_shuffle --gtest_random_seed="$((seed % 30000))" \
      --gtest_brief=1
    seed=$((seed + 1))
    rounds=$((rounds + 1))
  done
  echo "chaos: $rounds rounds completed within ${budget}s budget"
fi

if [[ "$sanitize" == 1 ]]; then
  asan_build="$repo/build-asan"
  cmake -S "$repo" -B "$asan_build" -DREPRO_SANITIZE=ON
  cmake --build "$asan_build" -j "$jobs" \
    --target test_fault_injection test_eviction test_checkpoint \
             test_mem_engine test_integrity test_deadline \
             test_submit_pipeline test_transfer test_cudasim_stream
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
    "$asan_build/tests/test_fault_injection"
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
    "$asan_build/tests/test_eviction"
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
    "$asan_build/tests/test_checkpoint"
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
    "$asan_build/tests/test_mem_engine"
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
    "$asan_build/tests/test_integrity"
  # Cancellation must not leak or double-release pinned instances
  # (DESIGN.md §12): the deadline suite's eviction-after-cancel test is the
  # regression gate.
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
    "$asan_build/tests/test_deadline"
  # Observer records cross the failure/cancellation paths (DESIGN.md §13):
  # emission after rollback is where a dangling dep record would hide.
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
    "$asan_build/tests/test_submit_pipeline"
  # The transfer planner keeps outbound-copy events in per-source buckets
  # across drains (DESIGN.md §6): an event read past its node's recycling
  # would show here.
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
    "$asan_build/tests/test_transfer"
  # Events keep pointers to DES nodes that gc() recycles into new work: a
  # read of freed memory would show here.
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
    "$asan_build/tests/test_cudasim_stream"
fi

if [[ "$tsan" == 1 ]]; then
  tsan_build="$repo/build-tsan"
  cmake -S "$repo" -B "$tsan_build" -DREPRO_TSAN=ON
  cmake --build "$tsan_build" -j "$jobs" \
    --target test_context_lock test_parallel_submit test_concurrency_api \
             test_fastpath test_fault_injection test_deadline \
             test_submit_pipeline test_transfer test_mem_engine test_eviction \
             test_cudasim_stream
  # The context lock itself: recursion, mutual exclusion with its
  # happens-before edge, release on a throw, and waiters behind a holder.
  TSAN_OPTIONS=halt_on_error=1 "$tsan_build/tests/test_context_lock"
  TSAN_OPTIONS=halt_on_error=1 "$tsan_build/tests/test_parallel_submit"
  # Raw std::thread submission into one context: the path every
  # multi-threaded submission takes.
  TSAN_OPTIONS=halt_on_error=1 "$tsan_build/tests/test_concurrency_api"
  TSAN_OPTIONS=halt_on_error=1 "$tsan_build/tests/test_fastpath"
  TSAN_OPTIONS=halt_on_error=1 "$tsan_build/tests/test_fault_injection"
  # Parallel submission racing backpressure, cancellation and restart.
  TSAN_OPTIONS=halt_on_error=1 "$tsan_build/tests/test_deadline"
  # MT workers entering/leaving the fast path around observer attach and
  # detach — where a race between emission and submission would hide.
  TSAN_OPTIONS=halt_on_error=1 "$tsan_build/tests/test_submit_pipeline"
  # The planner reads the DES completion counter unlocked, relying on the
  # context lock that every drain runs under (DESIGN.md §6, §11).
  TSAN_OPTIONS=halt_on_error=1 "$tsan_build/tests/test_transfer"
  # The victim lists link instances through raw pointers that every
  # submitting thread's acquire moves; all of it runs under the context
  # mutex (DESIGN.md §9, §11).
  TSAN_OPTIONS=halt_on_error=1 "$tsan_build/tests/test_mem_engine"
  TSAN_OPTIONS=halt_on_error=1 "$tsan_build/tests/test_eviction"
  # Threads query events lock-free while another drains and recycles their
  # nodes: the node's id and done flag are the only fields read unlocked.
  TSAN_OPTIONS=halt_on_error=1 "$tsan_build/tests/test_cudasim_stream"
fi
