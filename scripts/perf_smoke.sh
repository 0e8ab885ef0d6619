#!/bin/sh
# Perf gate on the benchmark package in perfbench/: builds it, runs its
# self-test, then one short traced scaled-grid run, and fails unless
# that run
#
# - passed its correctness checks;
# - shows interpretation costing at least 100x compiled replay per
#   simulated transition. Both figures come from the same run on the
#   same host, so the ratio does not depend on host speed. Replay
#   jumps each steady regime of a loop in one step and reads over
#   1,000x; replay that walks every block again reads 6-9x, and
#   with the loop compiler off (HVX_COMPILE=off) both layers
#   interpret and the ratio falls to about 1x. Either fails the gate.
#   Its count twin is the tier-1 test tests/compile_counts.rs
#   (figure4_cells_enter_replay_with_one_exact_check_and_two_stepped_blocks),
#   which holds on any host: every Figure 4 cell at DEFAULT_SCALE
#   steps exactly two blocks and reaches the detector's exact check
#   once;
# - leaves at most 10% of the grid's and of the paper suite's wall
#   time outside the named layers (unattributed_pct and
#   suite.unattributed_pct);
# - runs the sharded rack cell at no less than 0.3x the serial one
#   (rack_sharded_ratio). A host with one core runs the serial
#   executor for both and reads about 1x; spawning threads every
#   shard window instead of once per run reads about 0.1x. Its count
#   twin is the tier-1 test tests/shard_threads.rs
#   (a_sharded_run_uses_min_jobs_hosts_threads_whatever_its_window_count),
#   which holds on any host: a sharded run uses exactly
#   min(jobs, hosts) threads and hands each host to one of them, at
#   two run lengths whose window counts differ at least twofold.
#
# General slowdowns are caught by running the benchmark
# (BENCHMARK.json) on a change and its parent side by side.
#
# usage: sh scripts/perf_smoke.sh   (from the repository root)
set -eu

MIN_RATIO=100
MAX_UNATTRIBUTED_PCT=10
MIN_SHARDED_RATIO=0.3

perfbench() {
    cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- "$@"
}

echo "== build perfbench =="
cargo build --release --manifest-path perfbench/Cargo.toml

echo "== perfbench self-test =="
perfbench --selftest

echo "== traced scaled-grid run =="
last="$(perfbench --workload scaled-grid --seed 1 --seconds 3 --trace 1 | tail -n 1)"
case "$last" in
'{"correct": true,'*) ;;
*)
    echo "perf-smoke: FAIL — the traced grid run did not pass its correctness checks" >&2
    echo "$last" >&2
    exit 1
    ;;
esac

metric() {
    printf '%s\n' "$last" | sed -n "s/.*\"$1\": {\"value\": \([^,}]*\).*/\1/p"
}
interp="$(metric 'workloads\.interp_ns_per_transition')"
replay="$(metric 'workloads\.replay_ns_per_transition')"
unattributed="$(metric 'unattributed_pct')"
suite_unattributed="$(metric 'suite\.unattributed_pct')"
sharded_ratio="$(metric 'rack_sharded_ratio')"
if [ -z "$interp" ] || [ -z "$replay" ] || [ -z "$unattributed" ] ||
    [ -z "$suite_unattributed" ] || [ -z "$sharded_ratio" ]; then
    echo "perf-smoke: could not read the checked layers from the traced run" >&2
    echo "$last" >&2
    exit 1
fi

awk -v i="$interp" -v r="$replay" -v min="$MIN_RATIO" 'BEGIN {
    ratio = (r > 0) ? i / r : 0
    printf "perf-smoke: interpreted %.2f ns vs compiled replay %.2f ns per transition (%.1fx)\n", i, r, ratio
    if (ratio < min) {
        printf "perf-smoke: FAIL — interpretation is less than %dx the cost of compiled replay\n", min
        exit 1
    }
}'
awk -v g="$unattributed" -v s="$suite_unattributed" -v max="$MAX_UNATTRIBUTED_PCT" 'BEGIN {
    printf "perf-smoke: unattributed wall time %.2f%% of the grid, %.2f%% of the paper suite\n", g, s
    if (g > max || s > max) {
        printf "perf-smoke: FAIL — more than %d%% of a traced run is outside the named layers\n", max
        exit 1
    }
}'
awk -v r="$sharded_ratio" -v min="$MIN_SHARDED_RATIO" 'BEGIN {
    printf "perf-smoke: sharded rack at %.2fx the serial rack\n", r
    if (r < min) {
        printf "perf-smoke: FAIL — the sharded rack runs below %.1fx the serial one\n", min
        exit 1
    }
}'
echo "perf-smoke: ok"
