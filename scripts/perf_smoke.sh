#!/bin/sh
# Perf gate on the benchmark package in perfbench/: builds it, runs its
# self-test, then one short traced scaled-grid run, and fails unless
# that run passed its correctness checks and interpretation costs at
# least 4x compiled replay per simulated transition. Both figures come
# from the same run on the same host, so the ratio does not depend on
# host speed; with the loop compiler off (HVX_COMPILE=off) both layers
# interpret, the ratio falls to about 1x, and the gate fails. General
# slowdowns are caught by running the benchmark (BENCHMARK.json) on a
# change and its parent side by side.
#
# usage: sh scripts/perf_smoke.sh   (from the repository root)
set -eu

MIN_RATIO=4

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
if [ -z "$interp" ] || [ -z "$replay" ]; then
    echo "perf-smoke: could not read the ns-per-transition layers" >&2
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
echo "perf-smoke: ok"
