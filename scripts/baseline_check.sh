#!/bin/sh
# Golden-baseline regression gate: a clean `check` against the committed
# baseline (with the loop compiler on and off), a cache-smoke pass
# proving warm reruns skip every cell, and a drift drill proving a
# perturbed cost model is caught with a span delta report, plus a
# doorbell drill proving one cost field moves Table II and Figure 4
# together. Run from the repository root.
set -eu

cargo build -q --release -p hvx-suite
repro="target/release/hvx-repro"
cache_dir="target/baseline-check-cache"
rm -rf "$cache_dir"

echo "== check against the committed baseline (cold cache) =="
"$repro" check --cache "$cache_dir"

echo "== check with the loop compiler off: results must not depend on the tier =="
HVX_COMPILE=off "$repro" check

echo "== cache smoke: a warm check serves every cell from the cache =="
err=$("$repro" check --cache "$cache_dir" 2>&1 >/dev/null)
echo "$err" | grep "cache:"
case "$err" in
*"0 misses, 0 stores"*) ;;
*)
    echo "baseline_check: warm check re-ran scenarios instead of hitting the cache" >&2
    exit 1
    ;;
esac

echo "== drift drill: a perturbed cost model must exit 4 =="
status=0
out=$(HVX_COST_PERTURB=xen_grant_copy=+2000 "$repro" check --cache "$cache_dir" 2>&1) || status=$?
if [ "$status" -ne 4 ]; then
    echo "baseline_check: expected exit 4 under HVX_COST_PERTURB, got $status" >&2
    exit 1
fi
case "$out" in
*"DRIFT (bytes changed, input fingerprints unchanged)"*) ;;
*)
    echo "baseline_check: drift drill produced no DRIFT verdict" >&2
    exit 1
    ;;
esac
# zerocopy prints the grant-copy cost itself, so it must drift too.
if ! echo "$out" | grep -q '^zerocopy  *DRIFT'; then
    echo "baseline_check: drift drill did not name zerocopy" >&2
    exit 1
fi
case "$out" in
*"per-cell span deltas"*grant_copy*) ;;
*)
    echo "baseline_check: drift drill produced no span-delta report" >&2
    exit 1
    ;;
esac
case "$out" in
*"bypassing the result cache"*) ;;
*)
    echo "baseline_check: perturbed run did not bypass the cache" >&2
    exit 1
    ;;
esac
echo "drift drill caught the perturbation (exit 4, span deltas rendered)"

echo "== doorbell drill: one cost field reaches Table II and Figure 4 =="
# kvm_ioeventfd is charged once, in KVM ARM's virtio doorbell, which
# both I/O Latency Out and the transmit path run: a perturbation must
# move the microbenchmark and the applications together.
status=0
out=$(HVX_COST_PERTURB=kvm_ioeventfd=+97 "$repro" check 2>&1) || status=$?
if [ "$status" -ne 4 ]; then
    echo "baseline_check: expected exit 4 under kvm_ioeventfd=+97, got $status" >&2
    exit 1
fi
for artifact in table2 fig4; do
    if ! echo "$out" | grep -q "^$artifact  *DRIFT"; then
        echo "baseline_check: doorbell drill did not name $artifact" >&2
        exit 1
    fi
done
echo "doorbell drill moved table2 and fig4 together (exit 4)"

echo "== the drill must not have poisoned the cache =="
"$repro" check --cache "$cache_dir" >/dev/null

rm -rf "$cache_dir"
echo "baseline_check: gate, cache, drift and doorbell drills all pass"
