#!/bin/sh
# Golden-baseline regression gate: a clean `check` against the committed
# baseline (with the loop compiler on and off), a cache-smoke pass
# proving warm reruns skip every cell, and a drift drill proving a
# perturbed cost model is caught with a span delta report, a doorbell
# drill proving one cost field moves Table II and Figure 4 together, and
# a 2x2 drill proving a hardware cost field moves exactly its
# architecture's Figure 4 columns and a back-end field exactly its
# design's, and a storage drill proving the block back ends read each
# design's back-end cost. Run from the repository root.
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

echo "== 2x2 drill: hardware fields move an architecture, back-end fields a design =="
# Figure 4's columns are the paper's 2x2: {KVM, Xen} x {ARM, x86}. A
# hardware field must drift both hypervisors on its architecture and no
# other column; a back-end field must drift its design on both
# architectures and no other column.
for drill in "hw_eret:KVM ARM,Xen ARM" "vmentry:KVM x86,Xen x86" \
    "kvm_vhost_per_packet:KVM ARM,KVM x86" "xen_net_per_packet:Xen ARM,Xen x86"; do
    field=${drill%%:*}
    want=${drill#*:}
    status=0
    out=$(HVX_COST_PERTURB="$field=+97" "$repro" check fig4 2>&1) || status=$?
    if [ "$status" -ne 4 ]; then
        echo "baseline_check: expected exit 4 under $field=+97, got $status" >&2
        exit 1
    fi
    got=$(echo "$out" | sed -n 's/^ *fig4\[[^/]*\/\([^]]*\)\]:.*/\1/p' | LC_ALL=C sort -u | paste -sd, -)
    if [ "$got" != "$want" ]; then
        echo "baseline_check: $field=+97 drifted Figure 4 columns '$got', want '$want'" >&2
        exit 1
    fi
    echo "$field=+97 drifted exactly the $want columns (exit 4)"
done

echo "== storage drill: the block back ends read each design's back-end cost =="
# vhost-blk charges half of vhost's per-packet cost and blkback half of
# netback's, so perturbing either field must drift the storage ablation.
for field in kvm_vhost_per_packet xen_net_per_packet; do
    status=0
    out=$(HVX_COST_PERTURB="$field=+97" "$repro" check storage 2>&1) || status=$?
    if [ "$status" -ne 4 ]; then
        echo "baseline_check: expected exit 4 under $field=+97 check storage, got $status" >&2
        exit 1
    fi
    if ! echo "$out" | grep -q '^storage  *DRIFT'; then
        echo "baseline_check: $field=+97 did not drift storage" >&2
        exit 1
    fi
    echo "$field=+97 drifted storage (exit 4)"
done

echo "== the drill must not have poisoned the cache =="
"$repro" check --cache "$cache_dir" >/dev/null

rm -rf "$cache_dir"
echo "baseline_check: gate, cache, drift, doorbell, 2x2 and storage drills all pass"
