#!/bin/sh
# Event-tracing smoke test: a traced TCP_RR cell on all four measured
# hypervisors, structural validation of the exported Chrome trace
# (well-formed events, a complete kick->delivery flow chain, monotone
# per-track timestamps), the Fig. 4 delivery direction on ARM,
# ring-buffer drops, and off-mode byte-identity against the committed
# baselines. Run from the repository root.
set -eu

cargo build -q --release -p hvx-suite
repro="target/release/hvx-repro"
tmp="${TMPDIR:-/tmp}/hvx-trace-smoke-$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

echo "== traced TCP_RR exports a valid Chrome trace on all four measured hypervisors =="
for hv in kvm-arm xen-arm kvm-x86 xen-x86; do
    "$repro" trace tcp_rr --hypervisor "$hv" --out "$tmp/$hv.json" >"$tmp/$hv.txt"
    out=$("$repro" trace query "$tmp/$hv.json" --validate)
    echo "$hv: $out"
    case "$out" in
    *"trace OK"*"kick -> delivery present"*"monotone"*) ;;
    *)
        echo "trace_smoke: $hv trace failed validation" >&2
        exit 1
        ;;
    esac
done

echo "== the two arms disagree in the paper's direction (Fig. 4) =="
kvm_irq=$("$repro" trace query "$tmp/kvm-arm.json" | grep irq_delivery | tail -1 | awk '{print int($NF)}')
xen_irq=$("$repro" trace query "$tmp/xen-arm.json" | grep irq_delivery | tail -1 | awk '{print int($NF)}')
echo "irq_delivery mean: kvm-arm $kvm_irq cycles, xen-arm $xen_irq cycles"
if [ "$xen_irq" -le "$kvm_irq" ]; then
    echo "trace_smoke: expected Xen ARM interrupt delivery to cost more than KVM ARM" >&2
    exit 1
fi

echo "== ring mode bounds the buffer and reports drops =="
# The summary's events line reads "events: R recorded, D dropped (MODE)".
out=$("$repro" trace tcp_rr --hypervisor kvm-arm --ring 64 --out "$tmp/ring.json")
echo "$out" | grep '^events:'
full_recorded=$(awk '/^events:/ {print $2}' "$tmp/kvm-arm.txt")
ring_recorded=$(echo "$out" | awk '/^events:/ {print $2}')
ring_dropped=$(echo "$out" | awk '/^events:/ {print $4}')
case "$out" in
*"dropped (ring, 64 slots)"*) ;;
*)
    echo "trace_smoke: ring mode did not report its 64-slot ring" >&2
    exit 1
    ;;
esac
case "$ring_dropped" in
'' | *[!0-9]* | 0)
    echo "trace_smoke: a 64-slot ring dropped nothing (dropped: '$ring_dropped')" >&2
    exit 1
    ;;
esac
case "$full_recorded" in
'' | *[!0-9]* | 0)
    echo "trace_smoke: unbounded run recorded no charges ('$full_recorded')" >&2
    exit 1
    ;;
esac
if [ "$ring_recorded" != "$full_recorded" ]; then
    echo "trace_smoke: ring recorded '$ring_recorded' charges, unbounded run $full_recorded" >&2
    exit 1
fi

echo "== a corrupted trace is rejected with exit 1 =="
sed 's/"ph": "f"/"ph": "zz"/g' "$tmp/kvm-arm.json" >"$tmp/broken.json"
status=0
"$repro" trace query "$tmp/broken.json" --validate >/dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
    echo "trace_smoke: expected exit 1 on a broken trace, got $status" >&2
    exit 1
fi

echo "== tracing off leaves all pinned artifacts byte-identical =="
"$repro" check >/dev/null

echo "trace_smoke: export, validation, ring mode, and isolation all pass"
