#!/bin/sh
# Fault-injection smoke test: the loss-sweep ablation, a faulted
# profile, scenario-failure exit codes, degraded-run byte-identity across
# --jobs, and empty-plan byte-identity.
# Run from the repository root.
set -eu

cargo build -q --release -p hvx-suite
repro="target/release/hvx-repro"

echo "== faultrec ablation under a fault plan =="
out=$("$repro" run faultrec \
    --fault-plan 'wire_drop=0.05,grant_copy_fail=0.02' --fault-seed 7 --jobs 2)
echo "$out" | head -12
case "$out" in
*"Ablation: fault injection & recovery"*) ;;
*)
    echo "fault_smoke: faultrec produced no report" >&2
    exit 1
    ;;
esac

echo "== faulted profile keeps conservation and shows retransmits =="
out=$("$repro" profile --scenario netperf-kvm-arm --fault-plan 'wire_drop=0.1')
case "$out" in
*"conservation exact"*) ;;
*)
    echo "fault_smoke: faulted profile broke conservation" >&2
    exit 1
    ;;
esac
case "$out" in
*tcp_retransmit*) ;;
*)
    echo "fault_smoke: faulted profile shows no tcp_retransmit span" >&2
    exit 1
    ;;
esac

echo "== a chaos scenario fails the run with exit 3 =="
status=0
"$repro" run table2 --chaos panic >/dev/null 2>&1 || status=$?
if [ "$status" -ne 3 ]; then
    echo "fault_smoke: expected exit 3 on scenario failure, got $status" >&2
    exit 1
fi

echo "== a forced timeout classifies as timed out (exit 3) =="
status=0
err=$("$repro" run table2 --chaos spin --cycle-budget 1000000 2>&1 >/dev/null) || status=$?
if [ "$status" -ne 3 ]; then
    echo "fault_smoke: expected exit 3 on timeout, got $status" >&2
    exit 1
fi
case "$err" in
*"timed out"*) ;;
*)
    echo "fault_smoke: timeout failure not classified as timed out" >&2
    exit 1
    ;;
esac

echo "== --keep-going demotes the failure to a warning (exit 0) =="
err=$("$repro" run table2 --chaos panic --keep-going 2>&1 >/dev/null)
case "$err" in
*"warning: scenario 'chaos-panic' panicked"*) ;;
*)
    echo "fault_smoke: --keep-going printed no failure warning" >&2
    exit 1
    ;;
esac

echo "== a degraded run prints the same bytes at --jobs 1 and --jobs 2 =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for jobs in 1 2; do
    "$repro" run fig4 oversub rack --cycle-budget 10000000 --keep-going \
        --jobs "$jobs" >"$tmp/jobs$jobs.txt" 2>/dev/null
done
if ! cmp -s "$tmp/jobs1.txt" "$tmp/jobs2.txt"; then
    echo "fault_smoke: degraded output differs between --jobs 1 and --jobs 2" >&2
    exit 1
fi
for line in '!! 27 of 36 cells failed' '!! 26 of 41 scenarios failed' \
    '!! 2 of 9 cells failed'; do
    if ! grep -q "^$line" "$tmp/jobs1.txt"; then
        echo "fault_smoke: degraded run printed no '$line' line" >&2
        exit 1
    fi
done

echo "== an empty plan leaves pinned artifacts byte-identical =="
plain=$("$repro" run table2 table3 --jobs 1)
armed=$("$repro" run table2 table3 --jobs 1 --fault-plan 'wire_drop=0.0' --fault-seed 99)
if [ "$plain" != "$armed" ]; then
    echo "fault_smoke: empty fault plan changed pinned artifacts" >&2
    exit 1
fi

echo "fault_smoke: fault injection, recovery, and isolation all pass"
