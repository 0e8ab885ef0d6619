#!/bin/sh
# Scheduler/consolidation smoke test: the 1:1 and 8:1 sweep endpoints
# via `run --spec`, steal monotonicity between them, the 64:1 endpoint
# that specs accept under both schedulers, and spec round-trip
# identity. Run from the repository root.
set -eu

cargo build -q --release -p hvx-suite
repro="target/release/hvx-repro"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

steal_of() {
    # "steal:        189107013 cycles (...)" -> 189107013
    printf '%s\n' "$1" | sed -n 's/^steal: *\([0-9]*\) cycles.*/\1/p'
}

make_spec() {
    # $1 = vms, $2 = scheduler (default Credit), $3 = file name suffix
    cat > "$tmp/spec-$1${3:-}.json" <<EOF
{
  "hypervisor": "KvmArm",
  "topology": {
    "hosts": 1,
    "pcpus": 2,
    "vms": $1,
    "vcpus_per_vm": 2
  },
  "scheduler": "${2:-Credit}",
  "workload": "TcpRr",
  "virq_policy": "Vcpu0",
  "transactions": null,
  "fault": null,
  "watchdog": {
    "cycle_budget": null,
    "livelock_threshold": null
  }
}
EOF
}

echo "== 1:1 endpoint: no steal =="
make_spec 1
one=$("$repro" run --spec "$tmp/spec-1.json")
echo "$one"
steal_one=$(steal_of "$one")
if [ "$steal_one" != "0" ]; then
    echo "sched_smoke: 1:1 cell reported steal $steal_one, expected 0" >&2
    exit 1
fi

echo "== 8:1 endpoint: steal strictly positive =="
make_spec 8
eight=$("$repro" run --spec "$tmp/spec-8.json")
echo "$eight"
steal_eight=$(steal_of "$eight")
if [ "$steal_eight" -le "$steal_one" ]; then
    echo "sched_smoke: steal not monotone: 1:1=$steal_one, 8:1=$steal_eight" >&2
    exit 1
fi
case "$eight" in
*"8 VMs x 2 vCPUs on 2 pCPUs, 8:1"*) ;;
*)
    echo "sched_smoke: 8:1 report missing its topology line" >&2
    exit 1
    ;;
esac

echo "== 64:1 endpoint: more steal than 8:1, reproducible, both schedulers =="
make_spec 8 Cfs -cfs
eight_cfs=$("$repro" run --spec "$tmp/spec-8-cfs.json")
make_spec 64 Credit
make_spec 64 Cfs -cfs
for sched in credit cfs; do
    if [ "$sched" = credit ]; then
        spec="$tmp/spec-64.json"
        base=$steal_eight
    else
        spec="$tmp/spec-64-cfs.json"
        base=$(steal_of "$eight_cfs")
    fi
    sixty_four=$("$repro" run --spec "$spec")
    echo "$sixty_four"
    case "$sixty_four" in
    *"64 VMs x 2 vCPUs on 2 pCPUs, 64:1"*"scheduler:    $sched"*) ;;
    *)
        echo "sched_smoke: 64:1 $sched report missing its topology or scheduler line" >&2
        exit 1
        ;;
    esac
    steal_64=$(steal_of "$sixty_four")
    if [ "$steal_64" -le "$base" ]; then
        echo "sched_smoke: $sched steal not monotone: 8:1=$base, 64:1=$steal_64" >&2
        exit 1
    fi
    if [ "$sixty_four" != "$("$repro" run --spec "$spec")" ]; then
        echo "sched_smoke: two runs of the 64:1 $sched spec diverged" >&2
        exit 1
    fi
done

echo "== spec runs are reproducible and match the shipped example =="
again=$("$repro" run --spec "$tmp/spec-8.json")
if [ "$eight" != "$again" ]; then
    echo "sched_smoke: two runs of the same spec diverged" >&2
    exit 1
fi
shipped=$("$repro" run --spec specs/consolidation-8to1.json)
if [ "$eight" != "$shipped" ]; then
    echo "sched_smoke: shipped example diverged from the inline spec" >&2
    exit 1
fi

echo "== retired legacy interface points at run =="
status=0
err=$("$repro" oversub 2>&1 >/dev/null) || status=$?
if [ "$status" != "2" ]; then
    echo "sched_smoke: legacy invocation exited $status, expected 2" >&2
    exit 1
fi
case "$err" in
*"use 'hvx-repro run oversub ...'"*) ;;
*)
    echo "sched_smoke: retirement message missing the run pointer: $err" >&2
    exit 1
    ;;
esac

echo "sched_smoke: all checks passed"
