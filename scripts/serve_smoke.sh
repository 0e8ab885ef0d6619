#!/bin/sh
# Sweep-server smoke test: a real hvx-serve process over loopback.
# Checks the ISSUE-level guarantees end to end:
#   1. a served spec report is byte-identical to a direct `run --spec`;
#   2. a warm resubmission dedupes against the cache (no worker run);
#   3. a panicking chaos probe runs once and fails typed; its failure
#      answers every re-submission without a run, and the server keeps
#      answering;
#   4. a flood of distinct heavy cells is shed with 429 while the
#      accept loop stays live;
#   5. kill -9 + restart on the same journal re-admits incomplete work
#      exactly once and serves recovered fingerprints from the cache.
# Run from the repository root.
set -eu

cargo build -q --release -p hvx-suite
repro="target/release/hvx-repro"
tmp=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

start_server() {
    # Sets the globals $server_pid and $addr (must not run in a
    # subshell, or the parent loses the pid).
    "$repro" serve --addr 127.0.0.1:0 --cache "$tmp/cache" \
        --journal "$tmp/journal.jsonl" >"$tmp/server.out" 2>"$tmp/server.err" &
    server_pid=$!
    i=0
    until grep -q "listening on" "$tmp/server.out" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "serve_smoke: server did not come up" >&2
            cat "$tmp/server.err" >&2
            exit 1
        fi
        sleep 0.1
    done
    addr=$(sed -n 's/^hvx-serve: listening on //p' "$tmp/server.out" | head -1)
}

field() {
    # $1 = JSON text, $2 = key -> unquoted scalar value
    printf '%s\n' "$1" | sed -n "s/^  \"$2\": \"\{0,1\}\([^\",]*\)\"\{0,1\},\{0,1\}\$/\1/p" | head -1
}

echo "== start server, round-trip the shipped spec =="
start_server
direct=$("$repro" run --spec specs/consolidation-8to1.json)

sub=$("$repro" serve submit --addr "$addr" --spec specs/consolidation-8to1.json --wait 60)
state=$(field "$sub" state)
if [ "$state" != "done" ]; then
    echo "serve_smoke: cold submission ended '$state', expected done: $sub" >&2
    exit 1
fi
# The served report must be byte-identical to the direct run: compare
# through the JSON envelope's escaped form.
served_escaped=$(printf '%s\n' "$sub" | sed -n 's/^  "report": "\(.*\)",\{0,1\}$/\1/p')
direct_escaped=$(printf '%s' "$direct" | awk 'BEGIN{ORS="\\n"} {gsub(/\\/,"\\\\"); gsub(/"/,"\\\""); print}')
if [ "$served_escaped" != "$direct_escaped" ]; then
    echo "serve_smoke: served report diverged from direct run" >&2
    printf 'served: %s\ndirect: %s\n' "$served_escaped" "$direct_escaped" >&2
    exit 1
fi

echo "== warm resubmission dedupes against the cache =="
warm=$("$repro" serve submit --addr "$addr" --spec specs/consolidation-8to1.json)
warm_status=$(field "$warm" status)
warm_cached=$(field "$warm" cached)
if [ "$warm_status" != "200" ] || [ "$warm_cached" != "true" ]; then
    echo "serve_smoke: warm submission not deduped (status=$warm_status cached=$warm_cached)" >&2
    exit 1
fi
stats=$("$repro" serve stats --addr "$addr")
hits=$(field "$stats" warm_hits)
if [ "$hits" != "1" ]; then
    echo "serve_smoke: expected 1 warm hit, got '$hits'" >&2
    exit 1
fi

echo "== chaos panic: typed failure, run once, answered from the record =="
runs() {
    "$repro" serve metrics --addr "$addr" | sed -n 's/^hvx_serve_run_us_count //p'
}
chaos=$("$repro" serve submit --addr "$addr" --chaos panic --wait 60)
if [ "$(field "$chaos" state)" != "failed" ] || [ "$(field "$chaos" cached)" != "false" ]; then
    echo "serve_smoke: chaos probe did not run and fail: $chaos" >&2
    exit 1
fi
case "$chaos" in
*'"kind": "panicked"'*) ;;
*)
    echo "serve_smoke: chaos failure not typed as panicked: $chaos" >&2
    exit 1
    ;;
esac
# A run is deterministic, so the failure is the probe's result: each
# re-submission is answered from the record at admission, and no
# worker runs again.
runs_before=$(runs)
if [ "$runs_before" != "2" ]; then
    # One run for the cold spec above and one for the probe.
    echo "serve_smoke: expected 2 runs so far, /metrics says '$runs_before'" >&2
    exit 1
fi
k=0
while [ "$k" -lt 3 ]; do
    k=$((k + 1))
    again=$("$repro" serve submit --addr "$addr" --chaos panic)
    if [ "$(field "$again" status)" != "200" ] || [ "$(field "$again" state)" != "failed" ] ||
        [ "$(field "$again" cached)" != "true" ]; then
        echo "serve_smoke: re-submission $k not answered from the record: $again" >&2
        exit 1
    fi
    polled=$("$repro" serve poll --addr "$addr" "$(field "$again" job)")
    case "$polled" in
    *'"kind": "panicked"'*) ;;
    *)
        echo "serve_smoke: re-submission $k lost the recorded failure: $polled" >&2
        exit 1
        ;;
    esac
done
if [ "$(runs)" != "$runs_before" ]; then
    echo "serve_smoke: re-submissions ran again ($runs_before -> $(runs) runs)" >&2
    exit 1
fi

echo "== flood sheds with 429, accept loop stays live =="
# Distinct heavy 16:1 cells (transaction counts never repeat) flood a
# freshly drained queue; the weight bound must shed some with 429.
# "Heavy" means a cell runs far longer than one submission takes (about
# 85 ms for a whole `run --spec` at 16 VMs x 8,000 transactions on a
# shared 2-vCPU VM), or the two workers drain the queue as fast as the
# flood fills it and nothing is left to recover after the kill below.
shed=0
n=0
while [ "$n" -lt 40 ]; do
    n=$((n + 1))
    cat > "$tmp/flood.json" <<EOF
{
  "hypervisor": "KvmArm",
  "topology": {"hosts": 1, "pcpus": 2, "vms": 16, "vcpus_per_vm": 2},
  "scheduler": "Credit",
  "workload": "TcpRr",
  "virq_policy": "Vcpu0",
  "transactions": $((8000 + n)),
  "fault": null,
  "watchdog": {"cycle_budget": null, "livelock_threshold": null}
}
EOF
    resp=$("$repro" serve submit --addr "$addr" --client "flood-$n" "--spec" "$tmp/flood.json")
    st=$(field "$resp" status)
    case "$st" in
    202) ;;
    429) shed=$((shed + 1)) ;;
    *)
        echo "serve_smoke: flood submission $n got status $st: $resp" >&2
        exit 1
        ;;
    esac
done
if [ "$shed" -eq 0 ]; then
    echo "serve_smoke: 40-deep flood never shed; backpressure is broken" >&2
    exit 1
fi
health=$("$repro" serve stats --addr "$addr")
if [ -z "$(field "$health" accepted_total)" ]; then
    echo "serve_smoke: stats unavailable during flood; accept loop wedged" >&2
    exit 1
fi
echo "   shed $shed of 40 flood submissions; server still answering"

echo "== kill -9, restart on the same journal: exactly-once recovery =="
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""
: > "$tmp/server.out"
start_server
recovered=$("$repro" serve stats --addr "$addr")
rec=$(field "$recovered" recovered_total)
if [ -z "$rec" ] || [ "$rec" = "0" ]; then
    echo "serve_smoke: restart recovered nothing from the journal: $recovered" >&2
    exit 1
fi
echo "   recovered $rec incomplete job(s) from the journal"
# The shipped spec's fingerprint is already cached: resubmission is a
# warm hit against the recovered server, byte-identical bytes again.
warm2=$("$repro" serve submit --addr "$addr" --spec specs/consolidation-8to1.json)
if [ "$(field "$warm2" cached)" != "true" ]; then
    echo "serve_smoke: cache did not survive the crash: $warm2" >&2
    exit 1
fi
# Wait for recovered work to finish, then drain cleanly: the server
# process must exit 0 by itself.
i=0
while :; do
    s=$("$repro" serve stats --addr "$addr")
    if [ "$(field "$s" queued)" = "0" ] && [ "$(field "$s" running)" = "0" ]; then
        break
    fi
    i=$((i + 1))
    if [ "$i" -gt 600 ]; then
        echo "serve_smoke: recovered work never finished: $s" >&2
        exit 1
    fi
    sleep 0.1
done
"$repro" serve drain --addr "$addr" >/dev/null
wait "$server_pid"
server_pid=""

echo "== restarting again recovers nothing (terminal records journaled) =="
: > "$tmp/server.out"
start_server
second=$("$repro" serve stats --addr "$addr")
# Every recovered job either finished (terminal journaled) or was
# served from the cache at bind time; a second restart may only
# re-admit work that was still incomplete at the kill. The shed flood
# cells were never journaled as terminal only if they were still
# queued/running at drain -- the drain above finished them, so: zero.
if [ "$(field "$second" queued)" != "0" ] || [ "$(field "$second" running)" != "0" ]; then
    echo "serve_smoke: second restart re-admitted finished work: $second" >&2
    exit 1
fi
"$repro" serve drain --addr "$addr" >/dev/null
wait "$server_pid"
server_pid=""

echo "serve_smoke: all checks passed"
