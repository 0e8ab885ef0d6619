#!/bin/sh
# Repo gate: formatting + the tier-1 verify from ROADMAP.md.
# Run from the repository root. Fails fast on the first broken step.
set -eu

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q (workspace) =="
cargo test -q --workspace

echo "== cargo clippy, test code included (warnings denied) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --no-deps (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== profile smoke =="
sh scripts/profile_smoke.sh

echo "== fault smoke =="
sh scripts/fault_smoke.sh

echo "== trace smoke =="
sh scripts/trace_smoke.sh

echo "== sched smoke =="
sh scripts/sched_smoke.sh

echo "== rack smoke =="
sh scripts/rack_smoke.sh

echo "== serve smoke =="
sh scripts/serve_smoke.sh

echo "== observability smoke =="
sh scripts/obs_serve_smoke.sh

echo "== baseline gate =="
sh scripts/baseline_check.sh

echo "== perf smoke =="
sh scripts/perf_smoke.sh

echo "ci: all checks passed"
