#!/usr/bin/env bash
# Full pre-merge gate: release build, the tests of every workspace crate
# (`cargo test --workspace`: the root package's integration tests, each
# crate's unit and property tests, the Perfetto trace-JSON smoke test
# tests/trace_smoke.rs and the repro CLI error table
# crates/experiments/tests/cli.rs), one release run of each example at
# its smallest input (`cargo test` only compiles them; a non-zero exit
# fails), the pinned digests that `repro run scenarios/smoke.toml`,
# `repro why` and `repro --scale 0.01 faults` print (the why step also
# writes trace files and telemetry shards), an explicit release run of
# tests/fleet.rs (the small-fleet golden plus the streaming
# merge-equivalence proptests pinning the loser-tree order and the
# stream-vs-reference FleetMetrics against the materialize+sort
# pipeline), the benchmark/ package tests (--locked), clippy and rustdoc with
# warnings denied, and the benchmark gates from scripts/bench.sh — the
# hot-path median gates (the <2% no-op recorder overhead check and the
# <2% attribution-compiled-out check), the small-scale sweep gate
# (`repro all` pool median wall-clock, >5% median regression fails), and
# the fleet gate (streaming engine median devices/s vs the same-attempt
# materialized reference and the committed fleet_stream baseline).
#
# Usage: scripts/check.sh [--no-bench]
#
# The bench step measures wall-clock and needs an otherwise idle machine;
# --no-bench skips it for correctness-only runs (CI boxes under load).
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_BENCH=1
while [[ $# -gt 0 ]]; do
    case "$1" in
        --no-bench) RUN_BENCH=0; shift ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

echo "== cargo build --release =="
cargo build --release
# The smoke step below runs the repro binary, which the root package does
# not depend on: build it so the pinned digest checks the current code.
cargo build --release -p reqblock-experiments --bin repro

echo "== cargo test --workspace =="
cargo test -q --workspace

# `cargo test` only compiles the examples; run each once so one that
# panics or exits non-zero fails here.
echo "== examples (release, smallest input) =="
cargo build --release --examples
for run in "quickstart" "policy_comparison ts_0 0.001" "trace_analysis ts_0 0.001" "vdi_replay"; do
    read -r name args <<<"$run"
    echo "-- $run"
    # shellcheck disable=SC2086 # $args is a word list
    ./target/release/examples/"$name" $args >/dev/null
done

# benchmark/ is a workspace of its own, so neither the test step above nor
# clippy --workspace compiles it; build and test it against the current
# crate APIs here. --locked: its Cargo.lock is committed, so a change to
# the crates' dependency graph fails here instead of rewriting it.
echo "== benchmark package tests (benchmark/Cargo.toml, --locked) =="
cargo test -q --release --offline --locked --manifest-path benchmark/Cargo.toml

echo "== scenario smoke (scenarios/smoke.toml vs pinned digest) =="
SMOKE_WANT="[digest smoke 8b55b878785a2112]"
SMOKE_GOT=$(./target/release/repro --scale 0.001 --threads 2 --out /tmp/reqblock_smoke \
    run scenarios/smoke.toml 2>/dev/null | grep '^\[digest smoke ' || true)
if [[ "$SMOKE_GOT" != "$SMOKE_WANT" ]]; then
    echo "FAIL: smoke scenario digest drifted: got '$SMOKE_GOT', want '$SMOKE_WANT'" >&2
    exit 1
fi
echo "smoke digest ok: $SMOKE_GOT"

echo "== why (tail forensics vs pinned digest) =="
WHY_WANT="[digest why b13fccf1953d9bb8]"
WHY_GOT=$(./target/release/repro --scale 0.001 --threads 2 --out /tmp/reqblock_why \
    why 2>/dev/null | grep '^\[digest why ' || true)
if [[ "$WHY_GOT" != "$WHY_WANT" ]]; then
    echo "FAIL: why digest drifted: got '$WHY_GOT', want '$WHY_WANT'" >&2
    exit 1
fi
echo "why digest ok: $WHY_GOT"

echo "== faults (fault sweep at --scale 0.01 vs pinned digest) =="
# At this scale the sweep reaches every fault branch of the FTL write
# path: program and erase failures, rejected writes, read-only.
FAULTS_WANT="[digest faults 9daa749e8bca803a]"
FAULTS_GOT=$(./target/release/repro --scale 0.01 --threads 2 --out /tmp/reqblock_faults \
    faults 2>/dev/null | grep '^\[digest faults ' || true)
if [[ "$FAULTS_GOT" != "$FAULTS_WANT" ]]; then
    echo "FAIL: faults digest drifted: got '$FAULTS_GOT', want '$FAULTS_WANT'" >&2
    exit 1
fi
echo "faults digest ok: $FAULTS_GOT"

echo "== scenario list (every scenarios/*.toml validates) =="
LIST=$(./target/release/repro --list)
if grep -q '(invalid: ' <<<"$LIST"; then
    echo "FAIL: repro --list reports invalid scenario files:" >&2
    grep '(invalid: ' <<<"$LIST" >&2
    exit 1
fi
echo "scenario list ok: $(($(wc -l <<<"$LIST") - 1)) scenarios"

echo "== fleet golden + streaming merge-equivalence proptests (tests/fleet.rs, release) =="
cargo test -q --release --test fleet

echo "== cargo clippy (warnings denied) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

if [[ "$RUN_BENCH" == 1 ]]; then
    scripts/bench.sh
else
    echo "== bench gates skipped (--no-bench) =="
fi

echo "== all checks passed =="
