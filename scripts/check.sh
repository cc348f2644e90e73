#!/usr/bin/env bash
# Full pre-merge gate: release build, the tests of every workspace crate
# (`cargo test --workspace`: the root package's integration tests, each
# crate's unit and property tests, the Perfetto trace-JSON smoke test
# tests/trace_smoke.rs, the repro CLI error table
# crates/experiments/tests/cli.rs and crates/bench/tests/contract.rs,
# which runs the three bench binaries at tiny inputs and checks every
# field the gate table below reads), one release run of each example at
# its smallest input (`cargo test` only compiles them; a non-zero exit
# fails), the pinned digests that `repro run scenarios/smoke.toml`,
# `repro why`, `repro telemetry`, `repro --scale 0.01 faults`, `repro
# --scale 0.05 faults` and `repro --scale 0.2 faults` print (one
# `check_digest` step each; the why step also writes trace files and
# telemetry shards), an explicit release run of
# tests/fleet.rs (the small-fleet golden plus the streaming
# merge-equivalence proptests pinning the loser-tree order and the
# stream-vs-reference FleetMetrics against the materialize+sort
# pipeline), an explicit release run of tests/parser_fuzz.rs (where
# arithmetic wraps, its page-range assertion is what catches an MSR byte
# range past u64::MAX), an explicit release run of the ignored full-scale
# trace digests (crates/trace/tests/digests.rs: every paper profile's
# synthetic trace at x1, 12.7 M requests; the debug workspace step checks
# x0.05), the benchmark/ package tests (--locked), clippy
# and rustdoc with warnings denied, and the wall-clock gates:
# `scripts/ab.sh HEAD --pairs 3 --seconds 5` A/B's the working tree against
# HEAD (on a clean tree an A/A run, so a "worse" row means the host or the
# harness is broken) over the benchmark's four workloads and the bench
# binaries, and judges the gate table's rows:
#   - sync path req/s per policy (hotpath, A/B, 2 %);
#   - flush window qd8/sync per policy (hotpath, within-run floor 0.85);
#   - attribution compiled out, attr-noop/noop per policy (hotpath,
#     within-run floor 0.98);
#   - `repro all` serial and parallel seconds (sweep, A/B, 5 % each);
#   - pool efficiency serial/(threads x parallel) when threads > 1 (sweep,
#     within-run floor 0.5);
#   - streaming fleet vs reference devices/s (fleet, within-run floor 0.90);
#   - streaming fleet devices/s (fleet, A/B, 10 %).
# Its JSON goes to target/ab/check.json, never over the committed
# BENCH_ab.json.
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

# Run `repro --out /tmp/reqblock_<name> <args>` and require the line
# `[digest <section> <want>]` on its stdout.
check_digest() {
    local name=$1 section=$2 want="[digest $2 $3]" got
    shift 3
    echo "== $name (repro $* vs pinned digest) =="
    got=$(./target/release/repro --out "/tmp/reqblock_$name" "$@" 2>/dev/null \
        | grep "^\[digest $section " || true)
    if [[ "$got" != "$want" ]]; then
        echo "FAIL: $name digest drifted: got '$got', want '$want'" >&2
        exit 1
    fi
    echo "$name digest ok: $got"
}

check_digest smoke smoke 8b55b878785a2112 --scale 0.001 --threads 2 run scenarios/smoke.toml
# Tail forensics; the run also writes trace files and telemetry shards.
check_digest why why b13fccf1953d9bb8 --scale 0.001 --threads 2 why
# The instrumented run, through the operand-free path; `telemetry <trace>`
# sets the scenario's trace axis.
check_digest telemetry telemetry_ts_0 3228496f6d714ae3 --scale 0.001 --threads 2 telemetry
# At this scale the fault sweep reaches every fault branch of the FTL
# write path: program and erase failures, rejected writes, read-only.
check_digest faults faults 9daa749e8bca803a --scale 0.01 --threads 2 faults
# Degraded devices are where GC bookkeeping that healthy runs never see
# (a block a failed migration leaves behind) could change a victim; at
# this scale the 1 % row ends read-only after 1 111 program and 28 erase
# failures.
check_digest faults05 faults b66693e3ff257bff --scale 0.05 --threads 2 faults
# The most degraded run: the 1 % row ends read-only after 4 445 program
# and 103 erase failures and 129 350 rejected pages.
check_digest faults2 faults 9b337c79911e89b6 --scale 0.2 --threads 2 faults

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

# Release arithmetic wraps instead of panicking, so only the fuzz's page
# range assertion catches an MSR byte range that wraps past u64::MAX.
echo "== parser fuzz (tests/parser_fuzz.rs, release) =="
cargo test -q --release --test parser_fuzz

# The x1 column of the trace digests is 12.7 M requests, too slow for the
# debug workspace step above, which checks the x0.05 column.
echo "== full-scale trace digests (crates/trace/tests/digests.rs, release, --ignored) =="
cargo test -q --release -p reqblock-trace -- --ignored

echo "== cargo clippy (warnings denied) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

if [[ "$RUN_BENCH" == 1 ]]; then
    echo "== wall-clock gates (scripts/ab.sh HEAD, 3 pairs) =="
    scripts/ab.sh HEAD --pairs 3 --seconds 5 --out target/ab/check.json
else
    echo "== bench gates skipped (--no-bench) =="
fi

echo "== all checks passed =="
