#!/usr/bin/env bash
# Performance regression gates: build release, replay the hotpath and sweep
# benches, and compare against the committed BENCH_hotpath.json /
# BENCH_sweep.json baselines. All gates read median-of-repeats (robust to a
# single noisy repeat); best-of is still reported in the JSON.
#
# Hotpath gates (per policy, median req/s vs the committed baseline):
#   gate 1 (tolerance 20%): catches genuine hot-path regressions.
#   gate 2 (tolerance 2%):  tight bar for the disabled observability layer.
#           2% is below the noise floor of a busy machine, so this gate
#           retries (keeping the best median per policy across attempts)
#           and MUST be run on an otherwise idle box to be meaningful.
#   gate 3 (tolerance 5%):  the synchronous path vs the host_refactor
#           section — the simulator's submit path must not tax the
#           paper-faithful one-at-a-time path.
#   gate 4 (tolerance 15%): queued qd8 vs the synchronous path of the SAME
#           run — the flush window must keep out-of-order completion
#           within 15% of one-at-a-time submission. The ratio is
#           taken within each attempt (both sides see the same machine
#           conditions) and the best attempt's ratio is gated, so a slow
#           attempt cannot fail the gate on noise alone. The committed
#           `engine` baselines are reported alongside for context.
#   gate 5 (tolerance 2%):  attribution configured under the no-op
#           recorder (attr_noop) vs the plain no-op path of the SAME
#           attempt — the engine's double gate must monomorphize the whole
#           attribution layer away when the recorder is disabled. Like the
#           queued gate, the within-attempt ratio is gated and the best
#           attempt wins, so no committed baseline is needed.
#
# Sweep gate (tolerance 5%): the `repro all` pool, cached + parallel, must
#   not get slower than the committed median wall-clock. Like the 2% gate,
#   5% sits below a shared machine's noise floor, so the sweep runs
#   multiple attempts and gates on the best median per mode. The sweep
#   bench also asserts both modes emit byte-identical artifacts, so this
#   doubles as an end-to-end determinism check.
#
# Fleet gate (tolerance 10%): the streaming fleet engine (lazy loser-tree
#   merge, pooled simulators) replays the X8 loaded grid against the
#   materialized reference pipeline inside the same attempt and must keep
#   its median devices/s at parity or better — the streaming engine is a
#   memory optimization that is not allowed to cost throughput. Both the
#   within-attempt stream/reference ratio (gates 4-5 convention: best
#   attempt wins) and the committed `fleet_stream` median devices/s in
#   BENCH_sweep.json are gated. The bench bin asserts both pipelines emit
#   identical FleetMetrics, so this also re-checks equivalence, and its
#   counting global allocator reports each mode's peak alloc. --no-fleet
#   skips it.
#
# Thread-scaling section: runs the committed tails scenario through
#   `repro run` at 1, 2, and (if more cores exist) nproc threads, asserts
#   the emitted [digest ...] lines are identical at every thread count
#   (the pool's byte-identity contract, end to end through the binary),
#   and reports scaling efficiency T1/(t*Tt). The efficiency gate
#   (SCALING_MIN_EFF, default 0.5) only applies when the host has more
#   than one core; on a single-vCPU box the numbers are informational —
#   there is no parallel speedup to measure. --no-scaling skips it.
#
# Usage: scripts/bench.sh [--scale S] [--repeats N] [--attempts N]
#                         [--sweep-scale S] [--sweep-repeats N]
#                         [--sweep-attempts N] [--no-sweep] [--no-fleet]
#                         [--fleet-attempts N] [--no-scaling]
#        NOOP_TOLERANCE=0.02 REGRESSION_TOLERANCE=0.20 SYNC_TOLERANCE=0.05 \
#            QUEUED_TOLERANCE=0.15 ATTR_TOLERANCE=0.02 SWEEP_TOLERANCE=0.05 \
#            FLEET_TOLERANCE=0.10 scripts/bench.sh
#
# Numbers are wall-clock on whatever machine runs this; the committed
# baselines were taken on a single-vCPU container.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE=0.25
REPEATS=5
ATTEMPTS=3
SWEEP_SCALE=0.02
SWEEP_REPEATS=3
SWEEP_ATTEMPTS=2
FLEET_SCALE=0.01
FLEET_REPEATS=3
FLEET_ATTEMPTS=2
RUN_SWEEP=1
RUN_FLEET=1
RUN_SCALING=1
SCALING_SCENARIO=scenarios/tails.toml
SCALING_SCALE=0.05
while [[ $# -gt 0 ]]; do
    case "$1" in
        --scale) SCALE="$2"; shift 2 ;;
        --repeats) REPEATS="$2"; shift 2 ;;
        --attempts) ATTEMPTS="$2"; shift 2 ;;
        --sweep-scale) SWEEP_SCALE="$2"; shift 2 ;;
        --sweep-repeats) SWEEP_REPEATS="$2"; shift 2 ;;
        --sweep-attempts) SWEEP_ATTEMPTS="$2"; shift 2 ;;
        --fleet-attempts) FLEET_ATTEMPTS="$2"; shift 2 ;;
        --no-sweep) RUN_SWEEP=0; shift ;;
        --no-fleet) RUN_FLEET=0; shift ;;
        --no-scaling) RUN_SCALING=0; shift ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

echo "== building release benches =="
cargo build --release -p reqblock-bench --bin hotpath --bin sweep --bin fleet

OUTS=()
for ((i = 1; i <= ATTEMPTS; i++)); do
    OUT=$(mktemp /tmp/hotpath.XXXXXX.json)
    OUTS+=("$OUT")
    echo "== replaying ts_0 x$SCALE ($REPEATS repeats per policy, attempt $i/$ATTEMPTS) =="
    ./target/release/hotpath --scale "$SCALE" --repeats "$REPEATS" --out "$OUT"
done
SWEEP_OUTS=()
FLEET_OUTS=()
trap 'rm -f "${OUTS[@]}" "${SWEEP_OUTS[@]}" "${FLEET_OUTS[@]}"' EXIT

echo "== comparing against committed BENCH_hotpath.json (median gate) =="
python3 - "${OUTS[@]}" <<'PY'
import json
import os
import sys

# Gate 1: real hot-path regressions. Gate 2: the disabled observability
# layer must stay (near-)free; 2% is the acceptance bar from the obs PR.
# Gate 3: the synchronous path vs the host_refactor section; 5% is the
# acceptance bar the section was committed with.
# Gate 4: queued qd8 vs the synchronous path of the same run; 15% is the
# acceptance bar for the flush window.
# Gate 5: attribution configured under a disabled recorder vs the plain
# no-op path of the same attempt; 2% is the acceptance bar from the tail-
# forensics PR (the double gate must compile the layer away entirely).
REGRESSION_TOL = float(os.environ.get("REGRESSION_TOLERANCE", "0.20"))
NOOP_TOL = float(os.environ.get("NOOP_TOLERANCE", "0.02"))
SYNC_TOL = float(os.environ.get("SYNC_TOLERANCE", "0.05"))
QUEUED_TOL = float(os.environ.get("QUEUED_TOLERANCE", "0.15"))
ATTR_TOL = float(os.environ.get("ATTR_TOLERANCE", "0.02"))

# Best *median* req/s per policy across all attempts: the median absorbs a
# noisy repeat inside one attempt, the max across attempts absorbs a noisy
# attempt on a shared machine. The queued gate instead keeps the best
# *within-attempt* queued/sync ratio, so both sides of the comparison
# always come from the same attempt.
current = {}
queued = {}
queued_ratio = {}
attr = {}
attr_ratio = {}
overhead = {}
for path in sys.argv[1:]:
    with open(path) as f:
        run = json.load(f)
    sync_this = {}
    for p in run["policies"]:
        med = p.get("median_requests_per_sec", p["requests_per_sec"])
        current[p["name"]] = max(current.get(p["name"], 0.0), med)
        sync_this[p["name"]] = med
    for p in run.get("queued_policies", []):
        med = p.get("median_requests_per_sec", p["requests_per_sec"])
        queued[p["name"]] = max(queued.get(p["name"], 0.0), med)
        if p["name"] in sync_this:
            ratio = med / sync_this[p["name"]]
            queued_ratio[p["name"]] = max(
                queued_ratio.get(p["name"], 0.0), ratio
            )
    for p in run.get("attr_noop_policies", []):
        med = p.get("median_requests_per_sec", p["requests_per_sec"])
        attr[p["name"]] = max(attr.get(p["name"], 0.0), med)
        if p["name"] in sync_this:
            ratio = med / sync_this[p["name"]]
            attr_ratio[p["name"]] = max(attr_ratio.get(p["name"], 0.0), ratio)
    for o in run.get("recording_overhead_pct", []):
        overhead.setdefault(o["name"], []).append(o["pct"])

with open("BENCH_hotpath.json") as f:
    baselines = json.load(f)
committed = {
    p["name"]: p.get("median_requests_per_sec", p["requests_per_sec"])
    for p in baselines["batched"]["policies"]
}
sync_base = {
    p["name"]: p.get("median_requests_per_sec", p["requests_per_sec"])
    for p in baselines["host_refactor"]["policies"]
}
queued_base = {
    p["name"]: p.get("median_requests_per_sec", p["requests_per_sec"])
    for p in baselines["engine"]["queued_policies"]
}

failed = False
for name, base in sorted(committed.items()):
    now = current.get(name)
    if now is None:
        print(f"FAIL {name}: missing from bench output")
        failed = True
        continue
    ratio = now / base
    if ratio < 1.0 - REGRESSION_TOL:
        verdict = f"FAIL (>{REGRESSION_TOL:.0%} hot-path regression)"
        failed = True
    elif ratio < 1.0 - NOOP_TOL:
        verdict = f"FAIL (no-op recorder overhead >{NOOP_TOL:.0%} vs committed baseline)"
        failed = True
    else:
        verdict = "ok"
    pcts = overhead.get(name, [])
    rec = f", recording overhead {min(pcts):+.1f}%..{max(pcts):+.1f}%" if pcts else ""
    print(f"{name}: median {now:,.0f} req/s vs committed {base:,.0f} "
          f"({ratio:.2f}x) {verdict}{rec}")

print("-- sync gate (synchronous submit path, host_refactor baseline) --")
for name, base in sorted(sync_base.items()):
    now = current.get(name)
    if now is None:
        print(f"FAIL {name}: missing from bench output")
        failed = True
        continue
    ratio = now / base
    if ratio < 1.0 - SYNC_TOL:
        verdict = f"FAIL (>{SYNC_TOL:.0%} synchronous-path regression)"
        failed = True
    else:
        verdict = "ok"
    print(f"{name}: sync median {now:,.0f} req/s vs committed {base:,.0f} "
          f"({ratio:.2f}x) {verdict}")
print("-- queued gate (flush window, qd8 vs same-run sync) --")
for name, base in sorted(queued_base.items()):
    now = queued.get(name)
    ratio = queued_ratio.get(name)
    if now is None or ratio is None:
        print(f"FAIL {name}: queued qd8 missing from bench output")
        failed = True
        continue
    if ratio < 1.0 - QUEUED_TOL:
        verdict = f"FAIL (queued qd8 >{QUEUED_TOL:.0%} below synchronous)"
        failed = True
    else:
        verdict = "ok"
    print(f"{name}: queued qd8 median {now:,.0f} req/s, best queued/sync "
          f"{ratio:.2f}x {verdict} (committed engine baseline {base:,.0f})")
print("-- attribution gate (tail forensics, attr-noop vs same-run noop) --")
for name in sorted(current):
    now = attr.get(name)
    ratio = attr_ratio.get(name)
    if now is None or ratio is None:
        print(f"FAIL {name}: attr_noop missing from bench output")
        failed = True
        continue
    if ratio < 1.0 - ATTR_TOL:
        verdict = f"FAIL (disabled attribution costs >{ATTR_TOL:.0%})"
        failed = True
    else:
        verdict = "ok"
    print(f"{name}: attr-noop median {now:,.0f} req/s, best attr/noop "
          f"{ratio:.2f}x {verdict}")

sys.exit(1 if failed else 0)
PY
echo "== hot path within tolerance =="

if [[ "$RUN_SWEEP" == 1 ]]; then
    for ((i = 1; i <= SWEEP_ATTEMPTS; i++)); do
        SWEEP_OUT=$(mktemp /tmp/sweep.XXXXXX.json)
        SWEEP_OUTS+=("$SWEEP_OUT")
        echo "== sweep bench: repro-all pool at scale $SWEEP_SCALE ($SWEEP_REPEATS repeats, attempt $i/$SWEEP_ATTEMPTS) =="
        ./target/release/sweep --scale "$SWEEP_SCALE" --repeats "$SWEEP_REPEATS" --out "$SWEEP_OUT"
    done

    echo "== comparing against committed BENCH_sweep.json (median gate) =="
    python3 - "${SWEEP_OUTS[@]}" <<'PY'
import json
import os
import sys

SWEEP_TOL = float(os.environ.get("SWEEP_TOLERANCE", "0.05"))

# Best median wall-clock per mode across attempts: the median absorbs a
# noisy repeat inside one attempt, the min across attempts absorbs a noisy
# attempt on a shared machine (mirrors the hotpath gate's structure).
now = {}
for path in sys.argv[1:]:
    with open(path) as f:
        run = json.load(f)
    for m in run["modes"]:
        prev = now.get(m["name"])
        now[m["name"]] = min(prev, m["median_s"]) if prev else m["median_s"]
with open("BENCH_sweep.json") as f:
    committed = json.load(f)
base = {m["name"]: m["median_s"] for m in committed["modes"]}

failed = False
for name in ("cached_serial", "cached_parallel"):
    ratio = now[name] / base[name]
    if ratio > 1.0 + SWEEP_TOL:
        verdict = f"FAIL (>{SWEEP_TOL:.0%} median sweep regression)"
        failed = True
    else:
        verdict = "ok"
    print(f"{name}: median {now[name]:.2f}s vs committed {base[name]:.2f}s "
          f"({ratio:.2f}x) {verdict}")

sys.exit(1 if failed else 0)
PY
    echo "== sweep within tolerance =="
else
    echo "== sweep bench skipped (--no-sweep) =="
fi

if [[ "$RUN_FLEET" == 1 ]]; then
    for ((i = 1; i <= FLEET_ATTEMPTS; i++)); do
        FLEET_OUT=$(mktemp /tmp/fleet.XXXXXX.json)
        FLEET_OUTS+=("$FLEET_OUT")
        echo "== fleet bench: streaming vs reference at scale $FLEET_SCALE ($FLEET_REPEATS repeats, attempt $i/$FLEET_ATTEMPTS) =="
        ./target/release/fleet --scale "$FLEET_SCALE" --repeats "$FLEET_REPEATS" --out "$FLEET_OUT"
    done

    echo "== comparing against committed BENCH_sweep.json fleet_stream (median gate) =="
    python3 - "${FLEET_OUTS[@]}" <<'PY'
import json
import os
import sys

FLEET_TOL = float(os.environ.get("FLEET_TOLERANCE", "0.10"))

# Best within-attempt stream/reference ratio across attempts (gates 4-5
# convention: both sides of each ratio come from the same attempt, a slow
# attempt cannot fail the gate on noise alone), plus the best streaming
# median devices/s across attempts against the committed baseline.
best_ratio = 0.0
best_stream = 0.0
best_ref = 0.0
peaks = {}
for path in sys.argv[1:]:
    with open(path) as f:
        run = json.load(f)
    best_ratio = max(best_ratio, run["ratio_stream_over_ref"]["median"])
    for m in run["modes"]:
        peaks[m["name"]] = max(peaks.get(m["name"], 0.0), m["max_peak_mib"])
        if m["name"] == "fleet_stream":
            best_stream = max(best_stream, m["median_devices_per_s"])
        elif m["name"] == "fleet_reference":
            best_ref = max(best_ref, m["median_devices_per_s"])
with open("BENCH_sweep.json") as f:
    committed = json.load(f)["fleet_stream"]

failed = False
if best_ratio < 1.0 - FLEET_TOL:
    verdict = f"FAIL (streaming >{FLEET_TOL:.0%} below the materialized reference)"
    failed = True
else:
    verdict = "ok"
print(f"fleet_stream: best median {best_stream:,.0f} dev/s vs same-attempt "
      f"reference {best_ref:,.0f} dev/s, best ratio {best_ratio:.2f}x {verdict}")
base = committed["median_devices_per_s"]
ratio = best_stream / base
if ratio < 1.0 - FLEET_TOL:
    verdict = f"FAIL (>{FLEET_TOL:.0%} median fleet regression)"
    failed = True
else:
    verdict = "ok"
print(f"fleet_stream: best median {best_stream:,.0f} dev/s vs committed "
      f"{base:,.0f} dev/s ({ratio:.2f}x) {verdict}")
print(f"peak alloc: stream {peaks.get('fleet_stream', 0):,.0f} MiB, "
      f"reference {peaks.get('fleet_reference', 0):,.0f} MiB "
      f"(committed stream baseline {committed['max_peak_mib']:,.0f} MiB)")

sys.exit(1 if failed else 0)
PY
    echo "== fleet within tolerance =="
else
    echo "== fleet bench skipped (--no-fleet) =="
fi

if [[ "$RUN_SCALING" == 1 ]]; then
    echo "== thread-scaling: repro run $SCALING_SCENARIO at scale $SCALING_SCALE =="
    cargo build --release -q -p reqblock-experiments --bin repro
    NPROC=$(nproc 2>/dev/null || echo 1)
    THREAD_SET=(1 2)
    if [[ "$NPROC" -gt 2 ]]; then THREAD_SET+=("$NPROC"); fi
    declare -A SCALING_ELAPSED SCALING_DIGESTS
    for t in "${THREAD_SET[@]}"; do
        OUT=$(./target/release/repro --scale "$SCALING_SCALE" --threads "$t" \
            --out /tmp/reqblock_scaling run "$SCALING_SCENARIO" 2>/dev/null)
        SCALING_ELAPSED[$t]=$(printf '%s\n' "$OUT" \
            | sed -n 's/^\[scenario [^:]*: [0-9]* jobs in \([0-9.]*\)s\]$/\1/p')
        SCALING_DIGESTS[$t]=$(printf '%s\n' "$OUT" | grep '^\[digest ' | tr '\n' ';')
        echo "threads $t: ${SCALING_ELAPSED[$t]}s  ${SCALING_DIGESTS[$t]}"
        if [[ -z "${SCALING_ELAPSED[$t]}" || -z "${SCALING_DIGESTS[$t]}" ]]; then
            echo "FAIL: could not parse repro run output at $t thread(s)" >&2
            exit 1
        fi
    done
    for t in "${THREAD_SET[@]:1}"; do
        if [[ "${SCALING_DIGESTS[$t]}" != "${SCALING_DIGESTS[1]}" ]]; then
            echo "FAIL: scenario digests diverge between 1 and $t thread(s)" >&2
            exit 1
        fi
    done
    echo "digest equality ok across thread counts (${THREAD_SET[*]})"
    for t in "${THREAD_SET[@]:1}"; do
        python3 - "$t" "${SCALING_ELAPSED[1]}" "${SCALING_ELAPSED[$t]}" "$NPROC" <<'PY'
import os
import sys

t, t1, tt, nproc = int(sys.argv[1]), float(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
min_eff = float(os.environ.get("SCALING_MIN_EFF", "0.5"))
speedup = t1 / tt if tt > 0 else 0.0
eff = speedup / t
# The efficiency gate only means something when the host can actually run
# the workers in parallel; oversubscribed thread counts are informational.
gated = nproc > 1 and t <= nproc
status = 0
if gated and eff < min_eff:
    verdict = f"FAIL (scaling efficiency below {min_eff:.0%})"
    status = 1
elif not gated:
    verdict = ("informational (single-core host)" if nproc <= 1
               else "informational (threads exceed cores)")
else:
    verdict = "ok"
print(f"threads {t}: {tt:.2f}s vs serial {t1:.2f}s, speedup {speedup:.2f}x, "
      f"efficiency {eff:.0%} {verdict}")
sys.exit(status)
PY
    done
    echo "== thread scaling checked =="
else
    echo "== thread scaling skipped (--no-scaling) =="
fi
