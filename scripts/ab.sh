#!/usr/bin/env bash
# A/B the repository benchmark: a git revision (the parent) against the
# working tree (the change), paired and interleaved.
#
# Usage: scripts/ab.sh <rev> [--pairs N] [--seconds S] [--seed N] [--out FILE]
#
# 1. Exports <rev> with `git archive` into target/ab/<sha>/src and builds
#    its frozen `benchmark` binary offline into target/ab/<sha>/target;
#    builds the working tree's into target/ab/work. Both builds pass
#    --locked, so neither rewrites a benchmark/Cargo.lock.
# 2. Runs both binaries over the four workloads for N pairs (default
#    10): each pair runs `benchmark --workload W --seed SEED --seconds S`
#    once per side, the parent first in odd pairs and the change first in
#    even ones. S defaults to BENCHMARK.json's run_seconds; SEED to 0.
# 3. For each workload and end-to-end metric (BENCHMARK.json's list)
#    prints the median paired ratio change/parent with its quartiles, each
#    side's median and quartiles, the pairs the change won, and a verdict:
#      - a `sim_*` metric must be identical in every pair;
#      - a host metric reads "gain" when the change won at least 9/10 of
#        the pairs and its median is better than the parent's by more than
#        the parent's quartile spread; "worse" when its median is worse by
#        more than the metric's bound; "unresolved" when the parent's own
#        quartile spread, as a share of its median, exceeds the bound; and
#        otherwise "within bound".
#    Also checks `correct` and the failed-operation share of every run.
# 4. Writes the same numbers, and every run's raw values, as JSON to
#    --out (default BENCH_ab.json); each run's stderr goes to
#    target/ab/runs.log.
#
# Exit 1 if a `sim_*` metric differed in any pair, a run reported
# `correct: false`, or a run exited non-zero; 2 on a bad command line.
# Quartiles use Python's `statistics.quantiles(n=4)`, the method the
# benchmark's own summaries use. The script only reads benchmark/.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '5p' "$0" | sed 's/^# //' >&2
    exit 2
}

[[ $# -ge 1 ]] || usage
REV="$1"
shift
PAIRS=10
SECONDS_PER_RUN=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
SEED=0
WORKLOADS=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
OUT=BENCH_ab.json
while [[ $# -gt 0 ]]; do
    [[ $# -ge 2 ]] || usage
    case "$1" in
        --pairs) PAIRS="$2" ;;
        --seconds) SECONDS_PER_RUN="$2" ;;
        --seed) SEED="$2" ;;
        --out) OUT="$2" ;;
        *) echo "ab.sh: unknown argument: $1" >&2; usage ;;
    esac
    shift 2
done
[[ "$PAIRS" =~ ^[1-9][0-9]*$ ]] || { echo "ab.sh: --pairs must be a positive integer" >&2; exit 2; }

SHA=$(git rev-parse --verify --quiet "$REV^{commit}") || { echo "ab.sh: unknown revision $REV" >&2; exit 2; }
BASE=target/ab/$SHA
if [[ ! -d "$BASE/src/benchmark" ]]; then
    rm -rf "$BASE/src"
    mkdir -p "$BASE/src"
    git archive "$SHA" | tar -x -C "$BASE/src"
fi
echo "== building the benchmark at ${SHA:0:12} (parent) and in the working tree (change) =="
cargo build --release --quiet --offline --locked --manifest-path "$BASE/src/benchmark/Cargo.toml" \
    --bin benchmark --target-dir "$BASE/target"
cargo build --release --quiet --offline --locked --manifest-path benchmark/Cargo.toml \
    --bin benchmark --target-dir target/ab/work
PARENT_BIN=$BASE/target/release/benchmark
CHANGE_BIN=target/ab/work/release/benchmark

RUNS=$(mktemp "${TMPDIR:-/tmp}/ab-runs.XXXXXX")
trap 'rm -f "$RUNS"' EXIT
LOG=target/ab/runs.log
: >"$LOG"
STATUS=0
run() { # side binary pair workload
    local line rc=0
    echo "== $1 $4 pair $3" >>"$LOG"
    line=$("$2" --workload "$4" --seed "$SEED" --seconds "$SECONDS_PER_RUN" 2>>"$LOG" | tail -n 1) || rc=$?
    if [[ $rc -ne 0 ]]; then
        echo "ab.sh: $1 run of $4 (pair $3) exited $rc" >&2
        STATUS=1
    fi
    printf '%s\t%s\t%s\t%s\t%s\n' "$1" "$3" "$4" "$rc" "$line" >>"$RUNS"
}
for ((pair = 1; pair <= PAIRS; pair++)); do
    for workload in $WORKLOADS; do
        echo "== pair $pair/$PAIRS: $workload =="
        if ((pair % 2 == 1)); then
            run parent "$PARENT_BIN" "$pair" "$workload"
            run change "$CHANGE_BIN" "$pair" "$workload"
        else
            run change "$CHANGE_BIN" "$pair" "$workload"
            run parent "$PARENT_BIN" "$pair" "$workload"
        fi
    done
done

python3 - "$RUNS" "$OUT" "$SHA" "$PAIRS" "$SECONDS_PER_RUN" "$SEED" <<'PY' || STATUS=1
import json
import os
import statistics
import sys

runs_path, out_path, sha, pairs, seconds, seed = sys.argv[1:7]
spec = json.load(open("BENCHMARK.json"))
metrics = spec["end_to_end"]

runs = []
for line in open(runs_path):
    side, pair, workload, rc, payload = line.rstrip("\n").split("\t", 4)
    try:
        report = json.loads(payload)
    except json.JSONDecodeError:
        report = None
    runs.append({"side": side, "pair": int(pair), "workload": workload,
                 "exit": int(rc), "report": report})


def summary(values):
    if not values:
        return None
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


failed = False
result = {"parent": sha, "change": "working tree", "pairs": int(pairs),
          "seconds": float(seconds), "seed": int(seed),
          "host_cpus": os.cpu_count(), "workloads": {}}
for workload in dict.fromkeys(r["workload"] for r in runs):
    sides = {s: {r["pair"]: r for r in runs if r["workload"] == workload and r["side"] == s}
             for s in ("parent", "change")}
    complete = sorted(p for p in sides["parent"] if p in sides["change"]
                      and sides["parent"][p]["report"] and sides["change"][p]["report"])
    entry = {"pairs": len(complete), "metrics": {}}
    correct = all(r["report"] and r["report"]["correct"] and r["exit"] == 0
                  for s in sides.values() for r in s.values())
    share = {s: [r["report"]["failed"] / max(r["report"]["attempted"], 1)
                 for r in sides[s].values() if r["report"]] for s in sides}
    entry["correct"] = correct
    entry["failed_share_max"] = {s: max(v, default=None) for s, v in share.items()}
    failed |= not correct or not complete
    print(f"\n{workload}: {len(complete)} complete pairs, correct in every run: {correct}, "
          f"max failed share parent {entry['failed_share_max']['parent']} "
          f"change {entry['failed_share_max']['change']}")
    print(f"  {'metric':<30} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'ratio median [q1, q3]':>26} {'won':>6}  verdict")
    sim_identical = bool(complete)
    for m in metrics if complete else []:
        name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
        vals = {s: [sides[s][p]["report"]["metrics"][name]["value"] for p in complete]
                for s in sides}
        ratios = [c / p if p else (1.0 if c == p else float("inf"))
                  for p, c in zip(vals["parent"], vals["change"])]
        won = sum((c > p) if higher else (c < p) for p, c in zip(vals["parent"], vals["change"]))
        ps, cs, rs = summary(vals["parent"]), summary(vals["change"]), summary(ratios)
        if name.startswith("sim_"):
            same = vals["parent"] == vals["change"]
            sim_identical &= same
            verdict = "identical" if same else "DIFFERS"
        else:
            better_by = (cs["median"] - ps["median"]) * (1 if higher else -1)
            spread = (ps["q3"] - ps["q1"]) / ps["median"] if ps["median"] else float("inf")
            if won >= 0.9 * len(complete) and better_by > ps["q3"] - ps["q1"]:
                verdict = "gain"
            elif -better_by > bound * ps["median"]:
                verdict = f"worse by more than the {bound} bound"
            elif spread > bound:
                verdict = f"unresolved (parent spread {spread:.3f} > bound {bound})"
            else:
                verdict = f"within bound (parent spread {spread:.3f})"
        entry["metrics"][name] = {"parent": ps, "change": cs, "ratio": rs,
                                  "change_won_pairs": won, "bound": bound, "verdict": verdict}
        fmt = lambda s: f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
        print(f"  {name:<30} {fmt(ps):>34} {fmt(cs):>34} {fmt(rs):>26} "
              f"{won:>3}/{len(complete):<2}  {verdict}")
    entry["sim_identical"] = sim_identical
    failed |= not sim_identical
    result["workloads"][workload] = entry
result["runs"] = [{"side": r["side"], "pair": r["pair"], "workload": r["workload"],
                   "exit": r["exit"], "correct": r["report"] and r["report"]["correct"],
                   "failed": r["report"] and r["report"]["failed"],
                   "metrics": r["report"] and {k: v["value"] for k, v in r["report"]["metrics"].items()}}
                  for r in runs]
with open(out_path, "w") as f:
    json.dump(result, f, indent=1)
    f.write("\n")
print(f"\nwrote {out_path}")
sys.exit(1 if failed else 0)
PY
exit "$STATUS"
