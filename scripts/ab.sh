#!/usr/bin/env bash
# A/B every wall-clock bench of the repository: a git revision (the
# parent) against the working tree (the change), paired and interleaved,
# judged by one verdict rule and one gate table.
#
# Usage: scripts/ab.sh <rev> [--pairs N] [--seconds S] [--seed N] [--out FILE]
#
# 1. Exports <rev> with `git archive` into target/ab/<sha>/src and builds
#    its frozen `benchmark` binary and the `hotpath`, `sweep` and `fleet`
#    binaries of crates/bench offline into target/ab/<sha>/target; builds
#    the working tree's into target/ab/work. Every build passes --locked,
#    so none rewrites a Cargo.lock.
# 2. Runs both sides over seven workloads for N pairs (default 10): the
#    benchmark's four (`benchmark --workload W --seed SEED --seconds S`; S
#    defaults to BENCHMARK.json's run_seconds, SEED to 0), then
#    `hotpath --scale 0.25 --repeats 5`, `sweep --scale 0.02 --repeats 3`
#    and `fleet --scale 0.01 --repeats 3`. Every pair runs each workload
#    once per side, the parent first in odd pairs and the change first in
#    even ones. Each run prints one JSON document on stdout.
# 3. Judges every end-to-end metric (BENCHMARK.json's list) of every
#    benchmark workload and every row of the gate table (GATES below):
#      - a `sim_*` metric must be identical in every pair;
#      - an A/B row (a host metric, tolerance its bound, or a gate row
#        that is "higher" or "lower" better) reads "unresolved" when the
#        parent's quartile spread, as a share of its median, exceeds the
#        tolerance, unless every change run is worse than every parent
#        run ("worse") or better ("gain"); otherwise "worse" when the
#        change's median is worse than the parent's by more than the
#        tolerance, "gain" when the change won at least 9/10 of the pairs
#        and its median is better than the parent's by more than the
#        parent's quartile spread, and "within bound" else;
#      - a within-run row ("floor") takes a ratio inside each run and holds
#        the median of the change's ratios to its floor.
#    Each row prints both sides' medians and quartiles, the median paired
#    ratio change/parent with its quartiles, the pairs the change won and
#    the verdict. Also checks `correct` and the failed-operation share of
#    every benchmark run.
# 4. Writes the verdicts, every benchmark run's metric values and every
#    bench binary's raw JSON to --out (default BENCH_ab.json); each run's
#    stderr goes to target/ab/runs.log.
#
# Exit 1 if a `sim_*` metric differed in any pair, a run reported
# `correct: false` or exited non-zero, a row reads "worse" or a
# within-run row is below its floor; 2 on a bad command line. The output
# ends with the list of failed rows and the list of "unresolved" ones. Quartiles use Python's
# `statistics.quantiles(n=4)`, the method the benchmark's own summaries
# use. The script only reads benchmark/.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '6p' "$0" | sed 's/^# //' >&2
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
build() { # source-dir target-dir
    cargo build --release --quiet --offline --locked --manifest-path "$1/benchmark/Cargo.toml" \
        --bin benchmark --target-dir "$2"
    cargo build --release --quiet --offline --locked --manifest-path "$1/Cargo.toml" \
        -p reqblock-bench --bins --target-dir "$2"
}
echo "== building the benches at ${SHA:0:12} (parent) and in the working tree (change) =="
build "$BASE/src" "$BASE/target"
build . target/ab/work
PARENT_BINS=$BASE/target/release
CHANGE_BINS=target/ab/work/release

RUNS=$(mktemp "${TMPDIR:-/tmp}/ab-runs.XXXXXX")
trap 'rm -f "$RUNS"' EXIT
LOG=target/ab/runs.log
: >"$LOG"
STATUS=0
run() { # side bin-dir pair workload
    local line rc=0 cmd
    case "$4" in
        hotpath) cmd=("$2/hotpath" --scale 0.25 --repeats 5) ;;
        sweep) cmd=("$2/sweep" --scale 0.02 --repeats 3) ;;
        fleet) cmd=("$2/fleet" --scale 0.01 --repeats 3) ;;
        *) cmd=("$2/benchmark" --workload "$4" --seed "$SEED" --seconds "$SECONDS_PER_RUN") ;;
    esac
    echo "== $1 $4 pair $3" >>"$LOG"
    line=$("${cmd[@]}" 2>>"$LOG" | tr -d '\n') || rc=$?
    if [[ $rc -ne 0 ]]; then
        echo "ab.sh: $1 run of $4 (pair $3) exited $rc" >&2
        STATUS=1
    fi
    printf '%s\t%s\t%s\t%s\t%s\n' "$1" "$3" "$4" "$rc" "$line" >>"$RUNS"
}
for ((pair = 1; pair <= PAIRS; pair++)); do
    for workload in $WORKLOADS hotpath sweep fleet; do
        echo "== pair $pair/$PAIRS: $workload =="
        if ((pair % 2 == 1)); then
            run parent "$PARENT_BINS" "$pair" "$workload"
            run change "$CHANGE_BINS" "$pair" "$workload"
        else
            run change "$CHANGE_BINS" "$pair" "$workload"
            run parent "$PARENT_BINS" "$pair" "$workload"
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

runs = []
for line in open(runs_path):
    side, pair, workload, rc, payload = line.rstrip("\n").split("\t", 4)
    try:
        report = json.loads(payload)
    except json.JSONDecodeError:
        report = None
    runs.append({"side": side, "pair": int(pair), "workload": workload,
                 "exit": int(rc), "report": report})


def policy(r, section, name):
    return next(p["median_requests_per_sec"] for p in r[section] if p["name"] == name)


def mode(r, name, field):
    return next(m[field] for m in r["modes"] if m["name"] == name)


# The bench binaries' gate table: (row, binary, kind, limit, value of one
# run's JSON). "higher"/"lower" rows are A/B: the value is compared between
# the sides with the limit as tolerance. "floor" rows are within-run: the
# value is a ratio inside one run, and the median of the change's ratios
# must reach the limit. A row whose value is None (pool efficiency on one
# thread) is not judged.
GATES = [
    ("sync path Req-block req/s", "hotpath", "higher", 0.02,
     lambda r: policy(r, "policies", "Req-block")),
    ("sync path LRU req/s", "hotpath", "higher", 0.02,
     lambda r: policy(r, "policies", "LRU")),
    ("flush window Req-block qd8/sync", "hotpath", "floor", 0.85,
     lambda r: policy(r, "queued_policies", "Req-block") / policy(r, "policies", "Req-block")),
    ("flush window LRU qd8/sync", "hotpath", "floor", 0.85,
     lambda r: policy(r, "queued_policies", "LRU") / policy(r, "policies", "LRU")),
    ("attribution compiled out Req-block attr/noop", "hotpath", "floor", 0.98,
     lambda r: policy(r, "attr_noop_policies", "Req-block") / policy(r, "policies", "Req-block")),
    ("attribution compiled out LRU attr/noop", "hotpath", "floor", 0.98,
     lambda r: policy(r, "attr_noop_policies", "LRU") / policy(r, "policies", "LRU")),
    ("repro all serial s", "sweep", "lower", 0.05,
     lambda r: mode(r, "cached_serial", "median_s")),
    ("repro all parallel s", "sweep", "lower", 0.05,
     lambda r: mode(r, "cached_parallel", "median_s")),
    ("pool efficiency serial/(threads x parallel)", "sweep", "floor", 0.5,
     lambda r: mode(r, "cached_serial", "median_s")
     / (r["threads"] * mode(r, "cached_parallel", "median_s")) if r["threads"] > 1 else None),
    ("fleet stream/reference devices/s", "fleet", "floor", 0.90,
     lambda r: r["ratio_stream_over_ref"]["median"]),
    ("fleet stream devices/s", "fleet", "higher", 0.10,
     lambda r: mode(r, "fleet_stream", "median_devices_per_s")),
]


def summary(values):
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def judge(kind, limit, pv, cv, won):
    """A row's verdict and its outcome ("ok", "failed" or "unresolved"),
    from each side's values in pair order and the pairs the change won."""
    ps, cs = summary(pv), summary(cv)
    if kind == "floor":
        if cs["median"] >= limit:
            return f"above the {limit} floor", "ok"
        return f"below the {limit} floor", "failed"
    sign = 1 if kind == "higher" else -1
    better_by = sign * (cs["median"] - ps["median"])
    spread = (ps["q3"] - ps["q1"]) / ps["median"] if ps["median"] else float("inf")
    if spread > limit:
        if all(sign * (c - p) < 0 for c in cv for p in pv):
            return "worse: every change run is worse than every parent run", "failed"
        if all(sign * (c - p) > 0 for c in cv for p in pv):
            return "gain: every change run is better than every parent run", "ok"
        return f"unresolved (parent spread {spread:.3f} > {limit})", "unresolved"
    if -better_by > limit * ps["median"]:
        return f"worse by more than {limit}", "failed"
    if won >= 0.9 * len(pv) and better_by > ps["q3"] - ps["q1"]:
        return "gain", "ok"
    return f"within bound (parent spread {spread:.3f})", "ok"


failed = False
closing = {"failed": [], "unresolved": []}  # rows named again at the end
fmt = lambda s: f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"


def judge_rows(workload, rows):
    """Judge `rows` ((name, kind, limit, value of one run's JSON)) over the
    complete pairs of `workload`; print and return them."""
    global failed
    sides = {s: {r["pair"]: r["report"] for r in runs
                 if r["workload"] == workload and r["side"] == s and r["report"]}
             for s in ("parent", "change")}
    complete = sorted(set(sides["parent"]) & set(sides["change"]))
    failed |= not complete
    print(f"  {len(complete)} complete pairs\n  {'row':<44} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'ratio median [q1, q3]':>26} {'won':>6}  verdict")
    judged = {}
    for name, kind, limit, value in rows if complete else []:
        vals = {s: [value(sides[s][p]) for p in complete] for s in sides}
        if None in vals["change"]:
            print(f"  {name:<44} not judged: the change's runs give no value")
            continue
        pv, cv = vals["parent"], vals["change"]
        ratios = [c / p if p else (1.0 if c == p else float("inf")) for p, c in zip(pv, cv)]
        won = sum((c > p) if kind != "lower" else (c < p) for p, c in zip(pv, cv))
        if name.startswith("sim_"):
            verdict, outcome = ("identical", "ok") if pv == cv else ("DIFFERS", "failed")
        else:
            verdict, outcome = judge(kind, limit, pv, cv, won)
        failed |= outcome == "failed"
        if outcome != "ok":
            closing[outcome].append(f"{workload}: {name} {verdict}")
        ps, cs, rs = summary(pv), summary(cv), summary(ratios)
        judged[name] = {"parent": ps, "change": cs, "ratio": rs, "change_won_pairs": won,
                        "kind": kind, "limit": limit, "verdict": verdict}
        print(f"  {name:<44} {fmt(ps):>34} {fmt(cs):>34} {fmt(rs):>26} "
              f"{won:>3}/{len(complete):<2}  {verdict}")
    return len(complete), judged


result = {"parent": sha, "change": "working tree", "pairs": int(pairs),
          "seconds": float(seconds), "seed": int(seed),
          "host_cpus": os.cpu_count(), "workloads": {}, "gates": {}}
metrics = [(m["name"], m["better"], m["bound"], lambda r, n=m["name"]: r["metrics"][n]["value"])
           for m in spec["end_to_end"]]
for workload in (w["name"] for w in spec["workloads"]):
    mine = [r for r in runs if r["workload"] == workload]
    correct = all(r["report"] and r["report"]["correct"] and r["exit"] == 0 for r in mine)
    share = {s: max((r["report"]["failed"] / max(r["report"]["attempted"], 1)
                     for r in mine if r["side"] == s and r["report"]), default=None)
             for s in ("parent", "change")}
    failed |= not correct
    print(f"\n{workload}: correct in every run: {correct}, max failed share "
          f"parent {share['parent']} change {share['change']}")
    n, judged = judge_rows(workload, metrics)
    sim_identical = bool(judged) and all(v["verdict"] == "identical"
                                         for k, v in judged.items() if k.startswith("sim_"))
    result["workloads"][workload] = {"pairs": n, "metrics": judged, "correct": correct,
                                     "failed_share_max": share, "sim_identical": sim_identical}
for binary in dict.fromkeys(g[1] for g in GATES):
    print(f"\n{binary}:")
    n, judged = judge_rows(binary, [(g[0], g[2], g[3], g[4]) for g in GATES if g[1] == binary])
    result["gates"][binary] = {"pairs": n, "rows": judged}
result["runs"] = []
for r in runs:
    record = {"side": r["side"], "pair": r["pair"], "workload": r["workload"], "exit": r["exit"]}
    report = r["report"]
    if r["workload"] in result["gates"]:
        record["report"] = report
    else:
        record["correct"] = report and report["correct"]
        record["failed"] = report and report["failed"]
        record["metrics"] = report and {k: v["value"] for k, v in report["metrics"].items()}
    result["runs"].append(record)
with open(out_path, "w") as f:
    json.dump(result, f, indent=1)
    f.write("\n")
print(f"\nwrote {out_path}")
for outcome, rows in closing.items():
    print(f"{outcome} rows:" + "".join(f"\n  {r}" for r in rows) if rows else f"{outcome} rows: none")
sys.exit(1 if failed else 0)
PY
exit "$STATUS"
