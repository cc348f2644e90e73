#!/usr/bin/env bash
# CPU profile of a release binary with gprofng (the profiler this container
# ships; `perf` is not installed). Builds the requested bench/repro binary
# with [profile.bench]-style debug info (the release profile already keeps
# debuginfo via Cargo.toml), records an experiment directory, and prints the
# hottest functions plus the callers/callees of the top symbol.
#
# Usage: scripts/profile.sh [-o DIR.er] [-n LINES] <binary> [args...]
#
#   scripts/profile.sh hotpath --scale 0.25 --repeats 2
#   scripts/profile.sh repro --threads 1 load
#   scripts/profile.sh fleet --scale 0.01 --repeats 1
#   scripts/profile.sh -o /tmp/wheel.er -n 40 hotpath --scale 0.5
#
# <binary> is a target name in this workspace (hotpath, sweep, fleet, repro)
# or a path to an executable. The experiment directory is kept so you can dig
# further, e.g.:
#   gprofng display text -functions /tmp/profile.er
#   gprofng display text -lines /tmp/profile.er
set -euo pipefail
cd "$(dirname "$0")/.."

if ! command -v gprofng >/dev/null 2>&1; then
    echo "profile.sh: gprofng not found on PATH." >&2
    echo "This wrapper records with gprofng (GNU binutils >= 2.39);" >&2
    echo "install binutils with gprofng enabled, or profile manually." >&2
    exit 1
fi

OUT=""
LINES=25
while [[ $# -gt 0 ]]; do
    case "$1" in
        -o) OUT="$2"; shift 2 ;;
        -n) LINES="$2"; shift 2 ;;
        -h|--help) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
        *) break ;;
    esac
done
[[ $# -ge 1 ]] || { echo "usage: scripts/profile.sh [-o DIR.er] [-n LINES] <binary> [args...]" >&2; exit 2; }
BIN="$1"
shift

# Resolve a bare target name to the workspace's release binary, building it
# on demand (release keeps debuginfo, so symbols resolve).
if [[ ! -x "$BIN" || "$BIN" != */* ]]; then
    case "$BIN" in
        hotpath|sweep|fleet) cargo build --release -p reqblock-bench --bin "$BIN" ;;
        repro) cargo build --release -p reqblock-experiments --bin repro ;;
        *) echo "profile.sh: unknown target '$BIN' (expected hotpath, sweep, fleet," \
               "repro, or a path)" >&2; exit 2 ;;
    esac
    BIN="./target/release/$BIN"
fi

if [[ -z "$OUT" ]]; then
    OUT=$(mktemp -u /tmp/profile.XXXXXX.er)
fi
rm -rf "$OUT"

echo "== recording $BIN $* -> $OUT =="
gprofng collect app -o "$OUT" "$BIN" "$@"

echo "== hottest functions (exclusive CPU, top $LINES) =="
gprofng display text -limit "$LINES" -functions "$OUT"

# Caller/callee panels for the hottest symbols so the first report already
# answers "who calls it".
echo "== callers / callees of the top symbols =="
gprofng display text -limit 5 -callers-callees "$OUT" || true

echo "== experiment kept at $OUT =="
