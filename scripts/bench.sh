#!/bin/sh
# Benchmark-baseline pipeline: run the repo's benchmarks, normalise the
# output into the stable pipesim-bench/v1 JSON schema, and write
# BENCH_<label>.json at the repo root.
#
#   scripts/bench.sh                      # full run, label "dev"
#   scripts/bench.sh --label seed         # full run, writes BENCH_seed.json
#   scripts/bench.sh --short              # CI smoke: key benchmarks, 1 iter
#   scripts/bench.sh compare OLD NEW      # diff two baselines (exit 1 on
#                                         # >threshold regression)
#   scripts/bench.sh compare NEW          # baseline resolved automatically
#   scripts/bench.sh compare --warn-only OLD NEW
#
# Environment:
#   BENCH_THRESHOLD   regression threshold in percent (default 10)
#   BENCH_BASELINE    compare baseline when OLD is omitted; defaults to the
#                     most recently committed BENCH_*.json, so promoting a
#                     new baseline is one `git add`, not a script edit
set -eu
cd "$(dirname "$0")/.."

THRESHOLD="${BENCH_THRESHOLD:-10}"

# newest_baseline prints the committed BENCH_*.json with the most recent
# commit date (last-modifying commit, not mtime: checkouts reset mtimes).
newest_baseline() {
    git ls-files 'BENCH_*.json' | while IFS= read -r f; do
        printf '%s %s\n' "$(git log -1 --format=%ct -- "$f")" "$f"
    done | sort -rn | head -n1 | cut -d' ' -f2-
}

if [ "${1:-}" = "compare" ]; then
    shift
    njson=0
    for a in "$@"; do
        case "$a" in *.json) njson=$((njson + 1)) ;; esac
    done
    if [ "$njson" -eq 1 ]; then
        BASE="${BENCH_BASELINE:-}"
        [ -n "$BASE" ] || BASE="$(newest_baseline)"
        if [ -z "$BASE" ]; then
            echo "bench.sh: no BENCH_BASELINE set and no committed BENCH_*.json found" >&2
            exit 2
        fi
        echo "bench.sh: comparing against baseline $BASE" >&2
        # The single .json operand is the NEW file and (per the usage
        # above) the last argument; splice the resolved baseline in just
        # before it: flags... OLD NEW.
        n=$#
        i=0
        for a in "$@"; do
            i=$((i + 1))
            [ "$i" -eq "$n" ] && set -- "$@" "$BASE"
            set -- "$@" "$a"
        done
        shift "$n"
    fi
    exec go run ./cmd/benchjson compare -threshold "$THRESHOLD" "$@"
fi

LABEL=dev
SHORT=0
while [ $# -gt 0 ]; do
    case "$1" in
        --label) LABEL="$2"; shift 2 ;;
        --short) SHORT=1; shift ;;
        *) echo "bench.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

OUT="BENCH_${LABEL}.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

if [ "$SHORT" = 1 ]; then
    # CI smoke: one iteration of the key end-to-end benchmarks — enough to
    # prove they run and produce a parseable baseline, not a timing source.
    echo "== go test -bench (short)" >&2
    go test -run '^$' -bench 'SingleRun|ProbeOverhead|RunHookOverhead|SweepE2E|FlightRecorderOverhead|SpanOverhead|MissClassOverhead|RunArchivedHit|ServeRunHit' \
        -benchtime 1x -benchmem ./... | tee "$RAW"
else
    echo "== go test -bench (full)" >&2
    go test -run '^$' -bench . -benchmem ./... | tee "$RAW"
fi

go run ./cmd/benchjson format -label "$LABEL" -o "$OUT" < "$RAW"
echo "bench.sh: wrote $OUT" >&2
