#!/usr/bin/env bash
# A/A check: the same commit measured twice must agree with itself.
#
#   benchmark/aa.sh [--runs <n>] [--seed <n>] [--seconds <s>]
#
# Runs every workload `runs` times (default 10) with seeds seed+1 …
# seed+runs, then again with seeds seed+1001 …, exactly as the acceptance
# procedure does, and for every end-to-end metric × workload prints both
# medians, both quartile spreads (IQR / median, Python's
# statistics.quantiles) and how much worse the second median is than the
# first. Exits non-zero if a spread (other than setup_s's) or a drift
# exceeds the metric's bound in BENCHMARK.json. Takes about
# 2 × 3 × runs × (seconds + 5) seconds.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs=10
seed=0
seconds=""
while [ $# -gt 0 ]; do
    case "$1" in
        --runs) runs="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        *) echo "usage: aa.sh [--runs <n>] [--seed <n>] [--seconds <s>]" >&2; exit 2 ;;
    esac
done
if [ -z "$seconds" ]; then
    seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$here/../BENCHMARK.json")"
fi

mkdir -p "$here/out"
results="$here/out/aa-results.txt"
: > "$results"
for set in 0 1; do
    for w in small batch lock; do
        for i in $(seq 1 "$runs"); do
            s=$((seed + 1000 * set + i))
            echo "set $set workload $w seed $s" >&2
            line="$("$here/run.sh" --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 | tail -n 1)"
            echo "$set $w $line" >> "$results"
        done
    done
done

python3 - "$here/../BENCHMARK.json" "$results" <<'PY'
import json, statistics, sys
from collections import defaultdict

spec = json.load(open(sys.argv[1]))
values = defaultdict(list)
for row in open(sys.argv[2]):
    run_set, workload, line = row.split(" ", 2)
    result = json.loads(line)
    if not result["correct"] or result["failed"]:
        sys.exit(f"run failed its checks: {row}")
    for name, m in result["metrics"].items():
        values[(workload, name, int(run_set))].append(m["value"])

def spread(v):
    if len(v) < 2:
        return 0.0
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)

bad = 0
print(f"{'workload':8} {'metric':22} {'median A':>14} {'median B':>14} "
      f"{'spread A':>9} {'spread B':>9} {'B worse by':>10} {'bound':>6}")
for w in [x["name"] for x in spec["workloads"]]:
    for m in spec["end_to_end"]:
        a, b = values[(w, m["name"], 0)], values[(w, m["name"], 1)]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        over = worse > m["bound"] or (m["name"] != "setup_s" and max(sa, sb) > m["bound"])
        bad += over
        print(f"{w:8} {m['name']:22} {ma:14.4f} {mb:14.4f} {sa:9.1%} {sb:9.1%} "
              f"{worse:10.1%} {m['bound']:6.0%}{'  <-- outside the bound' if over else ''}")
sys.exit(1 if bad else 0)
PY
