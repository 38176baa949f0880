#!/usr/bin/env bash
# CI gate on the repo benchmark's simulated-time metrics (ROADMAP 2(c)).
#
# `sim_ops_per_s`, `unavail_ms` and `failover_ms` come from the simulator's
# clock, so for a given workload, seed and run length they repeat exactly on
# any machine. This reruns the three workloads at `--seed 1 --seconds 2` and
# fails, naming the metric, when one has moved from ci/sim-baseline.json by
# more than its bound in BENCHMARK.json, in either direction: a gain has to be
# announced as well. Wall-clock metrics are not gated here; they are judged on
# paired runs only (benchmark/README.md).
#
# To re-baseline after an intended change: `bash ci/check-sim-baseline.sh
# --write`, commit ci/sim-baseline.json, and say in CHANGES.md which metric
# moved and why.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

mode="${1:-check}"
results=()
for w in small batch lock; do
    results+=("$w" "$(bash benchmark/run.sh --workload "$w" --seed 1 --seconds 2 --trace 0 | tail -n 1)")
done

python3 - "$mode" "${results[@]}" <<'PY'
import json, sys

GATED = ("sim_ops_per_s", "unavail_ms", "failover_ms")
mode, runs = sys.argv[1], dict(zip(sys.argv[2::2], map(json.loads, sys.argv[3::2])))
measured = {w: {m: r["metrics"][m]["value"] for m in GATED} for w, r in runs.items()}
if mode == "--write":
    with open("ci/sim-baseline.json", "w") as f:
        f.write(json.dumps(measured, indent=2) + "\n")
    sys.exit(0)

bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
baseline = json.load(open("ci/sim-baseline.json"))
failed = False
for w, run in runs.items():
    if not run["correct"] or run["failed"]:
        print(f"FAIL {w}: correct={run['correct']} failed={run['failed']}")
        failed = True
    for m in GATED:
        want, got = baseline[w][m], measured[w][m]
        moved = abs(got - want) / want
        verdict = "ok  " if moved <= bounds[m] else "FAIL"
        failed |= moved > bounds[m]
        print(f"{verdict} {w} {m}: {got} (baseline {want}, moved {moved:.2%}, bound {bounds[m]:.0%})")
sys.exit(1 if failed else 0)
PY
