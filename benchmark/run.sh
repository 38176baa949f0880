#!/usr/bin/env bash
# The repo benchmark's one command. README.md beside this file explains
# every number it prints.
#
#   benchmark/run.sh --workload <small|batch|lock> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the last line of standard output is the
#       result object (BENCHMARK.json names this form as `command`)
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--smoke] [--trace]
#       every workload in turn (timed; with --trace, traced as well)
#
# Builds `tankd` from the repo's sources and the harness from this
# directory (release, offline) into $CARGO_TARGET_DIR (default: target/ at
# the repo root), then runs the harness. Extra flags (--inject ..., --out
# ...) are passed through to the harness.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

workload=""
seed=1
seconds=30
trace=0
extra=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace)
            # `--trace 0|1` (the driver's form) or a bare `--trace`.
            if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
        # All checks on, every workload, a few seconds in all.
        --smoke) seconds=2; shift ;;
        *) extra+=("$1"); shift ;;
    esac
done

target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# The program under test, exactly as the repo builds it; then the harness
# and the probe. Cargo's own progress goes to standard error.
cargo build --release --offline --manifest-path "$root/Cargo.toml" -p tank-net --bin tankd
cargo build --release --offline --manifest-path "$here/Cargo.toml" --bins

bin="$target/release"
run() {
    "$bin/harness" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" \
        --tankd "$bin/tankd" --probe "$bin/probe" --out "$here/out" ${extra[@]+"${extra[@]}"}
}

if [ -n "$workload" ]; then
    run "$workload" "$trace"
else
    for w in small batch lock; do
        run "$w" 0
        if [ "$trace" = 1 ]; then run "$w" 1; fi
    done
fi
