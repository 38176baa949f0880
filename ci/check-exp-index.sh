#!/usr/bin/env bash
# The experiment index stays whole: every crates/cluster/src/bin/exp_*.rs is
# named in README.md, EXPERIMENTS.md and DESIGN.md, and every `exp_*` those
# three files name exists as a bin. A bin added without its docs, or removed
# from only some of them, fails here. So does a mention of the deleted
# `crates/bench` / `cargo bench` / criterion suite.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

bins=crates/cluster/src/bin
failed=0
for doc in README.md EXPERIMENTS.md DESIGN.md; do
    for src in "$bins"/exp_*.rs; do
        name="$(basename "$src" .rs)"
        grep -qw "$name" "$doc" || { echo "FAIL $doc does not name $name"; failed=1; }
    done
    for name in $(grep -oE 'exp_[a-z0-9_]+' "$doc" | sort -u); do
        [ -f "$bins/$name.rs" ] || { echo "FAIL $doc names $name, which is not a bin"; failed=1; }
    done
    # The micro-bench crate is gone (its layers are the benchmark's per-layer
    # metrics): no doc may send a reader to it.
    if grep -nEi 'cargo bench|crates/bench|criterion' "$doc"; then
        echo "FAIL $doc still names the deleted micro-bench crate"; failed=1
    fi
done
[ "$failed" = 0 ] && echo "ok   experiment index: $(ls "$bins"/exp_*.rs | wc -l) bins, 3 docs"
exit "$failed"
