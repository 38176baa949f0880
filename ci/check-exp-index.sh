#!/usr/bin/env bash
# The experiment index stays whole: every crates/cluster/src/bin/exp_*.rs is
# named in README.md, EXPERIMENTS.md and DESIGN.md, and every `exp_*` those
# three files name exists as a bin. A bin added without its docs, or removed
# from only some of them, fails here.
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
done
[ "$failed" = 0 ] && echo "ok   experiment index: $(ls "$bins"/exp_*.rs | wc -l) bins, 3 docs"
exit "$failed"
