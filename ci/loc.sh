#!/usr/bin/env bash
# Non-test lines of code per crate: for every .rs file under each
# crates/*/src, the lines before its first top-level `#[cfg(test)]` (the
# unit-test module every file keeps at its end). Comments and blank lines
# count; integration tests, benches and stubs do not. A simplicity change
# quotes these counts before and after, so every such change measures the
# same thing.
#
#   bash ci/loc.sh            one line per crate, then the total
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

total=0
for src in crates/*/src; do
    n=$(find "$src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n + 0 }')
    printf '%7d  %s\n' "$n" "$src"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
