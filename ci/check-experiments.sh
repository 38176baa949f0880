#!/usr/bin/env bash
# Every experiment is a check. Each crates/cluster/src/bin/exp_*.rs asserts
# its paper claim in `main` and prints one deterministic report. This builds
# the bins, runs each from an empty temporary directory, and fails when a bin
# exits non-zero (a claim's assertion fired), leaves a file behind, or prints
# anything but its committed capture results/<bin>.txt, byte for byte.
#
# A capture that differs is a behaviour change. After an intended one,
# rerun the bin into its capture (`target/release/exp_x > results/exp_x.txt`),
# commit it, and update the numbers EXPERIMENTS.md quotes from it.
#
# It also keeps the experiment index whole: README.md, EXPERIMENTS.md and
# DESIGN.md each name every bin and no `exp_*` that is not one, name no
# `cargo run --example X` without an examples/X.rs, every capture belongs to
# a bin, and no doc names the deleted micro-bench crate.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

bins=crates/cluster/src/bin
failed=0
fail() { echo "FAIL $*"; failed=1; }

for doc in README.md EXPERIMENTS.md DESIGN.md; do
    for src in "$bins"/exp_*.rs; do
        name="$(basename "$src" .rs)"
        grep -qw "$name" "$doc" || fail "$doc does not name $name"
    done
    for name in $(grep -oE 'exp_[a-z0-9_]+' "$doc" | sort -u); do
        [ -f "$bins/$name.rs" ] || fail "$doc names $name, which is not a bin"
    done
    for name in $(grep -oE 'cargo run --example [A-Za-z0-9_]+' "$doc" | awk '{print $4}' | sort -u); do
        [ -f "examples/$name.rs" ] || fail "$doc runs example $name, which has no examples/$name.rs"
    done
    if grep -nEi 'cargo bench|crates/bench|criterion' "$doc"; then
        fail "$doc still names the deleted micro-bench crate"
    fi
done
for capture in results/*.txt; do
    [ -f "$bins/$(basename "$capture" .txt).rs" ] || fail "$capture belongs to no bin"
done

cargo build --release --quiet -p tank-cluster --bins
exe_dir="$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
for src in "$bins"/exp_*.rs; do
    name="$(basename "$src" .rs)"
    mkdir "$tmp/$name"
    start=$SECONDS
    if ! (cd "$tmp/$name" && "$exe_dir/$name" > "$tmp/$name.out"); then
        fail "$name exited non-zero"
        continue
    fi
    [ -z "$(ls -A "$tmp/$name")" ] || fail "$name left files behind: $(ls -A "$tmp/$name")"
    if diff -u "results/$name.txt" "$tmp/$name.out"; then
        echo "ok   $name ($((SECONDS - start)) s)"
    else
        fail "$name: stdout differs from results/$name.txt"
    fi
done
exit "$failed"
