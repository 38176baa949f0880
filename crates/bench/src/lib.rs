//! Benchmark-only crate: see `benches/` for the Criterion harnesses and
//! DESIGN.md §4 for the experiment-to-bench mapping.
