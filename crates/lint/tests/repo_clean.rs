//! Tier-1 gate: the shipped workspace obeys its own lints.
//!
//! This is the enforcement half of the tank-lint contract — `cargo test`
//! fails the moment anyone commits a determinism, arithmetic, unwrap,
//! match-exhaustiveness, or metric-closure violation that is not
//! explicitly allowlisted (see LINTS.md for the appeal process).

use std::path::Path;

#[test]
fn workspace_has_zero_lint_violations() {
    let root = tank_lint::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let report = tank_lint::check(&root).expect("workspace walk");
    assert!(
        report.clean(),
        "tank-lint found violations:\n{}",
        report.to_text()
    );
    // Guard against the walk silently finding nothing (which would make
    // the assertion above vacuous).
    assert!(
        report.checked_files >= 50,
        "suspiciously small walk: {} files",
        report.checked_files
    );
}

/// A structural waiver must still be needed: every allowlist entry covers
/// at least one finding on the repo that no inline directive already
/// excuses.
#[test]
fn every_allowlist_entry_suppresses_a_finding() {
    let root = tank_lint::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let files = tank_lint::source::walk_sources(&root).expect("workspace walk");
    let findings = tank_lint::lints::run_all(&files);
    for entry in tank_lint::allowlist::ALLOWLIST {
        let needed = findings.iter().any(|v| {
            v.lint == entry.lint
                && v.file.starts_with(entry.path_prefix)
                && !files
                    .iter()
                    .any(|f| f.rel == v.file && f.inline_allowed(&v.lint, v.line))
        });
        assert!(
            needed,
            "allowlist entry {} `{}` suppresses nothing: delete it",
            entry.lint, entry.path_prefix
        );
    }
}
