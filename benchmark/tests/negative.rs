//! Negative controls: each output check, given the defect it exists to
//! catch, must fail the command — and without the defect the same short
//! run must pass. These drive the real `harness` against a real `tankd`.

use std::path::PathBuf;
use std::process::{Command, Output};

/// The `tankd` the repo's own build produced (`cargo build --release` at
/// the root, or `benchmark/run.sh`), or `$TANKD`.
fn tankd() -> PathBuf {
    let mut candidates = Vec::new();
    if let Some(p) = std::env::var_os("TANKD") {
        candidates.push(PathBuf::from(p));
    }
    if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
        candidates.push(PathBuf::from(dir).join("release/tankd"));
    }
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    candidates.push(root.join("target/release/tankd"));
    candidates
        .iter()
        .find(|p| p.is_file())
        .cloned()
        .unwrap_or_else(|| {
            panic!(
                "no tankd binary at any of {candidates:?}: run `cargo build --release` at the \
                 repo root (or benchmark/run.sh --smoke) first, or set TANKD"
            )
        })
}

fn harness(workload: &str, inject: Option<&str>) -> Output {
    let out = std::env::temp_dir().join(format!("tank-benchmark-test-{}", std::process::id()));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_harness"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "9",
        "--seconds",
        "1",
        "--trace",
        "0",
    ])
    .arg("--tankd")
    .arg(tankd())
    .arg("--out")
    .arg(out);
    if let Some(defect) = inject {
        cmd.args(["--inject", defect]);
    }
    cmd.output().expect("run the harness")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or("")
        .to_owned()
}

#[test]
fn a_clean_short_run_passes_every_check() {
    for workload in ["small", "lock"] {
        let out = harness(workload, None);
        let line = last_line(&out);
        assert!(
            out.status.success(),
            "{workload}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0, "), "{line}");
        assert!(line.contains("\"setup_s\": {\"value\": "), "{line}");
    }
}

#[test]
fn a_corrupted_reply_fails_the_shadow_check() {
    let out = harness("small", Some("corrupt-reply"));
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("CHECK FAILED"), "{text}");
    assert!(last_line(&out).starts_with("{\"correct\": false"), "{text}");
}

#[test]
fn an_ignored_demand_fails_the_lock_audit() {
    let out = harness("lock", Some("ignore-demand"));
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("never answered"), "{text}");
}

#[test]
fn a_cache_that_serves_past_its_lease_fails_the_drill() {
    let out = harness("small", Some("no-phase3-gate"));
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("CHECK FAILED: drill"), "{text}");
}
