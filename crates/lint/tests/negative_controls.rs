//! Negative controls: prove the lints actually fire.
//!
//! A linter that never complains is indistinguishable from one that
//! never runs. Each test here builds a throwaway fixture workspace with
//! a deliberate violation and asserts the right lint reports the right
//! file and line — through the library API and, for L1, through the
//! installed binary with its JSON output and non-zero exit code.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use tank_lint::report::Report;

/// Materialise a fixture workspace under the OS temp dir. The caller
/// gets a unique root containing a `[workspace]` manifest plus `files`.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str, files: &[(&str, &str)]) -> Fixture {
        let root =
            std::env::temp_dir().join(format!("tank-lint-fixture-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create fixture root");
        fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
        for (rel, text) in files {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().expect("fixture file has a parent"))
                .expect("create fixture dirs");
            fs::write(path, text).expect("write fixture file");
        }
        Fixture { root }
    }

    fn check(&self) -> Report {
        tank_lint::check(&self.root).expect("lint fixture")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn l1_fires_on_instant_now_in_protocol_crate() {
    let fixture = Fixture::new(
        "l1-lib",
        &[(
            "crates/core/src/lib.rs",
            "use std::time::Instant;\n\npub fn bad() -> Instant {\n    Instant::now()\n}\n",
        )],
    );
    let report = fixture.check();
    assert_eq!(report.violations.len(), 1, "{}", report.to_text());
    let v = &report.violations[0];
    assert_eq!(v.lint, "L1");
    assert_eq!(v.file, "crates/core/src/lib.rs");
    assert_eq!(v.line, 4, "should point at the call, not the import");
}

#[test]
fn l1_binary_exits_nonzero_with_json_diagnostics() {
    let fixture = Fixture::new(
        "l1-bin",
        &[(
            "crates/core/src/lib.rs",
            "pub fn bad() -> u64 {\n    std::time::Instant::now().elapsed().as_nanos() as u64\n}\n",
        )],
    );
    let out = Command::new(env!("CARGO_BIN_EXE_tank-lint"))
        .args(["--format", "json", "--root"])
        .arg(&fixture.root)
        .output()
        .expect("run tank-lint binary");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let report =
        Report::from_json(String::from_utf8_lossy(&out.stdout).trim()).expect("parse JSON output");
    let v = report
        .violations
        .iter()
        .find(|v| v.lint == "L1")
        .expect("an L1 violation in the JSON report");
    assert_eq!(v.file, "crates/core/src/lib.rs");
    assert_eq!(v.line, 2);
}

#[test]
fn l2_fires_on_bare_lease_arithmetic() {
    let fixture = Fixture::new(
        "l2",
        &[(
            "crates/client/src/lib.rs",
            "pub fn bad(t: LocalNs) -> LocalNs {\n    LocalNs(t.0 * 2)\n}\n",
        )],
    );
    let report = fixture.check();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.lint == "L2" && v.line == 2),
        "{}",
        report.to_text()
    );
}

#[test]
fn l3_fires_on_unwrap_in_net() {
    let fixture = Fixture::new(
        "l3",
        &[(
            "crates/netclient/src/lib.rs",
            "pub fn bad(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
        )],
    );
    let report = fixture.check();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.lint == "L3" && v.line == 2),
        "{}",
        report.to_text()
    );
}

#[test]
fn l3_fires_on_unwrap_in_every_decoder_of_logged_and_wire_bytes() {
    for (name, rel) in [
        ("l3-wire", "crates/proto/src/wire.rs"),
        ("l3-wal", "crates/meta/src/wal.rs"),
        ("l3-snapshot", "crates/meta/src/snapshot.rs"),
    ] {
        let fixture = Fixture::new(
            name,
            &[(
                rel,
                "pub fn bad(x: Option<u8>) -> u8 {\n    x.expect(\"byte\")\n}\n",
            )],
        );
        let report = fixture.check();
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.lint == "L3" && v.file == rel && v.line == 2),
            "{rel}: {}",
            report.to_text()
        );
    }
}

#[test]
fn l4_fires_on_wildcard_protocol_match() {
    let fixture = Fixture::new(
        "l4",
        &[(
            "crates/server/src/lib.rs",
            "pub fn bad(m: NetMsg) -> bool {\n    match m {\n        NetMsg::Ctl(_) => true,\n        _ => false,\n    }\n}\n",
        )],
    );
    let report = fixture.check();
    assert!(
        report.violations.iter().any(|v| v.lint == "L4"),
        "{}",
        report.to_text()
    );
}

#[test]
fn l5_fires_on_unreferenced_metric() {
    let fixture = Fixture::new(
        "l5",
        &[
            (
                "crates/obs/src/names.rs",
                "pub const ORPHAN_METRIC: MetricDef = counter(\"x.orphan\", \"never emitted\");\n",
            ),
            ("crates/obs/src/lib.rs", "pub mod names;\n"),
        ],
    );
    let report = fixture.check();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.lint == "L5" && v.message.contains("ORPHAN_METRIC")),
        "{}",
        report.to_text()
    );
}

#[test]
fn l4_fires_on_wildcard_over_the_state_machine_enums() {
    // The PR-8 additions to the protocol-enum set: lock modes, cache
    // block states, WAL records, and the replication stream.
    for (name, arm) in [
        ("lockmode", "LockMode::Shared"),
        ("blockstate", "BlockState::Dirty"),
        ("walrecord", "WalRecord::Incarnation(_)"),
        ("replmsg", "ReplMsg::Append { .. }"),
    ] {
        let fixture = Fixture::new(
            &format!("l4-{name}"),
            &[(
                "crates/server/src/lib.rs",
                &format!(
                    "pub fn bad(m: M) -> bool {{\n    match m {{\n        {arm} => true,\n        _ => false,\n    }}\n}}\n"
                ),
            )],
        );
        let report = fixture.check();
        assert!(
            report.violations.iter().any(|v| v.lint == "L4"),
            "{arm}: {}",
            report.to_text()
        );
    }
}

#[test]
fn l6_fires_on_ack_before_fsync() {
    let fixture = Fixture::new(
        "l6",
        &[(
            "crates/server/src/node.rs",
            "pub fn respond(&mut self, ctx: &mut Ctx) {\n    \
             self.wal_append(&rec);\n    \
             ctx.send(NetId::CONTROL, c, NetMsg::Ctl(CtlMsg::Response(resp)));\n    \
             self.wal_fsync(ctx);\n}\n",
        )],
    );
    let report = fixture.check();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.lint == "L6" && v.line == 3),
        "{}",
        report.to_text()
    );
}

#[test]
fn l6_sync_before_ack_is_clean() {
    let fixture = Fixture::new(
        "l6-clean",
        &[(
            "crates/server/src/node.rs",
            "pub fn respond(&mut self, ctx: &mut Ctx) {\n    \
             self.wal_append(&rec);\n    \
             self.wal_sync_and_ship(ctx);\n    \
             ctx.send(NetId::CONTROL, c, NetMsg::Ctl(CtlMsg::Response(resp)));\n}\n",
        )],
    );
    let report = fixture.check();
    assert!(report.clean(), "{}", report.to_text());
}

#[test]
fn l7_fires_on_block_cache_escaping_the_client() {
    let fixture = Fixture::new(
        "l7-escape",
        &[(
            "crates/server/src/node.rs",
            "pub fn peek(c: &BlockCache) -> usize {\n    c.len()\n}\n",
        )],
    );
    let report = fixture.check();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.lint == "L7" && v.line == 1),
        "{}",
        report.to_text()
    );
}

#[test]
fn l7_fires_on_ungated_cache_fill() {
    let fixture = Fixture::new(
        "l7-fill",
        &[(
            "crates/client/src/node.rs",
            "impl ClientNode {\n    fn on_resp(&mut self) {\n        \
             self.cache.fill(ino, idx, data, tag);\n    }\n}\n",
        )],
    );
    let report = fixture.check();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.lint == "L7" && v.message.contains("may_admit")),
        "{}",
        report.to_text()
    );
}

#[test]
fn l7_fires_on_ungated_cache_fill_in_a_child_module_of_node() {
    // The client's node module is split over node.rs and node/*.rs: the
    // gates hold in every file of the tree, and the cache may be named
    // there.
    let fixture = Fixture::new(
        "l7-fill-child",
        &[(
            "crates/client/src/node/data.rs",
            "use crate::cache::BlockCache;\n\nimpl ClientNode {\n    fn on_resp(&mut self) {\n        \
             self.cache.fill(ino, idx, data, tag);\n    }\n}\n",
        )],
    );
    let report = fixture.check();
    let l7: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.lint == "L7")
        .collect();
    assert_eq!(l7.len(), 1, "{}", report.to_text());
    assert!(
        l7[0].line == 5 && l7[0].message.contains("may_admit"),
        "{}",
        report.to_text()
    );
}

#[test]
fn l7_fires_on_ungated_cached_attr_serve() {
    let fixture = Fixture::new(
        "l7-attr-serve",
        &[(
            "crates/client/src/node.rs",
            "impl ClientNode {\n    fn stat(&mut self) {\n        \
             self.emit(Event::AttrServed { ino, from_cache: true }, ctx);\n    }\n}\n",
        )],
    );
    let report = fixture.check();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.lint == "L7" && v.line == 3 && v.message.contains("cache_usable")),
        "{}",
        report.to_text()
    );
}

#[test]
fn l7_tells_a_pattern_reading_a_cached_attr_serve_from_one_built() {
    // The fold in `emit` reads the event; the function below it builds
    // one without the gate. Only the build is a cached `Stat` served.
    let fixture = Fixture::new(
        "l7-attr-read",
        &[(
            "crates/client/src/node.rs",
            "impl ClientNode {\n    fn emit(&mut self, ev: Event) {\n        match ev {\n            \
             Event::AttrServed { from_cache: true, .. } => self.hits += 1,\n            \
             _ => {}\n        }\n    }\n    fn stat(&mut self) {\n        \
             self.emit(Event::AttrServed { ino, from_cache: true });\n    }\n}\n",
        )],
    );
    let report = fixture.check();
    let l7: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.lint == "L7")
        .collect();
    assert_eq!(l7.len(), 1, "{}", report.to_text());
    assert!(
        l7[0].line == 9 && l7[0].message.contains("cache_usable"),
        "{}",
        report.to_text()
    );
}

#[test]
fn l7_fires_on_ungated_attr_store() {
    let fixture = Fixture::new(
        "l7-attr-store",
        &[(
            "crates/client/src/node.rs",
            "impl ClientNode {\n    fn on_reply(&mut self) {\n        \
             info.attr = Some(CachedAttr { version, is_dir });\n    }\n}\n",
        )],
    );
    let report = fixture.check();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.lint == "L7" && v.line == 3 && v.message.contains("may_admit")),
        "{}",
        report.to_text()
    );
}

#[test]
fn l8_fires_on_unsorted_lock_acquisition_loop() {
    let fixture = Fixture::new(
        "l8",
        &[(
            "crates/client/src/node.rs",
            "impl ClientNode {\n    fn advance(&mut self, ctx: &mut Ctx) {\n        \
             for ino in self.rename_dirs() {\n            \
             self.ensure_lock_then(ino, LockMode::Exclusive, k, ctx);\n        }\n    }\n}\n",
        )],
    );
    let report = fixture.check();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.lint == "L8" && v.line == 3),
        "{}",
        report.to_text()
    );
}

#[test]
fn l8_sorted_acquisition_is_clean() {
    let fixture = Fixture::new(
        "l8-clean",
        &[(
            "crates/client/src/node.rs",
            "impl ClientNode {\n    fn advance(&mut self, ctx: &mut Ctx) {\n        \
             let mut dirs = self.rename_dirs();\n        dirs.sort();\n        \
             for ino in dirs {\n            \
             self.ensure_lock_then(ino, LockMode::Exclusive, k, ctx);\n        }\n    }\n}\n",
        )],
    );
    let report = fixture.check();
    assert!(report.clean(), "{}", report.to_text());
}

#[test]
fn inline_directive_suppresses_and_is_counted() {
    let fixture = Fixture::new(
        "inline-allow",
        &[(
            "crates/core/src/lib.rs",
            "pub fn special() -> std::time::Instant {\n    // tank-lint: allow(L1) negative-control fixture\n    std::time::Instant::now()\n}\n",
        )],
    );
    let report = fixture.check();
    assert!(report.clean(), "{}", report.to_text());
    assert_eq!(report.allowlisted, 1);
}
