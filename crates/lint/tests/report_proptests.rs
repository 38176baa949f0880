//! Property tests for the lint report: the JSON codec round-trips, and
//! the report is a pure function of the file *set*, not the walk order.

use proptest::collection::vec;
use proptest::prelude::*;

use tank_lint::check_files;
use tank_lint::report::{Report, Violation};
use tank_lint::source::SourceFile;

/// Strings that stress the JSON escaper: quotes, backslashes, control
/// characters, and multi-byte UTF-8, mixed with plain identifier runs.
fn tricky_string() -> impl Strategy<Value = String> {
    (
        "[a-zA-Z0-9_./-]{0,12}",
        prop_oneof![
            Just(String::new()),
            Just("\"".to_string()),
            Just("\\".to_string()),
            Just("\n\t\r".to_string()),
            Just("\u{1}\u{1f}".to_string()),
            Just("τ(1+ε) — naïve".to_string()),
        ],
        "[a-zA-Z0-9 ]{0,12}",
    )
        .prop_map(|(a, b, c)| format!("{a}{b}{c}"))
}

fn violation() -> impl Strategy<Value = Violation> {
    (
        tricky_string(),
        0u32..100_000,
        1u32..500,
        prop_oneof![
            Just("L1".to_string()),
            Just("L2".to_string()),
            Just("L3".to_string()),
            Just("L4".to_string()),
            Just("L5".to_string()),
        ],
        tricky_string(),
    )
        .prop_map(|(file, line, col, lint, message)| Violation {
            file,
            line,
            col,
            lint,
            message,
        })
}

fn report() -> impl Strategy<Value = Report> {
    (any::<u64>(), any::<u64>(), vec(violation(), 0..8)).prop_map(
        |(checked_files, allowlisted, violations)| Report {
            checked_files,
            allowlisted,
            violations,
        },
    )
}

proptest! {
    #[test]
    fn json_round_trips_any_report(r in report()) {
        let encoded = r.to_json();
        let decoded = Report::from_json(&encoded)
            .unwrap_or_else(|e| panic!("decode failed: {e}\njson: {encoded}"));
        prop_assert_eq!(&decoded, &r);
        // Canonical encoding: encoding again is byte-identical.
        prop_assert_eq!(decoded.to_json(), encoded);
    }

    #[test]
    fn report_is_stable_under_walk_order(keys in vec(any::<u64>(), 6)) {
        // A small workspace slice with violations in several files.
        let files = vec![
            SourceFile::parse("crates/core/src/a.rs", "fn f() { let t = Instant::now(); }"),
            SourceFile::parse("crates/core/src/b.rs", "fn g() { let r = thread_rng(); }"),
            SourceFile::parse("crates/client/src/c.rs", "let x = LocalNs(a.0 * 2);"),
            SourceFile::parse("crates/netclient/src/lib.rs", "fn h(v: Option<u8>) { v.unwrap(); }"),
            SourceFile::parse("crates/proto/src/clean.rs", "pub fn ok() {}"),
            SourceFile::parse(
                "crates/server/src/d.rs",
                "fn m(p: PushBody) -> bool { match p { PushBody::Demand { .. } => true, _ => false } }",
            ),
        ];
        let baseline = check_files(&files);
        prop_assert!(!baseline.violations.is_empty(), "fixture should trip lints");

        // Shuffle by sorting on random keys; every permutation must
        // produce the identical report.
        let mut order: Vec<usize> = (0..files.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let shuffled: Vec<SourceFile> = order.iter().map(|&i| files[i].clone()).collect();
        let report = check_files(&shuffled);
        prop_assert_eq!(&report, &baseline);
        prop_assert_eq!(report.to_json(), baseline.to_json());
    }
}
