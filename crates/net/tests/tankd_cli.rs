//! `tankd`'s command line: a mistyped flag is refused, not taken for the
//! bind address.

use std::process::Command;

#[test]
fn unknown_flag_prints_usage_and_exits_2_without_binding() {
    for args in [
        &["--recvoer"][..],
        &["--help"],
        &["127.0.0.1:0", "--recvoer"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tankd"))
            .args(args)
            .output()
            .expect("run tankd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let flag = args.last().expect("non-empty args");
        assert!(stderr.contains(flag), "{args:?}: flag not named: {stderr}");
        assert!(stderr.contains("usage: tankd"), "{args:?}: {stderr}");
        assert!(!stderr.contains("listening"), "{args:?} bound: {stderr}");
    }
}
