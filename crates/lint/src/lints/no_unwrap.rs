//! L3 `no-unwrap-on-wire`: decode and socket failures must flow into
//! typed errors, not panics.
//!
//! The NACK/retransmit design (DESIGN.md §6–7) assumes a malformed or
//! truncated datagram is an *event* the protocol handles — a node that
//! panics on a bad frame turns a lossy network into a crash fault, and a
//! server that panics on a torn log never recovers. So on every path that
//! reads untrusted bytes (`proto::wire`, the codec; all of `net` and
//! `netclient`; `meta`'s `wal` and `snapshot`, which read the private
//! device after a crash), `unwrap()` and `expect()` are banned outside
//! tests; failures there are `WireError`/`io::Error` values, a shortened
//! log scan, or dropped datagrams the retransmit machinery covers.
//! Genuinely unreachable cases (e.g. lock poisoning on a crate-private
//! mutex) use an inline `tank-lint: allow(L3)` with the argument spelled
//! out, or better, a non-panicking idiom.

use crate::report::Violation;
use crate::source::SourceFile;

fn in_scope(rel: &str) -> bool {
    matches!(
        rel,
        "crates/proto/src/wire.rs" | "crates/meta/src/wal.rs" | "crates/meta/src/snapshot.rs"
    ) || rel.starts_with("crates/net/src/")
        || rel.starts_with("crates/netclient/src/")
}

pub fn check(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        if !in_scope(&f.rel) {
            continue;
        }
        let toks = &f.tokens;
        for (i, t) in toks.iter().enumerate() {
            let callee = if t.is_ident("unwrap") || t.is_ident("expect") {
                &t.text
            } else {
                continue;
            };
            // Method position only: `.unwrap(`/`.expect(`. Leaves
            // `unwrap_or_else` (a different ident) and stray mentions alone.
            let is_method = i > 0
                && toks[i - 1].is_punct(".")
                && toks.get(i + 1).is_some_and(|n| n.is_punct("("));
            if is_method {
                out.push(Violation {
                    file: f.rel.clone(),
                    line: t.line,
                    col: t.col,
                    lint: "L3".into(),
                    message: format!(
                        "`.{callee}()` on a wire path: a bad frame or socket error must \
                         become a typed error feeding the NACK/retransmit machinery, not \
                         a panic"
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_unwrap_and_expect_in_net() {
        for rel in ["crates/net/src/server.rs", "crates/netclient/src/lib.rs"] {
            let f = SourceFile::parse(
                rel,
                "let g = m.lock().unwrap();\nlet v = x.expect(\"decode\");",
            );
            let v = check(&[f]);
            assert_eq!(v.len(), 2, "{rel}");
            assert_eq!((v[0].line, v[1].line), (1, 2));
        }
    }

    #[test]
    fn flags_unwrap_and_expect_in_the_codec_log_and_snapshot() {
        for rel in [
            "crates/proto/src/wire.rs",
            "crates/meta/src/wal.rs",
            "crates/meta/src/snapshot.rs",
        ] {
            let f = SourceFile::parse(
                rel,
                "let g = m.lock().unwrap();\nlet v = x.expect(\"decode\");",
            );
            let v = check(&[f]);
            assert_eq!(v.len(), 2, "{rel}");
            assert_eq!((v[0].line, v[1].line), (1, 2));
        }
    }

    #[test]
    fn unwrap_or_else_is_fine() {
        let f = SourceFile::parse(
            "crates/netclient/src/lib.rs",
            "let g = m.lock().unwrap_or_else(|p| p.into_inner());",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn tests_and_other_crates_are_out_of_scope() {
        let in_tests = SourceFile::parse(
            "crates/netclient/src/lib.rs",
            "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }",
        );
        let elsewhere = SourceFile::parse("crates/core/src/lib.rs", "x.unwrap();");
        let rest_of_meta = SourceFile::parse("crates/meta/src/store.rs", "x.unwrap();");
        assert!(check(&[in_tests, elsewhere, rest_of_meta]).is_empty());
    }
}
