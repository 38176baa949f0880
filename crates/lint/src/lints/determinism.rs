//! L1 `determinism`: protocol code must not read ambient time or OS
//! randomness.
//!
//! Theorem 3.1's replayability argument needs every protocol decision to
//! be a function of `SimTime`/`LocalNs` and the seeded RNG: one schedule,
//! one history. A stray `Instant::now()` or `thread_rng()` silently
//! reintroduces wall-clock nondeterminism. The lint runs over *all*
//! crates; the real-transport crates (`net`, `netclient`) are
//! exempted by the committed allowlist, not by the rule.

use crate::lexer::TokKind;
use crate::report::Violation;
use crate::source::SourceFile;

/// Identifiers that are forbidden outright wherever they appear.
const BANNED_IDENTS: &[(&str, &str)] = &[
    ("SystemTime", "ambient wall clock"),
    ("thread_rng", "OS-seeded randomness"),
    ("from_entropy", "OS-seeded randomness"),
    ("OsRng", "OS-seeded randomness"),
];

pub fn check(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        for (i, t) in f.tokens.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let why = if let Some((_, why)) = BANNED_IDENTS.iter().find(|(id, _)| t.is_ident(id)) {
                Some(format!("use of `{}` ({why})", t.text))
            } else if t.is_ident("Instant")
                && f.tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && f.tokens.get(i + 2).is_some_and(|n| n.is_ident("now"))
            {
                Some("call to `Instant::now` (ambient wall clock)".to_owned())
            } else {
                None
            };
            if let Some(why) = why {
                out.push(Violation {
                    file: f.rel.clone(),
                    line: t.line,
                    col: t.col,
                    lint: "L1".into(),
                    message: format!(
                        "{why}: protocol behaviour must be a function of simulated time and \
                         the seeded RNG"
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
    fn flags_instant_now_with_position() {
        let f = SourceFile::parse(
            "crates/core/src/lib.rs",
            "fn f() {\n    let t = Instant::now();\n}",
        );
        let v = check(&[f]);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].line, v[0].lint.as_str()), (2, "L1"));
    }

    #[test]
    fn instant_elapsed_alone_is_not_flagged() {
        let f = SourceFile::parse("crates/core/src/lib.rs", "fn f(i: Instant) -> u64 { 0 }");
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn flags_rng_sources() {
        let f = SourceFile::parse("crates/client/src/x.rs", "let r = thread_rng();");
        assert_eq!(check(&[f]).len(), 1);
    }
}
