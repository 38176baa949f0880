//! L2 `checked-time-arithmetic`: lease/timestamp math must not silently
//! wrap.
//!
//! Lease-expiry comparisons (`DESIGN.md` §3: the client walks to Phase 4
//! strictly before the server's `τ(1+ε)` timer) stop being comparisons
//! if an intermediate `u64` wraps or an `as` cast truncates. The
//! newtypes `LocalNs`/`SimTime` exist so arithmetic happens once, in
//! `sim::time`, with saturating semantics. This lint flags bare `+`,
//! `-`, `*`, or `as` inside a `LocalNs(..)`/`SimTime(..)` constructor in
//! the protocol crates — the raw-`u64` escape hatch that would bypass
//! the checked helpers. Division is permitted (it cannot wrap).
//!
//! The check is lexical, scoped to constructor argument lists: arithmetic
//! *before* the value reaches a constructor is out of reach, but every
//! wrap found in practice sat exactly in this pattern
//! (`LocalNs(a.0 * 2)`-style), and the constructor is the one funnel all
//! raw values pass through.

use crate::report::Violation;
use crate::source::SourceFile;

use super::PROTOCOL_CRATES;

const TIME_TYPES: &[&str] = &["LocalNs", "SimTime"];

pub fn check(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        let in_scope = f.crate_name().is_some_and(|c| PROTOCOL_CRATES.contains(&c));
        if !in_scope {
            continue;
        }
        let toks = &f.tokens;
        for (i, t) in toks.iter().enumerate() {
            if !TIME_TYPES.iter().any(|ty| t.is_ident(ty)) {
                continue;
            }
            // Constructor call: the type name directly followed by `(`.
            // `LocalNs::from_millis(..)` has `::` here and is not matched.
            if !toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
                continue;
            }
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < toks.len() {
                let a = &toks[j];
                if a.is_punct("(") {
                    depth += 1;
                } else if a.is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if a.is_punct("+") || a.is_punct("-") || a.is_punct("*") || a.is_ident("as")
                {
                    out.push(Violation {
                        file: f.rel.clone(),
                        line: a.line,
                        col: a.col,
                        lint: "L2".into(),
                        message: format!(
                            "bare `{}` inside `{}(..)`: raw time arithmetic can wrap or \
                             truncate — use the checked helpers in sim::time",
                            a.text, t.text
                        ),
                    });
                }
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_bare_multiply_in_constructor() {
        let f = SourceFile::parse("crates/client/src/node.rs", "let rto = LocalNs(cur.0 * 2);");
        let v = check(&[f]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "L2");
    }

    #[test]
    fn flags_as_cast_in_constructor() {
        let f = SourceFile::parse(
            "crates/core/src/config.rs",
            "LocalNs((tau.0 as f64 * frac) as u64)",
        );
        // Two `as` casts and one `*`.
        assert_eq!(check(&[f]).len(), 3);
    }

    #[test]
    fn division_and_helpers_are_fine() {
        let f = SourceFile::parse(
            "crates/core/src/config.rs",
            "let a = LocalNs(tau.0 / 20); let b = tau.times(2); let c = LocalNs::from_millis(5);",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn out_of_scope_crates_are_ignored() {
        let f = SourceFile::parse("crates/cluster/src/main.rs", "LocalNs(a + b)");
        assert!(check(&[f]).is_empty());
    }
}
