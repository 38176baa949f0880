//! L7 `phase-gated-cache-access`: the client's lock-protected cache —
//! blocks, and the attributes cached beside them — is only touched through
//! its two gates, and only from the code that owns it: the cache's own
//! file and the client's `node` module tree.
//!
//! CACHING.md's coherence contract hangs on two funnels: cached data is
//! *served* only while the lane's lease phase allows it (`cache_usable`,
//! the Figure-4 phase 1–2 gate), and data *enters* the cache only when
//! read under the currently-held lock epoch (`may_admit`). A cache
//! access that bypasses either gate is exactly the bug class the
//! checker's coherence audit exists to catch at runtime; this lint
//! catches it at review time instead.
//!
//! Five clauses:
//!
//! 1. the `BlockCache` type is confined to `client/src/cache.rs` (its
//!    home) and the `node` module tree, `client/src/node.rs` and every
//!    file under `client/src/node/` (its one consumer); any other
//!    mention is a violation (`client/src/lib.rs` re-exports it for the
//!    cache's own integration tests, on the committed allowlist);
//! 2. a function that calls `.fill(` on the cache must consult
//!    `may_admit` in the same function;
//! 3. a function that both reads the cache (`.get(`) and serves a
//!    `ReadServed` event must consult `cache_usable` in the same
//!    function;
//! 4. a function that builds `AttrServed { from_cache: true }` — a `Stat`
//!    answered from cached attributes — must consult `cache_usable`; a
//!    match pattern that only reads such an event is not held to it;
//! 5. a function that stores attributes into a `LockInfo` (`attr = Some(`
//!    or a field `attr: Some(`) must consult `may_admit`.

use crate::report::Violation;
use crate::source::SourceFile;

use super::scan;

/// The cache's home.
const CACHE_HOME: &str = "crates/client/src/cache.rs";

/// Whether `rel` belongs to the cache's one consumer: the client's `node`
/// module, whose code is split over `node.rs` and its child modules.
fn in_node_tree(rel: &str) -> bool {
    rel == "crates/client/src/node.rs" || rel.starts_with("crates/client/src/node/")
}

pub fn check(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        let toks = &f.tokens;
        if f.rel != CACHE_HOME && !in_node_tree(&f.rel) {
            for t in toks {
                if t.is_ident("BlockCache") {
                    out.push(Violation {
                        file: f.rel.clone(),
                        line: t.line,
                        col: t.col,
                        lint: "L7".into(),
                        message: "`BlockCache` outside client/src/cache.rs and the \
                                  client's `node` module tree: every cache access must \
                                  flow through the gated paths there, not reach the \
                                  cache directly"
                            .into(),
                    });
                }
            }
            continue;
        }
        // Inside the owning files the gates themselves apply. The cache
        // implementation file defines fill/get; only the consumer is
        // held to the gate rule.
        if !in_node_tree(&f.rel) {
            continue;
        }
        for (start, end) in scan::fn_bodies(toks) {
            let body = &toks[start..end];
            let mentions = |name: &str| body.iter().any(|t| t.is_ident(name));
            let fill_at = (start..end).find(|&i| scan::is_method_call(toks, i, "fill"));
            if let Some(i) = fill_at {
                if !mentions("may_admit") {
                    out.push(Violation {
                        file: f.rel.clone(),
                        line: toks[i].line,
                        col: toks[i].col,
                        lint: "L7".into(),
                        message: "cache `.fill(` without consulting `may_admit` in this \
                                  function: data read under a dead lock epoch must not \
                                  enter the cache"
                            .into(),
                    });
                }
            }
            let get_at = (start..end).find(|&i| scan::is_method_call(toks, i, "get"));
            if let (Some(i), true) = (get_at, mentions("ReadServed")) {
                if !mentions("cache_usable") {
                    out.push(Violation {
                        file: f.rel.clone(),
                        line: toks[i].line,
                        col: toks[i].col,
                        lint: "L7".into(),
                        message: "cache `.get(` on a serve path (`ReadServed`) without \
                                  consulting `cache_usable`: a quiesced lane (phase 3+) \
                                  must not serve cached data"
                            .into(),
                    });
                }
            }
            // The attribute tenant of the same cache: clauses 4 and 5.
            let spells = |i: usize, words: &[&str]| {
                words.iter().enumerate().all(|(k, w)| {
                    toks.get(i + k)
                        .is_some_and(|t| t.is_ident(w) || t.is_punct(w))
                })
            };
            // Only a built event serves a `Stat`: a pattern that reads one
            // (a rest `..` before its `}`, or a `=>` after it) does not.
            let cached_serve = (start..end).find(|&i| {
                if !toks[i].is_ident("AttrServed") {
                    return false;
                }
                let Some(close) = (i..end).find(|&j| toks[j].is_punct("}")) else {
                    return false;
                };
                let pattern = toks[close - 1].is_punct("..")
                    || toks.get(close + 1).is_some_and(|t| t.is_punct("=>"));
                !pattern && (i..close).any(|j| spells(j, &["from_cache", ":", "true"]))
            });
            if let (Some(i), false) = (cached_serve, mentions("cache_usable")) {
                out.push(Violation {
                    file: f.rel.clone(),
                    line: toks[i].line,
                    col: toks[i].col,
                    lint: "L7".into(),
                    message: "`AttrServed { from_cache: true }` without consulting \
                              `cache_usable` in this function: a quiesced lane (phase \
                              3+) must not answer a `Stat` from cached attributes"
                        .into(),
                });
            }
            let store_at = (start..end)
                .find(|&i| spells(i, &["attr", "=", "Some"]) || spells(i, &["attr", ":", "Some"]));
            if let (Some(i), false) = (store_at, mentions("may_admit")) {
                out.push(Violation {
                    file: f.rel.clone(),
                    line: toks[i].line,
                    col: toks[i].col,
                    lint: "L7".into(),
                    message: "attributes stored into a `LockInfo` without consulting \
                              `may_admit` in this function: a reply that crossed a \
                              release or re-grant must not enter the attribute cache"
                        .into(),
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
    fn block_cache_escaping_its_home_fires() {
        let f = SourceFile::parse(
            "crates/server/src/node.rs",
            "fn peek(c: &BlockCache) { c.len(); }",
        );
        let v = check(&[f]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "L7");
    }

    #[test]
    fn ungated_fill_fires() {
        let f = SourceFile::parse(
            "crates/client/src/node.rs",
            "fn on_resp(&mut self) { self.cache.fill(ino, idx, data, tag); }",
        );
        assert_eq!(check(&[f]).len(), 1);
    }

    #[test]
    fn the_node_module_tree_is_held_to_the_gates_and_may_name_the_cache() {
        let f = SourceFile::parse(
            "crates/client/src/node/data.rs",
            "fn on_resp(&mut self, c: &BlockCache) { self.cache.fill(ino, idx, data, tag); }",
        );
        let v = check(&[f]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("may_admit"));
        let f = SourceFile::parse("crates/client/src/nodes.rs", "fn f(c: &BlockCache) {}");
        assert_eq!(
            check(&[f]).len(),
            1,
            "a sibling named like the tree is not in it"
        );
    }

    #[test]
    fn gated_fill_is_clean() {
        let f = SourceFile::parse(
            "crates/client/src/node.rs",
            "fn on_resp(&mut self) { if !self.may_admit(ino, epoch) { return; } \
             self.cache.fill(ino, idx, data, tag); }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn ungated_serve_fires() {
        let f = SourceFile::parse(
            "crates/client/src/node.rs",
            "fn serve(&mut self) { let b = self.cache.get(ino, idx); \
             self.emit(Event::ReadServed { ino, idx, tag, from_cache }, ctx); }",
        );
        assert_eq!(check(&[f]).len(), 1);
    }

    #[test]
    fn ungated_cached_attr_serve_fires() {
        let f = SourceFile::parse(
            "crates/client/src/node.rs",
            "fn stat(&mut self) { \
             self.emit(Event::AttrServed { ino, from_cache: true }, ctx); }",
        );
        let v = check(&[f]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("cache_usable"));
    }

    #[test]
    fn gated_cached_attr_serve_and_server_answers_are_clean() {
        let f = SourceFile::parse(
            "crates/client/src/node.rs",
            "fn stat(&mut self) { if !self.cache_usable(ino) { return; } \
             self.emit(Event::AttrServed { ino, from_cache: true }, ctx); }\n\
             fn from_server(&mut self) { \
             self.emit(Event::AttrServed { ino, from_cache: false }, ctx); }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn a_pattern_reading_a_cached_attr_serve_is_clean() {
        let f = SourceFile::parse(
            "crates/client/src/node.rs",
            "fn emit(&mut self, ev: Event) { match ev { \
             Event::AttrServed { from_cache: true, .. } => hits += 1, \
             Event::AttrServed { ino, from_cache: true } => seen(ino), _ => {} } }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn ungated_attr_store_fires_in_both_spellings() {
        for body in [
            "info.attr = Some(CachedAttr { version, is_dir });",
            "let info = LockInfo { attr: Some(a), mutations: 0 };",
        ] {
            let f = SourceFile::parse(
                "crates/client/src/node.rs",
                &format!("fn on_reply(&mut self) {{ {body} }}"),
            );
            let v = check(&[f]);
            assert_eq!(v.len(), 1, "{body}");
            assert!(v[0].message.contains("may_admit"));
        }
    }

    #[test]
    fn gated_attr_store_and_attr_drop_are_clean() {
        let f = SourceFile::parse(
            "crates/client/src/node.rs",
            "fn admit(&mut self) { if !self.may_admit(ino, epoch) { return; } \
             info.attr = Some(CachedAttr { version, is_dir }); }\n\
             fn on_own_mutation(&mut self) { info.attr = None; }\n\
             fn on_grant(&mut self) { let info = LockInfo { attr: None, mutations: 0 }; }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn gated_serve_and_non_serving_get_are_clean() {
        let f = SourceFile::parse(
            "crates/client/src/node.rs",
            "fn serve(&mut self) { if !self.cache_usable(ino) { return; } \
             let b = self.cache.get(ino, idx); \
             self.emit(Event::ReadServed { ino, idx, tag, from_cache }, ctx); }\n\
             fn gather(&mut self) { if self.cache.get(ino, idx).is_none() { fetch(); } }",
        );
        assert!(check(&[f]).is_empty());
    }
}
