//! L6 `fsync-before-ack`: the server never acknowledges state it has not
//! made durable.
//!
//! DESIGN.md §9's recovery argument rests on one invariant: every
//! response the server sends describes state that is already on stable
//! storage — a client that hears an ACK and then watches the server
//! crash must find the acknowledged mutation again after recovery. The
//! code expresses this as a funnel: mutations `wal_append`, the send
//! path `wal_fsync`s (directly or via `wal_sync_and_ship`), and only
//! then does a `CtlMsg::Response` go out.
//!
//! The lint enforces the funnel shape per function in the server crate:
//! walking each body in order, a `wal_append` marks the state dirty, a
//! `wal_fsync`/`wal_sync_and_ship` marks it durable, and constructing a
//! `CtlMsg::Response` while not durable is a violation. A response send
//! with no sync anywhere before it in the same function is also flagged
//! — the server has one function that builds a `CtlMsg::Response`
//! (`ServerNode::send_response`), and the two replay paths (hello replay,
//! dedup-window replay) that resend *cached*, already-synced responses
//! go out through it like any fresh answer.

use crate::report::Violation;
use crate::source::SourceFile;

use super::scan;

const SYNCS: &[&str] = &["wal_fsync", "wal_sync_and_ship"];

pub fn check(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        if f.crate_name() != Some("server") {
            continue;
        }
        let toks = &f.tokens;
        for (start, end) in scan::fn_bodies(toks) {
            let mut synced = false;
            let mut appended = false;
            for i in start..end {
                let t = &toks[i];
                if SYNCS.iter().any(|s| t.is_ident(s)) {
                    synced = true;
                    appended = false;
                } else if t.is_ident("wal_append") {
                    appended = true;
                } else if scan::is_path(toks, i, "CtlMsg", "Response") && (!synced || appended) {
                    out.push(Violation {
                        file: f.rel.clone(),
                        line: t.line,
                        col: t.col,
                        lint: "L6".into(),
                        message: if appended {
                            "`CtlMsg::Response` built after a `wal_append` with no \
                             intervening fsync: the ACK would describe state the WAL has \
                             not made durable — call wal_fsync/wal_sync_and_ship first"
                        } else {
                            "`CtlMsg::Response` built with no wal_fsync/wal_sync_and_ship \
                             earlier in this function: if this resends a cached (already \
                             durable) response, say so with an inline allow"
                        }
                        .into(),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_on_ack_before_any_sync() {
        let f = SourceFile::parse(
            "crates/server/src/node.rs",
            "fn respond(&mut self) { ctx.send(NetId::CONTROL, c, NetMsg::Ctl(CtlMsg::Response(r))); }",
        );
        let v = check(&[f]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "L6");
    }

    #[test]
    fn fires_on_append_after_the_sync() {
        let f = SourceFile::parse(
            "crates/server/src/node.rs",
            "fn respond(&mut self) { self.wal_fsync(ctx); self.wal_append(&rec); \
             ctx.send(NetId::CONTROL, c, NetMsg::Ctl(CtlMsg::Response(r))); }",
        );
        assert_eq!(check(&[f]).len(), 1);
    }

    #[test]
    fn sync_then_ack_is_the_blessed_shape() {
        let f = SourceFile::parse(
            "crates/server/src/node.rs",
            "fn respond(&mut self) { self.wal_append(&rec); self.wal_sync_and_ship(ctx); \
             ctx.send(NetId::CONTROL, c, NetMsg::Ctl(CtlMsg::Response(r))); }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn other_crates_are_out_of_scope() {
        let f = SourceFile::parse(
            "crates/client/src/node.rs",
            "fn relay(&mut self) { ctx.send(NetId::CONTROL, c, NetMsg::Ctl(CtlMsg::Response(r))); }",
        );
        assert!(check(&[f]).is_empty());
    }
}
