//! Output checks for the `tankd` half: a shadow namespace model every
//! metadata reply is compared with, and an audit of every lock grant the
//! generator observes. A failed check fails the run (`correct: false`,
//! non-zero exit); `tests/` proves each one bites.

use std::collections::HashMap;

use tank_proto::message::{FileAttr, FsError, ReplyBody, ResponseOutcome};
use tank_proto::{Epoch, Ino, LockMode};

use crate::gen::{Binding, FileRef, MetaOp, PRIVATE_PER_SLOT, ROOT};

/// A file as the model knows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Known {
    /// Its inode.
    pub ino: Ino,
    /// Its attributes after the last mutation the model saw.
    pub attr: FileAttr,
}

/// The expected namespace. Shared files never change during a run;
/// private and scratch files change only through their own slot, whose
/// ops are strictly sequential — so every reply has exactly one right
/// answer.
#[derive(Debug, Clone)]
pub struct Shadow {
    shared: Vec<Known>,
    private: Vec<[Known; PRIVATE_PER_SLOT]>,
    scratch: Vec<Option<Ino>>,
}

impl Binding for Shadow {
    fn ino(&self, slot: usize, file: FileRef) -> Ino {
        match file {
            FileRef::Shared(i) => self.shared[i as usize].ino,
            FileRef::Private(j) => self.private[slot][j as usize].ino,
            FileRef::Scratch(_) => self.scratch[slot].unwrap_or(Ino(0)),
        }
    }
}

fn fresh_file(attr: &FileAttr) -> bool {
    attr.size == 0 && !attr.is_dir
}

impl Shadow {
    /// Model of the namespace set-up created: `shared[i]` and
    /// `private[slot][j]` as the server reported them.
    pub fn new(shared: Vec<Known>, private: Vec<[Known; PRIVATE_PER_SLOT]>) -> Shadow {
        let slots = private.len();
        Shadow {
            shared,
            private,
            scratch: vec![None; slots],
        }
    }

    fn known(&self, slot: usize, file: FileRef) -> Option<Known> {
        match file {
            FileRef::Shared(i) => self.shared.get(i as usize).copied(),
            FileRef::Private(j) => Some(self.private[slot][j as usize]),
            FileRef::Scratch(_) => None,
        }
    }

    /// Compare one op's reply with the model, then apply the op to it.
    pub fn check(
        &mut self,
        slot: usize,
        op: &MetaOp,
        reply: &Result<ReplyBody, FsError>,
    ) -> Result<(), String> {
        let bad = || Err(format!("slot {slot}: {op:?} answered {reply:?}"));
        let Ok(body) = reply else { return bad() };
        match (*op, body) {
            (MetaOp::GetAttr(f), ReplyBody::Attr { attr }) => match self.known(slot, f) {
                Some(k) if k.attr == *attr => Ok(()),
                _ => bad(),
            },
            (MetaOp::Lookup(FileRef::Scratch(_)), ReplyBody::Resolved { ino, attr }) => {
                if self.scratch[slot] == Some(*ino) && fresh_file(attr) {
                    Ok(())
                } else {
                    bad()
                }
            }
            (MetaOp::Lookup(f), ReplyBody::Resolved { ino, attr }) => match self.known(slot, f) {
                Some(k) if k.ino == *ino && k.attr == *attr => Ok(()),
                _ => bad(),
            },
            (MetaOp::KeepAlive, ReplyBody::Ok) => Ok(()),
            (MetaOp::SetAttr { file, size }, ReplyBody::Attr { attr }) => {
                let k = &mut self.private[slot][file as usize];
                // "Bumped on every mutation": newer, never older.
                let newer = attr.version > k.attr.version && attr.mtime >= k.attr.mtime;
                if attr.size == size && !attr.is_dir && newer {
                    k.attr = *attr;
                    Ok(())
                } else {
                    bad()
                }
            }
            (MetaOp::Create(_), ReplyBody::Created { ino }) => {
                if self.scratch[slot].is_none() && *ino != ROOT && ino.0 != 0 {
                    self.scratch[slot] = Some(*ino);
                    Ok(())
                } else {
                    bad()
                }
            }
            (MetaOp::Unlink(_), ReplyBody::Ok) => {
                if self.scratch[slot].take().is_some() {
                    Ok(())
                } else {
                    bad()
                }
            }
            _ => bad(),
        }
    }

    /// Check the response to one datagram carrying `ops` (a single op
    /// for `small`, a `Batch` otherwise). Any NACK is a failure.
    pub fn check_unit(
        &mut self,
        slot: usize,
        ops: &[MetaOp],
        outcome: &ResponseOutcome,
    ) -> Result<(), String> {
        match (ops, outcome) {
            ([op], ResponseOutcome::Acked(reply)) => self.check(slot, op, reply),
            (_, ResponseOutcome::Acked(Ok(ReplyBody::Batch(outcomes))))
                if outcomes.len() == ops.len() =>
            {
                ops.iter()
                    .zip(outcomes)
                    .try_for_each(|(op, reply)| self.check(slot, op, reply))
            }
            _ => Err(format!(
                "slot {slot}: {} ops answered {outcome:?}",
                ops.len()
            )),
        }
    }
}

#[derive(Debug, Default)]
struct Holders {
    exclusive: Option<usize>,
    shared: Vec<usize>,
}

/// Audit of the lock protocol as the generator observes it. A hold runs
/// from the moment a grant is *received* to the moment its release is
/// *sent* — a subset of the server's own view of the hold, so two
/// overlapping observed holds are overlapping real ones.
#[derive(Debug, Default)]
pub struct LockAudit {
    held: HashMap<Ino, Holders>,
    last_epoch: HashMap<Ino, Epoch>,
    open_demands: HashMap<(usize, u64), Ino>,
    /// Demands received (first delivery of each push).
    pub demands: u64,
    /// Demand pushes delivered again: the server timed out waiting.
    pub demand_retries: u64,
    violations: Vec<String>,
}

impl LockAudit {
    /// Empty audit.
    pub fn new() -> LockAudit {
        LockAudit::default()
    }

    /// `client` received a grant.
    pub fn on_grant(&mut self, client: usize, ino: Ino, mode: LockMode, epoch: Epoch) {
        if let Some(prev) = self.last_epoch.insert(ino, epoch) {
            if epoch <= prev {
                self.violations
                    .push(format!("{ino:?}: epoch {epoch:?} granted after {prev:?}"));
            }
        }
        let h = self.held.entry(ino).or_default();
        let others_share = h.shared.iter().any(|&c| c != client);
        let clash = match mode {
            LockMode::Exclusive => h.exclusive.is_some_and(|c| c != client) || others_share,
            LockMode::SharedRead => h.exclusive.is_some_and(|c| c != client),
        };
        if clash {
            self.violations.push(format!(
                "{ino:?}: {mode:?} granted to client {client} while held by {h:?}"
            ));
        }
        match mode {
            LockMode::Exclusive => h.exclusive = Some(client),
            LockMode::SharedRead => h.shared.push(client),
        }
    }

    /// `client` is about to send its release of `ino`.
    pub fn on_release(&mut self, client: usize, ino: Ino) {
        if let Some(h) = self.held.get_mut(&ino) {
            if h.exclusive == Some(client) {
                h.exclusive = None;
            }
            h.shared.retain(|&c| c != client);
        }
    }

    /// A `Demand` push reached `client`.
    pub fn on_demand(&mut self, client: usize, push_seq: u64, ino: Ino) {
        if self.open_demands.insert((client, push_seq), ino).is_some() {
            self.demand_retries += 1;
        } else {
            self.demands += 1;
        }
    }

    /// The generator answered that push (`PushAck` + `LockRelease` sent).
    pub fn on_demand_answered(&mut self, client: usize, push_seq: u64) {
        self.open_demands.remove(&(client, push_seq));
    }

    /// Every violation found, including demands never answered and pushes
    /// the server had to retry.
    pub fn finish(mut self) -> Vec<String> {
        for ((client, push_seq), ino) in &self.open_demands {
            self.violations.push(format!(
                "demand {push_seq} for {ino:?} to client {client} never answered"
            ));
        }
        if self.demand_retries > 0 {
            self.violations.push(format!(
                "{} demand pushes had to be retried by the server",
                self.demand_retries
            ));
        }
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(size: u64, version: u64) -> FileAttr {
        FileAttr {
            size,
            mtime: 100,
            version,
            is_dir: false,
        }
    }

    fn shadow() -> Shadow {
        let k = |i: u64| Known {
            ino: Ino(i),
            attr: attr(0, 2),
        };
        Shadow::new(vec![k(10), k(11)], vec![[k(20), k(21)]])
    }

    #[test]
    fn correct_replies_pass_and_update_the_model() {
        let mut s = shadow();
        let get = MetaOp::GetAttr(FileRef::Shared(1));
        assert!(s
            .check(0, &get, &Ok(ReplyBody::Attr { attr: attr(0, 2) }))
            .is_ok());
        let set = MetaOp::SetAttr { file: 0, size: 77 };
        let after = FileAttr {
            mtime: 150,
            ..attr(77, 3)
        };
        assert!(s
            .check(0, &set, &Ok(ReplyBody::Attr { attr: after }))
            .is_ok());
        // The private file now reads back as the SetAttr left it.
        let reread = MetaOp::GetAttr(FileRef::Private(0));
        assert!(s
            .check(0, &reread, &Ok(ReplyBody::Attr { attr: after }))
            .is_ok());
        assert!(s
            .check(0, &reread, &Ok(ReplyBody::Attr { attr: attr(0, 2) }))
            .is_err());
        // Create → resolvable → Unlink.
        assert!(s
            .check(
                0,
                &MetaOp::Create(0),
                &Ok(ReplyBody::Created { ino: Ino(30) })
            )
            .is_ok());
        let look = MetaOp::Lookup(FileRef::Scratch(0));
        let resolved = |ino| {
            Ok(ReplyBody::Resolved {
                ino: Ino(ino),
                attr: attr(0, 2),
            })
        };
        assert!(s.check(0, &look, &resolved(30)).is_ok());
        assert!(s.check(0, &look, &resolved(31)).is_err());
        assert!(s.check(0, &MetaOp::Unlink(0), &Ok(ReplyBody::Ok)).is_ok());
        assert!(s.check(0, &MetaOp::Unlink(0), &Ok(ReplyBody::Ok)).is_err());
    }

    #[test]
    fn corrupted_or_failed_replies_are_caught() {
        let mut s = shadow();
        let get = MetaOp::GetAttr(FileRef::Shared(0));
        let wrong_size = Ok(ReplyBody::Attr { attr: attr(1, 2) });
        assert!(s.check(0, &get, &wrong_size).is_err());
        assert!(s.check(0, &get, &Err(FsError::NotFound)).is_err());
        assert!(s.check(0, &get, &Ok(ReplyBody::Ok)).is_err());
        let look = MetaOp::Lookup(FileRef::Shared(0));
        let wrong_ino = Ok(ReplyBody::Resolved {
            ino: Ino(11),
            attr: attr(0, 2),
        });
        assert!(s.check(0, &look, &wrong_ino).is_err());
        // A SetAttr whose reply does not move the version forward.
        let set = MetaOp::SetAttr { file: 1, size: 5 };
        assert!(s
            .check(0, &set, &Ok(ReplyBody::Attr { attr: attr(5, 2) }))
            .is_err());
    }

    #[test]
    fn units_reject_nacks_and_short_batches() {
        use tank_proto::NackReason;
        let mut s = shadow();
        let ops = [MetaOp::KeepAlive, MetaOp::KeepAlive];
        let full = ResponseOutcome::Acked(Ok(ReplyBody::Batch(vec![
            Ok(ReplyBody::Ok),
            Ok(ReplyBody::Ok),
        ])));
        assert!(s.check_unit(0, &ops, &full).is_ok());
        let short = ResponseOutcome::Acked(Ok(ReplyBody::Batch(vec![Ok(ReplyBody::Ok)])));
        assert!(s.check_unit(0, &ops, &short).is_err());
        let nack = ResponseOutcome::Nacked(NackReason::LeaseTimingOut);
        assert!(s.check_unit(0, &ops[..1], &nack).is_err());
        assert!(s
            .check_unit(0, &ops[..1], &ResponseOutcome::Acked(Ok(ReplyBody::Ok)))
            .is_ok());
    }

    #[test]
    fn lock_audit_accepts_a_clean_handoff() {
        let mut a = LockAudit::new();
        let ino = Ino(5);
        a.on_grant(0, ino, LockMode::Exclusive, Epoch(1));
        a.on_demand(0, 9, ino);
        a.on_release(0, ino);
        a.on_demand_answered(0, 9);
        a.on_grant(1, ino, LockMode::Exclusive, Epoch(2));
        a.on_release(1, ino);
        a.on_grant(0, ino, LockMode::SharedRead, Epoch(3));
        a.on_grant(1, ino, LockMode::SharedRead, Epoch(4));
        assert_eq!(a.demands, 1);
        assert_eq!(a.finish(), Vec::<String>::new());
    }

    #[test]
    fn lock_audit_catches_overlap_epoch_regress_and_ignored_demands() {
        let ino = Ino(5);
        let mut a = LockAudit::new();
        a.on_grant(0, ino, LockMode::Exclusive, Epoch(1));
        a.on_grant(1, ino, LockMode::Exclusive, Epoch(2));
        assert_eq!(a.finish().len(), 1);

        let mut a = LockAudit::new();
        a.on_grant(0, ino, LockMode::SharedRead, Epoch(1));
        a.on_grant(1, ino, LockMode::Exclusive, Epoch(2));
        assert_eq!(a.finish().len(), 1);

        let mut a = LockAudit::new();
        a.on_grant(0, ino, LockMode::Exclusive, Epoch(4));
        a.on_release(0, ino);
        a.on_grant(1, ino, LockMode::Exclusive, Epoch(4));
        assert_eq!(a.finish().len(), 1);

        let mut a = LockAudit::new();
        a.on_demand(0, 9, ino);
        a.on_demand(0, 9, ino);
        // One unanswered demand + one retried push.
        assert_eq!(a.finish().len(), 2);
    }
}
