//! Data-lock manager: shared/exclusive locks on inodes.
//!
//! Storage Tank locks are *logical* — they protect distributed data
//! structures (files), not disk address ranges (§5's contrast with GFS
//! dlocks). The manager keeps, per inode, the current holders, a FIFO
//! waiter queue, and a monotonically increasing grant [`Epoch`] that stamps
//! every grant; epochs give the offline checker a total order over
//! conflicting ownership.
//!
//! The manager is pure state: it never sends messages. The server node
//! interprets its outcomes (grant now / wait and demand / already held)
//! and its returned grant lists when releases or steals unblock waiters.

use std::collections::{BTreeMap, VecDeque};

use tank_proto::{Epoch, Ino, LockMode, NodeId, ReqSeq, SessionId};

/// A granted lock as reported to the server node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The client now holding the lock.
    pub client: NodeId,
    /// The inode.
    pub ino: Ino,
    /// Granted mode.
    pub mode: LockMode,
    /// Epoch stamped on this grant.
    pub epoch: Epoch,
    /// The request (session, seq) this grant answers, if it was queued;
    /// `None` for immediate grants (the caller already has the request in
    /// hand).
    pub answers: Option<(SessionId, ReqSeq)>,
}

/// Outcome of a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockRequestOutcome {
    /// Granted immediately (possibly an upgrade); reply now.
    Granted(Grant),
    /// The client already holds a covering lock; reply with the existing
    /// grant's epoch.
    AlreadyHeld(Epoch, LockMode),
    /// Conflicts with current holders: the request is queued and the
    /// server must demand the lock from `demand_from`.
    Queued {
        /// Holders that must release/downgrade before this request can be
        /// granted.
        demand_from: Vec<NodeId>,
    },
}

/// One holder's grant.
#[derive(Debug, Clone, Copy)]
struct Holding {
    mode: LockMode,
    epoch: Epoch,
}

/// A queued waiter.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    client: NodeId,
    mode: LockMode,
    session: SessionId,
    seq: ReqSeq,
}

/// Per-inode lock state. BTreeMaps keep iteration deterministic — demand
/// ordering and steal ordering must not depend on a process-random hash
/// seed, or runs stop being reproducible across processes.
#[derive(Debug, Clone, Default)]
struct LockState {
    holders: BTreeMap<NodeId, Holding>,
    waiters: VecDeque<Waiter>,
}

impl LockState {
    fn conflicts_with(&self, client: NodeId, mode: LockMode) -> Vec<NodeId> {
        self.holders
            .iter()
            .filter(|(holder, h)| **holder != client && !h.mode.compatible(mode))
            .map(|(holder, _)| *holder)
            .collect()
    }
}

/// Epochs one logged reservation runs ahead: a grant whose epoch passes
/// the reservation moves it this far past that epoch, so the log carries
/// one `EpochWatermark` per 2¹⁶ grants rather than one per grant.
pub const EPOCH_BLOCK: u64 = 1 << 16;

/// The lock manager.
#[derive(Debug, Clone, Default)]
pub struct LockManager {
    locks: BTreeMap<Ino, LockState>,
    /// Global epoch counter; per-grant epochs are unique across inodes,
    /// which simplifies the checker (per-ino ordering is inherited).
    epoch_counter: u64,
    /// The epoch reservation: no grant is answered with an epoch above
    /// it, and the server logs it before answering the grant that moved
    /// it ([`reserve`](Self::reserve)).
    reserved: u64,
}

impl LockManager {
    /// Empty manager.
    pub fn new() -> Self {
        LockManager::default()
    }

    fn next_epoch(&mut self) -> Epoch {
        self.epoch_counter += 1;
        Epoch(self.epoch_counter)
    }

    /// The epoch reservation: at or above every epoch a grant has been
    /// answered with. The server logs it whenever it moves and snapshots
    /// carry it, so recovery restores a floor no granted epoch is above.
    pub fn epoch_watermark(&self) -> u64 {
        self.reserved
    }

    /// Cover a grant's epoch: when `epoch` is past the reservation, move
    /// the reservation [`EPOCH_BLOCK`] beyond it and return it — the
    /// record the grant's answer must wait behind; `None` when the
    /// reservation already covers `epoch`.
    pub fn reserve(&mut self, epoch: Epoch) -> Option<u64> {
        if epoch.0 <= self.reserved {
            return None;
        }
        self.reserved = epoch.0.saturating_add(EPOCH_BLOCK);
        Some(self.reserved)
    }

    /// Restore the epoch counter after recovery so grants issued by the
    /// next incarnation stay newer than every pre-crash grant (fencing
    /// order preserved across the crash), and re-arm the reservation at
    /// that floor: a snapshot taken before the next grant still carries
    /// it, and that grant reserves anew. Monotone: never moves either
    /// backwards.
    pub fn restore_epoch(&mut self, n: u64) {
        self.epoch_counter = self.epoch_counter.max(n);
        self.reserved = self.reserved.max(self.epoch_counter);
    }

    /// Handle a lock request from `client` for `ino` in `mode`.
    pub fn request(
        &mut self,
        client: NodeId,
        ino: Ino,
        mode: LockMode,
        session: SessionId,
        seq: ReqSeq,
    ) -> LockRequestOutcome {
        let epoch = self.next_epoch(); // may go unused; cheap
        let st = self.locks.entry(ino).or_default();
        if let Some(h) = st.holders.get(&client) {
            if h.mode.covers(mode) {
                return LockRequestOutcome::AlreadyHeld(h.epoch, h.mode);
            }
        }
        if st.waiters.iter().any(|w| w.client == client) {
            // Already queued (a retried request under a fresh seq); do not
            // double-queue.
            return LockRequestOutcome::Queued {
                demand_from: Vec::new(),
            };
        }
        let conflicts = st.conflicts_with(client, mode);
        if conflicts.is_empty() && st.waiters.is_empty() {
            st.holders.insert(client, Holding { mode, epoch });
            LockRequestOutcome::Granted(Grant {
                client,
                ino,
                mode,
                epoch,
                answers: None,
            })
        } else {
            // FIFO fairness: even a compatible request queues behind
            // existing waiters so writers cannot starve.
            let demand_from = if st.waiters.is_empty() {
                conflicts
            } else {
                Vec::new()
            };
            st.waiters.push_back(Waiter {
                client,
                mode,
                session,
                seq,
            });
            LockRequestOutcome::Queued { demand_from }
        }
    }

    /// Release `client`'s lock on `ino`. With `epoch = Some(e)` the
    /// release applies only if the current holding is exactly that grant —
    /// a stale or blind release that raced a newer grant is a no-op.
    /// Returns grants for any waiters that can now proceed.
    pub fn release(&mut self, client: NodeId, ino: Ino, epoch: Option<Epoch>) -> Vec<Grant> {
        let Some(st) = self.locks.get_mut(&ino) else {
            return Vec::new();
        };
        if let Some(e) = epoch {
            match st.holders.get(&client) {
                Some(h) if h.epoch == e => {}
                _ => return Vec::new(), // stale release: ignore
            }
        }
        st.holders.remove(&client);
        // Also drop any queued waiter entries from this client: a client
        // that releases (e.g. after lease expiry) abandons its waits too.
        st.waiters.retain(|w| w.client != client);
        self.promote(ino)
    }

    /// Remove every holding and waiter of `client` (lock stealing / new
    /// session). Returns `(stolen, grants)`: the (ino, epoch) pairs that
    /// were stolen and the grants unblocked by the theft.
    pub fn steal_all(&mut self, client: NodeId) -> (Vec<(Ino, Epoch)>, Vec<Grant>) {
        let mut stolen = Vec::new();
        let inos: Vec<Ino> = self.locks.keys().copied().collect();
        let mut grants = Vec::new();
        for ino in inos {
            let st = self.locks.get_mut(&ino).unwrap();
            if let Some(h) = st.holders.remove(&client) {
                stolen.push((ino, h.epoch));
            }
            st.waiters.retain(|w| w.client != client);
            grants.extend(self.promote(ino));
        }
        (stolen, grants)
    }

    /// Grant queued waiters that no longer conflict, in FIFO order,
    /// stopping at the first that still conflicts.
    fn promote(&mut self, ino: Ino) -> Vec<Grant> {
        let mut out = Vec::new();
        #[allow(clippy::while_let_loop)]
        loop {
            let Some(st) = self.locks.get_mut(&ino) else {
                break;
            };
            let Some(w) = st.waiters.front().copied() else {
                break;
            };
            if !st.conflicts_with(w.client, w.mode).is_empty() {
                break;
            }
            st.waiters.pop_front();
            // An upgrade waiter replaces its own previous holding.
            self.epoch_counter += 1;
            let epoch = Epoch(self.epoch_counter);
            let st = self.locks.get_mut(&ino).unwrap();
            st.holders.insert(
                w.client,
                Holding {
                    mode: w.mode,
                    epoch,
                },
            );
            out.push(Grant {
                client: w.client,
                ino,
                mode: w.mode,
                epoch,
                answers: Some((w.session, w.seq)),
            });
        }
        out
    }

    /// Demands the server must (re-)issue for `ino`: the holders blocking
    /// the head waiter, with the mode the waiter needs. After a promotion
    /// hands the lock to a new holder, the next waiter's demand targets
    /// that new holder — without this the queue wedges behind holders who
    /// were never asked to release.
    pub fn pending_demands(&self, ino: Ino) -> Vec<(NodeId, LockMode)> {
        let Some(st) = self.locks.get(&ino) else {
            return Vec::new();
        };
        let Some(w) = st.waiters.front() else {
            return Vec::new();
        };
        st.conflicts_with(w.client, w.mode)
            .into_iter()
            .map(|h| (h, w.mode))
            .collect()
    }

    /// Whether `client` holds a lock on `ino` in a mode covering `want`.
    pub fn holds(&self, client: NodeId, ino: Ino, want: LockMode) -> bool {
        self.locks
            .get(&ino)
            .and_then(|st| st.holders.get(&client))
            .is_some_and(|h| h.mode.covers(want))
    }

    /// The epoch of `client`'s current holding on `ino`.
    pub fn holding_epoch(&self, client: NodeId, ino: Ino) -> Option<Epoch> {
        self.locks
            .get(&ino)
            .and_then(|st| st.holders.get(&client))
            .map(|h| h.epoch)
    }

    /// Whether a client other than `client` holds a lock on `ino`.
    pub fn held_by_other(&self, client: NodeId, ino: Ino) -> bool {
        self.locks
            .get(&ino)
            .is_some_and(|st| st.holders.keys().any(|h| *h != client))
    }

    /// Whether any client holds or awaits a lock on `ino`.
    pub fn is_contended(&self, ino: Ino) -> bool {
        self.locks
            .get(&ino)
            .map(|st| !st.holders.is_empty() || !st.waiters.is_empty())
            .unwrap_or(false)
    }

    /// Number of queued waiters across all inodes.
    pub fn waiting(&self) -> usize {
        self.locks.values().map(|st| st.waiters.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: NodeId = NodeId(10);
    const B: NodeId = NodeId(11);
    const C: NodeId = NodeId(12);
    const F: Ino = Ino(1);
    const SESS: SessionId = SessionId(1);

    fn req(m: &mut LockManager, c: NodeId, mode: LockMode, seq: u64) -> LockRequestOutcome {
        m.request(c, F, mode, SESS, ReqSeq(seq))
    }

    #[test]
    fn exclusive_grant_and_already_held() {
        let mut m = LockManager::new();
        let out = req(&mut m, A, LockMode::Exclusive, 1);
        let LockRequestOutcome::Granted(g) = out else {
            panic!("{out:?}")
        };
        assert_eq!(g.client, A);
        assert!(m.holds(A, F, LockMode::Exclusive));
        // Re-request (covered) returns the same epoch.
        match req(&mut m, A, LockMode::SharedRead, 2) {
            LockRequestOutcome::AlreadyHeld(e, mode) => {
                assert_eq!(e, g.epoch);
                assert_eq!(mode, LockMode::Exclusive);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shared_locks_coexist() {
        let mut m = LockManager::new();
        assert!(matches!(
            req(&mut m, A, LockMode::SharedRead, 1),
            LockRequestOutcome::Granted(_)
        ));
        assert!(matches!(
            req(&mut m, B, LockMode::SharedRead, 1),
            LockRequestOutcome::Granted(_)
        ));
        assert!(m.holds(A, F, LockMode::SharedRead));
        assert!(m.holds(B, F, LockMode::SharedRead));
    }

    #[test]
    fn conflicting_request_queues_and_names_the_holders() {
        let mut m = LockManager::new();
        req(&mut m, A, LockMode::Exclusive, 1);
        match req(&mut m, B, LockMode::Exclusive, 1) {
            LockRequestOutcome::Queued { demand_from } => assert_eq!(demand_from, vec![A]),
            other => panic!("{other:?}"),
        }
        assert_eq!(m.waiting(), 1);
    }

    #[test]
    fn release_promotes_fifo_waiter_with_fresh_epoch() {
        let mut m = LockManager::new();
        let LockRequestOutcome::Granted(ga) = req(&mut m, A, LockMode::Exclusive, 1) else {
            panic!()
        };
        req(&mut m, B, LockMode::Exclusive, 7);
        let grants = m.release(A, F, None);
        assert_eq!(grants.len(), 1);
        let gb = grants[0];
        assert_eq!(gb.client, B);
        assert!(gb.epoch > ga.epoch, "epochs are monotone");
        assert_eq!(gb.answers, Some((SESS, ReqSeq(7))));
        assert!(m.holds(B, F, LockMode::Exclusive));
    }

    #[test]
    fn multiple_compatible_waiters_promote_together() {
        let mut m = LockManager::new();
        req(&mut m, A, LockMode::Exclusive, 1);
        req(&mut m, B, LockMode::SharedRead, 1);
        req(&mut m, C, LockMode::SharedRead, 1);
        let grants = m.release(A, F, None);
        assert_eq!(grants.len(), 2, "both shared waiters granted");
        assert!(m.holds(B, F, LockMode::SharedRead));
        assert!(m.holds(C, F, LockMode::SharedRead));
    }

    #[test]
    fn fifo_prevents_reader_starving_writer() {
        let mut m = LockManager::new();
        req(&mut m, A, LockMode::SharedRead, 1);
        req(&mut m, B, LockMode::Exclusive, 1); // queued
                                                // A later shared request must queue behind the exclusive waiter,
                                                // not sneak in beside A.
        match req(&mut m, C, LockMode::SharedRead, 1) {
            LockRequestOutcome::Queued { demand_from } => {
                assert!(
                    demand_from.is_empty(),
                    "demand already outstanding for head waiter"
                );
            }
            other => panic!("{other:?}"),
        }
        let grants = m.release(A, F, None);
        assert_eq!(grants[0].client, B, "writer first");
        assert_eq!(grants.len(), 1, "reader still behind writer");
        let grants = m.release(B, F, None);
        assert_eq!(grants[0].client, C);
    }

    #[test]
    fn upgrade_when_sole_holder_waits_for_nobody() {
        let mut m = LockManager::new();
        req(&mut m, A, LockMode::SharedRead, 1);
        // Upgrade request conflicts with nothing (only holder is A itself).
        match req(&mut m, A, LockMode::Exclusive, 2) {
            LockRequestOutcome::Granted(g) => assert_eq!(g.mode, LockMode::Exclusive),
            other => panic!("{other:?}"),
        }
        assert!(m.holds(A, F, LockMode::Exclusive));
    }

    #[test]
    fn upgrade_with_other_readers_queues_and_demands_them() {
        let mut m = LockManager::new();
        req(&mut m, A, LockMode::SharedRead, 1);
        req(&mut m, B, LockMode::SharedRead, 1);
        match req(&mut m, A, LockMode::Exclusive, 2) {
            LockRequestOutcome::Queued { demand_from } => assert_eq!(demand_from, vec![B]),
            other => panic!("{other:?}"),
        }
        let grants = m.release(B, F, None);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].client, A);
        assert_eq!(grants[0].mode, LockMode::Exclusive);
    }

    #[test]
    fn steal_all_returns_holdings_and_unblocks_waiters() {
        let mut m = LockManager::new();
        req(&mut m, A, LockMode::Exclusive, 1);
        m.request(A, Ino(2), LockMode::SharedRead, SESS, ReqSeq(2));
        req(&mut m, B, LockMode::Exclusive, 5);
        let (stolen, grants) = m.steal_all(A);
        assert_eq!(stolen.len(), 2);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].client, B);
        assert_eq!(m.holding_epoch(A, F), None);
    }

    #[test]
    fn release_drops_own_queued_waits() {
        let mut m = LockManager::new();
        req(&mut m, A, LockMode::Exclusive, 1);
        req(&mut m, B, LockMode::Exclusive, 2);
        req(&mut m, C, LockMode::Exclusive, 3);
        // B abandons before being granted.
        let grants = m.release(B, F, None);
        assert!(grants.is_empty(), "A still holds");
        let grants = m.release(A, F, None);
        assert_eq!(grants[0].client, C, "C skipped past the abandoned B");
    }

    #[test]
    fn pending_demands_name_every_holder_blocking_the_head_waiter() {
        let mut m = LockManager::new();
        req(&mut m, A, LockMode::SharedRead, 1);
        req(&mut m, B, LockMode::SharedRead, 1);
        req(&mut m, C, LockMode::Exclusive, 1);
        let x = LockMode::Exclusive;
        assert_eq!(m.pending_demands(F), vec![(A, x), (B, x)]);
    }

    #[test]
    fn pending_demands_follow_the_new_holder() {
        let mut m = LockManager::new();
        req(&mut m, A, LockMode::Exclusive, 1);
        req(&mut m, B, LockMode::Exclusive, 2);
        req(&mut m, C, LockMode::Exclusive, 3);
        assert_eq!(m.pending_demands(F), vec![(A, LockMode::Exclusive)]);
        m.release(A, F, None); // B promoted; C still waits — now on B
        assert_eq!(m.pending_demands(F), vec![(B, LockMode::Exclusive)]);
        m.release(B, F, None);
        assert!(m.pending_demands(F).is_empty());
    }

    #[test]
    fn epochs_are_globally_unique_and_increasing() {
        let mut m = LockManager::new();
        let LockRequestOutcome::Granted(g1) =
            m.request(A, Ino(1), LockMode::Exclusive, SESS, ReqSeq(1))
        else {
            panic!()
        };
        let LockRequestOutcome::Granted(g2) =
            m.request(A, Ino(2), LockMode::Exclusive, SESS, ReqSeq(2))
        else {
            panic!()
        };
        assert!(g2.epoch > g1.epoch);
    }
}
