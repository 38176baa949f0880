//! The lock service: the lock table plus the delivery-error ladder.
//!
//! The paper's server does no lease work "until a message delivery error
//! occurs", so the code that *declares* one — lock conflict → `Demand` push
//! → retries → `PushAck` → release wait → delivery error — is what the
//! safety argument hangs on. It lives here once; the simulator's
//! [`ServerNode`](crate::ServerNode) and `tank-net`'s reactor both drive it.
//!
//! **Contract.** A [`LockService`] performs no I/O and reads no clock.
//! Each verb queues the [`LockEffect`]s its driver must carry out, *in
//! order*, and the driver drains them with [`LockService::next_effect`];
//! nothing here builds a response, so every answer still passes through
//! the driver's own commit point. Timers
//! are never cancelled: push seqs are never reused, so a [`LadderTimer`]
//! that outlives its push (acked, released, dropped with its client) finds
//! nothing to do when the driver hands it back on firing.

use std::collections::{HashMap, VecDeque};

use tank_proto::{Epoch, Ino, LockMode, NodeId, PushBody, ReqSeq, ServerPush, SessionId};
use tank_sim::LocalNs;

use crate::events::ServerEvent;
use crate::lock::{Grant, LockManager, LockRequestOutcome};
use crate::session::SessionTable;

/// How long a demand may go unanswered before its holder is declared
/// unreachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandLadder {
    /// Interval between sends of an unacknowledged push.
    pub retry_interval: LocalNs,
    /// Re-sends after the first; when the last goes unanswered for one
    /// more interval, that is a delivery error.
    pub retries: u32,
    /// After a client `PushAck`s a demand, how long the server waits for
    /// the actual release before declaring a delivery error anyway (the
    /// client may be flushing a large cache; it must not take forever).
    pub release_timeout: LocalNs,
}

impl Default for DemandLadder {
    fn default() -> Self {
        DemandLadder {
            retry_interval: LocalNs::from_millis(200),
            retries: 3,
            release_timeout: LocalNs::from_secs(2),
        }
    }
}

/// A ladder timer, named by the push it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderTimer {
    /// Re-send an unacknowledged push, or give up on it.
    PushRetry(u64),
    /// A demand was `PushAck`ed; the release is due.
    ReleaseWait(u64),
}

/// One thing a driver must do on the lock service's behalf.
#[derive(Debug, Clone, PartialEq)]
pub enum LockEffect {
    /// After this long on the server's clock, hand the timer back to
    /// [`LockService::timer_fired`].
    Arm(LocalNs, LadderTimer),
    /// Send `push`; `retry` is false for a demand's first transmission.
    Push { push: ServerPush, retry: bool },
    /// This grant now exists; answer `answers` (always set).
    Granted(Grant),
    /// The requester already held a covering grant: answer `answers` with
    /// it. No new grant exists.
    Held(Grant),
    /// `LockReleased`, `LockStolen` or `RequestBlocked` happened.
    Event(ServerEvent),
}

/// An outstanding demand.
#[derive(Debug, Clone, Copy)]
struct PendingPush {
    dst: NodeId,
    session: SessionId,
    ino: Ino,
    mode_needed: LockMode,
    /// The holding being demanded.
    epoch: Epoch,
    retries_left: u32,
    acked: bool,
}

/// The lock table and every demand outstanding against its holders.
#[derive(Debug, Default)]
pub struct LockService {
    ladder: DemandLadder,
    table: LockManager,
    pushes: HashMap<u64, PendingPush>,
    next_push_seq: u64,
    /// Grants awaiting delivery, and the inodes the current pass touched.
    /// Kept here so the hot request loop reuses their capacity.
    queue: VecDeque<Grant>,
    touched: Vec<Ino>,
    /// Decided, not yet handed to the driver.
    out: VecDeque<LockEffect>,
}

impl LockService {
    /// Empty service.
    pub fn new(ladder: DemandLadder) -> Self {
        LockService {
            ladder,
            ..LockService::default()
        }
    }

    /// The lock table, for reads (`holds`, `is_contended`, harvest).
    pub fn table(&self) -> &LockManager {
        &self.table
    }

    /// What the driver must do next; `None` once it has caught up.
    pub fn next_effect(&mut self) -> Option<LockEffect> {
        self.out.pop_front()
    }

    /// Fail-stop recovery: holders, waiters and demands are volatile and
    /// gone; grants resume above `epoch_floor`.
    pub fn reset(&mut self, epoch_floor: u64) {
        self.table = LockManager::new();
        self.table.restore_epoch(epoch_floor);
        self.pushes.clear();
    }

    /// `LockAcquire` from `client`, to be answered at `answers`.
    pub fn acquire(
        &mut self,
        client: NodeId,
        ino: Ino,
        mode: LockMode,
        answers: (SessionId, ReqSeq),
        sessions: &SessionTable,
    ) {
        let (session, seq) = answers;
        let answers = Some(answers);
        match self.table.request(client, ino, mode, session, seq) {
            LockRequestOutcome::Granted(g) => self
                .out
                .push_back(LockEffect::Granted(Grant { answers, ..g })),
            LockRequestOutcome::AlreadyHeld(epoch, mode) => {
                let held = Grant {
                    client,
                    ino,
                    mode,
                    epoch,
                    answers,
                };
                self.out.push_back(LockEffect::Held(held));
            }
            LockRequestOutcome::Queued { demand_from } => {
                // No reply yet: the grant answers the request later.
                let blocked = ServerEvent::RequestBlocked { client, ino, seq };
                self.out.push_back(LockEffect::Event(blocked));
                for holder in demand_from {
                    self.start_demand(holder, ino, mode, sessions);
                }
                self.deliver(sessions);
            }
        }
    }

    /// `LockRelease { ino, epoch }` from `client`. A stale-epoch release is
    /// ignored by the lock table, so it must not cancel the demand for the
    /// grant still held.
    pub fn release(&mut self, client: NodeId, ino: Ino, epoch: Epoch, sessions: &SessionTable) {
        let held = self.table.holding_epoch(client, ino);
        self.queue
            .extend(self.table.release(client, ino, Some(epoch)));
        if held == Some(epoch) {
            let released = ServerEvent::LockReleased { client, ino, epoch };
            self.out.push_back(LockEffect::Event(released));
            // The demand (if any) is satisfied.
            self.pushes.retain(|_, p| p.dst != client || p.ino != ino);
        }
        self.deliver(sessions);
    }

    /// `PushAck { push_seq }` from `from`: the client is flushing; give it
    /// bounded time to release. Push seqs are small consecutive integers,
    /// so an ack counts only from the client the push went to — anyone
    /// else's would trade the holder's retry ladder for the much longer
    /// release wait.
    pub fn push_ack(&mut self, from: NodeId, push_seq: u64) {
        let Some(p) = self.pushes.get_mut(&push_seq) else {
            return;
        };
        if p.dst == from && !p.acked {
            p.acked = true;
            let timer = LadderTimer::ReleaseWait(push_seq);
            self.out
                .push_back(LockEffect::Arm(self.ladder.release_timeout, timer));
        }
    }

    /// A ladder timer fired. Returns the client a delivery error is now
    /// declared against, if any; every push to it has been dropped.
    #[must_use]
    pub fn timer_fired(&mut self, timer: LadderTimer) -> Option<NodeId> {
        let unreachable = match timer {
            LadderTimer::PushRetry(push_seq) => {
                let p = self.pushes.get_mut(&push_seq)?;
                if p.acked {
                    return None;
                }
                if p.retries_left > 0 {
                    p.retries_left -= 1;
                    self.send_push(push_seq, true);
                    return None;
                }
                p.dst
            }
            LadderTimer::ReleaseWait(push_seq) => {
                // PushAcked but never released — unless the demanded grant
                // is already gone (a voluntary release crossed the demand),
                // which satisfies it without a release naming this push.
                let p = self.pushes.remove(&push_seq)?;
                if self.table.holding_epoch(p.dst, p.ino) != Some(p.epoch) {
                    return None;
                }
                p.dst
            }
        };
        // Stop pushing at the unresponsive client.
        self.pushes.retain(|_, p| p.dst != unreachable);
        Some(unreachable)
    }

    /// Take everything `client` holds or waits for — `LockStolen` events
    /// when `stolen` (lease expiry), `LockReleased` otherwise (a fresh
    /// session abandons the old one's locks) — and grant whoever that
    /// unblocks. Returns the number of locks taken.
    pub fn drop_client(&mut self, client: NodeId, stolen: bool, sessions: &SessionTable) -> usize {
        let (taken, grants) = self.table.steal_all(client);
        for &(ino, epoch) in &taken {
            self.out.push_back(LockEffect::Event(if stolen {
                ServerEvent::LockStolen { client, ino, epoch }
            } else {
                ServerEvent::LockReleased { client, ino, epoch }
            }));
        }
        self.queue.extend(grants);
        self.deliver(sessions);
        taken.len()
    }

    /// Issue a demand to `holder`, unless one is already outstanding. A
    /// holder with no live session has its lock released instead; the
    /// resulting grants are queued, not delivered, so [`Self::deliver`]
    /// can process them iteratively — recursing here can overflow the
    /// stack under long waiter chains.
    fn start_demand(
        &mut self,
        holder: NodeId,
        ino: Ino,
        mode_needed: LockMode,
        sessions: &SessionTable,
    ) {
        // One outstanding demand per (holder, ino) is enough.
        let same = |p: &PendingPush| (p.dst, p.ino) == (holder, ino);
        if self.pushes.values().any(same) {
            return;
        }
        let Some(session) = sessions.current(holder) else {
            self.queue.extend(self.table.release(holder, ino, None));
            return;
        };
        let Some(epoch) = self.table.holding_epoch(holder, ino) else {
            return; // no longer a holder; nothing to demand
        };
        self.next_push_seq += 1;
        let push_seq = self.next_push_seq;
        self.pushes.insert(
            push_seq,
            PendingPush {
                dst: holder,
                session,
                ino,
                mode_needed,
                epoch,
                retries_left: self.ladder.retries,
                acked: false,
            },
        );
        self.send_push(push_seq, false);
    }

    fn send_push(&mut self, push_seq: u64, retry: bool) {
        let p = &self.pushes[&push_seq];
        let body = PushBody::Demand {
            ino: p.ino,
            mode_needed: p.mode_needed,
            epoch: p.epoch,
        };
        let push = ServerPush {
            dst: p.dst,
            session: p.session,
            push_seq,
            body,
        };
        let timer = LadderTimer::PushRetry(push_seq);
        self.out
            .push_back(LockEffect::Arm(self.ladder.retry_interval, timer));
        self.out.push_back(LockEffect::Push { push, retry });
    }

    /// Report the queued grants and issue follow-up demands, iteratively:
    /// demands to session-less holders release their locks, which may
    /// produce further grants, and so on — a work queue keeps the stack
    /// flat.
    fn deliver(&mut self, sessions: &SessionTable) {
        let mut guard = 0u32;
        while !self.queue.is_empty() {
            guard += 1;
            assert!(guard < 1_000_000, "grant delivery failed to converge");
            self.touched.clear();
            for g in self.queue.drain(..) {
                self.touched.push(g.ino);
                self.out.push_back(LockEffect::Granted(g));
            }
            // The queue may still have waiters blocked by the *new*
            // holders: (re-)demand on their behalf, or the queue wedges.
            self.touched.sort();
            self.touched.dedup();
            for i in 0..self.touched.len() {
                let ino = self.touched[i];
                for (holder, mode) in self.table.pending_demands(ino) {
                    self.start_demand(holder, ino, mode, sessions);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::LockEffect::{Arm, Event, Granted, Held, Push};
    use super::*;
    use LadderTimer::{PushRetry, ReleaseWait};

    const A: NodeId = NodeId(10);
    const B: NodeId = NodeId(11);
    const C: NodeId = NodeId(12);
    const D: NodeId = NodeId(13);
    const F: Ino = Ino(1);
    const G: Ino = Ino(2);
    const X: LockMode = LockMode::Exclusive;
    const LADDER: DemandLadder = DemandLadder {
        retry_interval: LocalNs(50),
        retries: 2,
        release_timeout: LocalNs(500),
    };

    /// A service and its session table; a verb returns what it asked for.
    struct Rig(LockService, SessionTable);

    /// The session [`Rig::new`] opens for A to D (1 to 4).
    fn session(c: NodeId) -> SessionId {
        SessionId(u64::from(c.0) - 9)
    }

    impl Rig {
        fn new() -> Rig {
            let mut sessions = SessionTable::new();
            let _ = [A, B, C, D].map(|c| sessions.begin(c));
            Rig(LockService::new(LADDER), sessions)
        }
        fn effects(&mut self) -> Vec<LockEffect> {
            std::iter::from_fn(|| self.0.next_effect()).collect()
        }
        fn acquire(&mut self, c: NodeId, ino: Ino, seq: u64) -> Vec<LockEffect> {
            let answers = (session(c), ReqSeq(seq));
            self.0.acquire(c, ino, X, answers, &self.1);
            self.effects()
        }
        fn release(&mut self, c: NodeId, ino: Ino, epoch: u64) -> Vec<LockEffect> {
            self.0.release(c, ino, Epoch(epoch), &self.1);
            self.effects()
        }
        fn ack(&mut self, from: NodeId, push_seq: u64) -> Vec<LockEffect> {
            self.0.push_ack(from, push_seq);
            self.effects()
        }
        fn fire(&mut self, timer: LadderTimer) -> (Option<NodeId>, Vec<LockEffect>) {
            (self.0.timer_fired(timer), self.effects())
        }
    }

    fn grant(client: NodeId, ino: Ino, epoch: u64, seq: u64) -> Grant {
        Grant {
            client,
            ino,
            mode: X,
            epoch: Epoch(epoch),
            answers: Some((session(client), ReqSeq(seq))),
        }
    }

    fn blocked(client: NodeId, ino: Ino, seq: u64) -> LockEffect {
        let seq = ReqSeq(seq);
        Event(ServerEvent::RequestBlocked { client, ino, seq })
    }

    fn released(client: NodeId, ino: Ino, epoch: u64) -> LockEffect {
        let epoch = Epoch(epoch);
        Event(ServerEvent::LockReleased { client, ino, epoch })
    }

    /// One transmission of demand `push_seq` for `dst`'s grant `epoch`.
    fn demand(dst: NodeId, push_seq: u64, ino: Ino, epoch: u64, retry: bool) -> [LockEffect; 2] {
        let (mode_needed, epoch, session) = (X, Epoch(epoch), session(dst));
        let body = PushBody::Demand {
            ino,
            mode_needed,
            epoch,
        };
        let push = ServerPush {
            dst,
            session,
            push_seq,
            body,
        };
        let arm = Arm(LADDER.retry_interval, PushRetry(push_seq));
        [arm, Push { push, retry }]
    }

    /// A holds F at epoch 1 and B waits for it: demand 1 is outstanding.
    fn contended() -> Rig {
        let mut r = Rig::new();
        assert_eq!(r.acquire(A, F, 1), [Granted(grant(A, F, 1, 1))]);
        let [arm, push] = demand(A, 1, F, 1, false);
        assert_eq!(r.acquire(B, F, 2), [blocked(B, F, 2), arm, push]);
        r
    }

    #[test]
    fn a_conflict_sends_one_demand_and_a_release_hands_the_lock_on() {
        let mut r = contended();
        // A second waiter on the same (holder, ino): no second push.
        assert_eq!(r.acquire(C, F, 3), [blocked(C, F, 3)]);
        // A asking again is told what it holds, not granted anew.
        assert_eq!(r.acquire(A, F, 4), [Held(grant(A, F, 1, 4))]);
        // The release grants B, and C's wait becomes a demand on B.
        let [arm, push] = demand(B, 2, F, 5, false);
        let handed_on = [released(A, F, 1), Granted(grant(B, F, 5, 2)), arm, push];
        assert_eq!(r.release(A, F, 1), handed_on);
        // Demand 1's timers outlive it and find nothing to do.
        assert_eq!(r.fire(PushRetry(1)), (None, vec![]));
        assert_eq!(r.fire(ReleaseWait(1)), (None, vec![]));
    }

    #[test]
    fn unanswered_retries_end_in_a_delivery_error_that_drops_the_clients_pushes() {
        let mut r = contended();
        assert_eq!(r.acquire(A, G, 3), [Granted(grant(A, G, 3, 3))]);
        let [arm, push] = demand(A, 2, G, 3, false);
        assert_eq!(r.acquire(B, G, 4), [blocked(B, G, 4), arm, push]);
        let resent = demand(A, 1, F, 1, true).to_vec();
        for _ in 0..LADDER.retries {
            assert_eq!(r.fire(PushRetry(1)), (None, resent.clone()));
        }
        assert_eq!(r.fire(PushRetry(1)), (Some(A), vec![]));
        assert_eq!(r.fire(PushRetry(2)), (None, vec![]), "dropped with A");
    }

    #[test]
    fn only_the_addressees_ack_trades_the_retries_for_a_release_wait() {
        let mut r = contended();
        // Anyone can guess a push seq; C's ack changes nothing.
        assert_eq!(r.ack(C, 1), []);
        let resent = demand(A, 1, F, 1, true).to_vec();
        assert_eq!(r.fire(PushRetry(1)), (None, resent));
        let wait = Arm(LADDER.release_timeout, ReleaseWait(1));
        assert_eq!(r.ack(A, 1), [wait]);
        assert_eq!(r.ack(A, 1), [], "a duplicate ack arms nothing");
        assert_eq!(r.fire(PushRetry(1)), (None, vec![]), "retries stopped");
        assert_eq!(r.fire(ReleaseWait(1)), (Some(A), vec![]), "still held");
    }

    #[test]
    fn a_release_wait_forgives_a_grant_that_is_already_gone() {
        let mut r = contended();
        assert_eq!(r.ack(A, 1).len(), 1);
        // A's fresh session abandons the grant; no release names push 1.
        assert_eq!(r.0.drop_client(A, false, &r.1), 1);
        assert_eq!(r.effects(), [released(A, F, 1), Granted(grant(B, F, 3, 2))]);
        assert_eq!(r.fire(ReleaseWait(1)), (None, vec![]));
    }

    #[test]
    fn a_stale_epoch_release_leaves_the_demand_live() {
        let mut r = Rig::new();
        assert_eq!(r.acquire(A, F, 1), [Granted(grant(A, F, 1, 1))]);
        assert_eq!(r.release(A, F, 1), [released(A, F, 1)]);
        assert_eq!(r.acquire(A, F, 2), [Granted(grant(A, F, 2, 2))]);
        let [arm, push] = demand(A, 1, F, 2, false);
        assert_eq!(r.acquire(B, F, 3), [blocked(B, F, 3), arm, push]);
        assert_eq!(r.release(A, F, 1), [], "a straggler from the first tenure");
        let resent = demand(A, 1, F, 2, true).to_vec();
        assert_eq!(r.fire(PushRetry(1)), (None, resent));
    }

    #[test]
    fn a_holder_with_no_session_is_released_in_place() {
        // B's session is gone. Its wait stays queued, but once it holds
        // the lock nobody can be sent a demand for it.
        let mut r = contended();
        r.1.remove(B);
        assert_eq!(r.acquire(C, F, 3), [blocked(C, F, 3)]);
        assert_eq!(r.acquire(D, F, 4), [blocked(D, F, 4)]);
        // A's release grants B, whose grant is dropped for C, whose grant
        // D's wait turns into a demand on the *new* holder.
        let (to_b, to_c) = (Granted(grant(B, F, 5, 2)), Granted(grant(C, F, 6, 3)));
        let [arm, push] = demand(C, 2, F, 6, false);
        let chain = [released(A, F, 1), to_b, to_c, arm, push];
        assert_eq!(r.release(A, F, 1), chain);
    }

    #[test]
    fn a_ten_thousand_deep_waiter_chain_drains_without_recursion() {
        const DEPTH: u32 = 10_000;
        let mut r = Rig::new();
        r.acquire(A, F, 1);
        for i in 0..DEPTH {
            r.acquire(NodeId(100 + i), F, 2 + u64::from(i));
        }
        // Each session-less waiter is granted, found unreachable by the
        // next one's demand, and released: one delivery pass per waiter.
        let out = r.release(A, F, 1);
        assert_eq!(out.len(), 1 + DEPTH as usize);
        assert!(out[1..].iter().all(|e| matches!(e, Granted(_))));
        assert!(r.0.table().holds(NodeId(100 + DEPTH - 1), F, X));
    }
}
