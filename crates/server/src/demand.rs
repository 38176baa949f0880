//! The lock service: the lock table plus the delivery-error ladder.
//!
//! The paper's server does no lease work "until a message delivery error
//! occurs", so the code that *declares* one — lock conflict → `Demand` push
//! → retries → `PushAck` → release wait → delivery error — is what the
//! safety argument hangs on. It lives here once, and only
//! [`ServerCore`](crate::ServerCore) calls its verbs: the simulator's
//! [`ServerNode`](crate::ServerNode) and `tank-net`'s `LeaseServer` reach
//! it through their core.
//!
//! **Contract.** A [`LockService`] performs no I/O and reads no clock:
//! a verb that can start a demand is told the server-local `now`.
//! Each verb queues the [`LockEffect`]s its driver must carry out, *in
//! order*, and the driver drains them with [`LockService::next_effect`];
//! nothing here builds a response, so every answer still passes through
//! the driver's own commit point. Timers
//! are never cancelled: push seqs are never reused, so a [`LadderTimer`]
//! that outlives its push (acked, released, dropped with its client) finds
//! nothing to do when the driver hands it back on firing.
//!
//! **The anchor.** The ladder decides when to *stop ACKing* a holder, not
//! when its lease wait begins. Theorem 3.1 makes a steal safe τ(1+ε)
//! after the last ACK the server sent, so every outstanding demand keeps
//! `since` — the time of its first transmission, moved forward by each
//! ACK the driver reports to the holder through [`LockService::acked`] —
//! and a delivery error hands it back: detection and the lease wait run
//! concurrently, and no per-client state exists outside an outstanding
//! demand. The error drops the client's demands, so `since` stops moving:
//! from then until the steal the driver must send that client no ACK at
//! all. The request gate sees to fresh requests; a [`LockEffect::Granted`]
//! for an acquire that queued *before* the error is the one ACK that
//! could still fall due, and the driver answers it with the lease
//! authority's refusal instead (`ClientStanding::refusal`).

use std::collections::{HashMap, VecDeque};

use tank_proto::{Epoch, Event, Ino, LockMode, NodeId, PushBody, ReqSeq, ServerPush, SessionId};
use tank_sim::LocalNs;

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
    /// This grant now exists; answer `answers` (always set) — with a NACK
    /// if the lease authority has condemned the client while it queued.
    Granted(Grant),
    /// The requester already held a covering grant: answer `answers` with
    /// it. No new grant exists.
    Held(Grant),
    /// `LockReleased`, `LockStolen` or `RequestBlocked` happened.
    Event(Event),
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
    /// No ACK has gone to `dst` after this server-local time.
    since: LocalNs,
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

    /// Cover a grant's epoch by the table's reservation
    /// ([`LockManager::reserve`]): the reservation to log before the
    /// grant is answered, when it moved.
    pub fn reserve(&mut self, epoch: Epoch) -> Option<u64> {
        self.table.reserve(epoch)
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
        now: LocalNs,
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
                let blocked = Event::RequestBlocked { client, ino };
                self.out.push_back(LockEffect::Event(blocked));
                for holder in demand_from {
                    self.start_demand(holder, ino, mode, sessions, now);
                }
                self.deliver(sessions, now);
            }
        }
    }

    /// `LockRelease { ino, epoch }` from `client`. A stale-epoch release is
    /// ignored by the lock table, so it must not cancel the demand for the
    /// grant still held.
    pub fn release(
        &mut self,
        client: NodeId,
        ino: Ino,
        epoch: Epoch,
        sessions: &SessionTable,
        now: LocalNs,
    ) {
        let held = self.table.holding_epoch(client, ino);
        self.queue
            .extend(self.table.release(client, ino, Some(epoch)));
        if held == Some(epoch) {
            let released = Event::LockReleased { client, ino, epoch };
            self.out.push_back(LockEffect::Event(released));
            // The demand (if any) is satisfied.
            self.pushes.retain(|_, p| p.dst != client || p.ino != ino);
        }
        self.deliver(sessions, now);
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

    /// An ACK is about to leave for `client` at server-local `now`: no
    /// demand outstanding against it may count the lease wait from any
    /// earlier. Drivers call this for *every* ACK-carrying datagram; with
    /// no demand outstanding it is one emptiness test.
    pub fn acked(&mut self, client: NodeId, now: LocalNs) {
        if self.pushes.is_empty() {
            return;
        }
        for p in self.pushes.values_mut().filter(|p| p.dst == client) {
            p.since = p.since.max(now);
        }
    }

    /// A ladder timer fired. Returns the client a delivery error is now
    /// declared against, if any, and the time since which it has not been
    /// ACKed — the lease wait runs from there, not from now. Every push to
    /// the client has been dropped.
    #[must_use]
    pub fn timer_fired(&mut self, timer: LadderTimer) -> Option<(NodeId, LocalNs)> {
        let (unreachable, since) = match timer {
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
                (p.dst, p.since)
            }
            LadderTimer::ReleaseWait(push_seq) => {
                // PushAcked but never released — unless the demanded grant
                // is already gone (a voluntary release crossed the demand),
                // which satisfies it without a release naming this push.
                let p = self.pushes.remove(&push_seq)?;
                if self.table.holding_epoch(p.dst, p.ino) != Some(p.epoch) {
                    return None;
                }
                (p.dst, p.since)
            }
        };
        // Stop pushing at the unresponsive client.
        self.pushes.retain(|_, p| p.dst != unreachable);
        Some((unreachable, since))
    }

    /// Take everything `client` holds or waits for — `LockStolen` events
    /// when `stolen` (lease expiry), `LockReleased` otherwise (a fresh
    /// session abandons the old one's locks) — and grant whoever that
    /// unblocks. The demands for those locks go with them: a ladder left
    /// running would later declare a delivery error against whatever
    /// session the client has by then. Returns the number of locks taken.
    pub fn drop_client(
        &mut self,
        client: NodeId,
        stolen: bool,
        sessions: &SessionTable,
        now: LocalNs,
    ) -> usize {
        self.pushes.retain(|_, p| p.dst != client);
        let (taken, grants) = self.table.steal_all(client);
        for &(ino, epoch) in &taken {
            self.out.push_back(LockEffect::Event(if stolen {
                Event::LockStolen { client, ino, epoch }
            } else {
                Event::LockReleased { client, ino, epoch }
            }));
        }
        self.queue.extend(grants);
        self.deliver(sessions, now);
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
        now: LocalNs,
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
                since: now,
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
    fn deliver(&mut self, sessions: &SessionTable, now: LocalNs) {
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
                    self.start_demand(holder, ino, mode, sessions, now);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::LockEffect::{Arm, Event, Granted, Held, Push};
    use super::*;
    use proptest::prelude::*;
    use tank_core::{LeaseAuthority, LeaseConfig};
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

    /// A service, its session table and the server's clock (set with
    /// [`Rig::at`]); a verb returns what it asked for.
    struct Rig(LockService, SessionTable, LocalNs);

    /// The session [`Rig::new`] opens for A to D (1 to 4).
    fn session(c: NodeId) -> SessionId {
        SessionId(u64::from(c.0) - 9)
    }

    impl Rig {
        fn new() -> Rig {
            let mut sessions = SessionTable::new();
            let _ = [A, B, C, D].map(|c| sessions.begin(c));
            Rig(LockService::new(LADDER), sessions, LocalNs(0))
        }
        fn at(&mut self, now: u64) -> &mut Rig {
            self.2 = LocalNs(now);
            self
        }
        fn effects(&mut self) -> Vec<LockEffect> {
            std::iter::from_fn(|| self.0.next_effect()).collect()
        }
        fn acquire(&mut self, c: NodeId, ino: Ino, seq: u64) -> Vec<LockEffect> {
            let answers = (session(c), ReqSeq(seq));
            self.0.acquire(c, ino, X, answers, &self.1, self.2);
            self.effects()
        }
        fn release(&mut self, c: NodeId, ino: Ino, epoch: u64) -> Vec<LockEffect> {
            self.0.release(c, ino, Epoch(epoch), &self.1, self.2);
            self.effects()
        }
        fn ack(&mut self, from: NodeId, push_seq: u64) -> Vec<LockEffect> {
            self.0.push_ack(from, push_seq);
            self.effects()
        }
        /// The client a delivery error is declared against, and since when.
        fn fire(&mut self, timer: LadderTimer) -> (Option<(NodeId, u64)>, Vec<LockEffect>) {
            let error = self.0.timer_fired(timer).map(|(c, since)| (c, since.0));
            (error, self.effects())
        }
        /// The server sends `to` an ACK.
        fn acked(&mut self, to: NodeId) -> Vec<LockEffect> {
            self.0.acked(to, self.2);
            self.effects()
        }
        fn drop_client(&mut self, c: NodeId) -> (usize, Vec<LockEffect>) {
            let taken = self.0.drop_client(c, false, &self.1, self.2);
            (taken, self.effects())
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

    fn blocked(client: NodeId, ino: Ino) -> LockEffect {
        Event(tank_proto::Event::RequestBlocked { client, ino })
    }

    fn released(client: NodeId, ino: Ino, epoch: u64) -> LockEffect {
        let epoch = Epoch(epoch);
        Event(tank_proto::Event::LockReleased { client, ino, epoch })
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
        assert_eq!(r.acquire(B, F, 2), [blocked(B, F), arm, push]);
        r
    }

    #[test]
    fn a_conflict_sends_one_demand_and_a_release_hands_the_lock_on() {
        let mut r = contended();
        // A second waiter on the same (holder, ino): no second push.
        assert_eq!(r.acquire(C, F, 3), [blocked(C, F)]);
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
        assert_eq!(r.acquire(B, G, 4), [blocked(B, G), arm, push]);
        let resent = demand(A, 1, F, 1, true).to_vec();
        for _ in 0..LADDER.retries {
            assert_eq!(r.fire(PushRetry(1)), (None, resent.clone()));
        }
        assert_eq!(r.fire(PushRetry(1)), (Some((A, 0)), vec![]));
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
        assert_eq!(r.fire(ReleaseWait(1)), (Some((A, 0)), vec![]), "still held");
    }

    #[test]
    fn a_release_wait_forgives_a_grant_that_is_already_gone() {
        let mut r = contended();
        assert_eq!(r.ack(A, 1).len(), 1);
        // A's fresh session abandons the grant; no release names push 1.
        let handed_on = vec![released(A, F, 1), Granted(grant(B, F, 3, 2))];
        assert_eq!(r.drop_client(A), (1, handed_on));
        assert_eq!(r.fire(ReleaseWait(1)), (None, vec![]));
    }

    #[test]
    fn a_fresh_session_takes_the_old_sessions_demands_with_its_locks() {
        let mut r = contended();
        // A re-Hellos mid-ladder: its grant goes to B, and demand 1 with it.
        let handed_on = vec![released(A, F, 1), Granted(grant(B, F, 3, 2))];
        assert_eq!(r.drop_client(A), (1, handed_on));
        // Left outstanding, the ladder would run out against A's *fresh*
        // session; instead its timers find nothing to do.
        for _ in 0..=LADDER.retries {
            assert_eq!(r.fire(PushRetry(1)), (None, vec![]));
        }
    }

    /// A holds F; B's conflicting acquire sends demand 1 at t = 100.
    fn contended_at_100() -> Rig {
        let mut r = Rig::new();
        assert_eq!(r.acquire(A, F, 1), [Granted(grant(A, F, 1, 1))]);
        // No demand outstanding: an ACK (here, A's grant) leaves no mark.
        assert_eq!(r.at(70).acked(A), []);
        let [arm, push] = demand(A, 1, F, 1, false);
        assert_eq!(r.at(100).acquire(B, F, 2), [blocked(B, F), arm, push]);
        r
    }

    #[test]
    fn a_silent_holder_is_timed_from_the_first_transmission_not_the_last_retry() {
        let mut r = contended_at_100();
        let resent = demand(A, 1, F, 1, true).to_vec();
        assert_eq!(r.at(150).fire(PushRetry(1)), (None, resent.clone()));
        assert_eq!(r.at(200).fire(PushRetry(1)), (None, resent));
        assert_eq!(r.at(250).fire(PushRetry(1)), (Some((A, 100)), vec![]));
    }

    #[test]
    fn an_ack_to_the_holder_moves_the_anchor_and_an_ack_to_anyone_else_does_not() {
        let mut r = contended_at_100();
        let resent = demand(A, 1, F, 1, true).to_vec();
        assert_eq!(r.at(150).fire(PushRetry(1)), (None, resent.clone()));
        // A's keep-alive got through and is answered; so is one of C's.
        assert_eq!(r.at(160).acked(A), []);
        assert_eq!(r.at(190).acked(C), []);
        assert_eq!(r.at(200).fire(PushRetry(1)), (None, resent));
        assert_eq!(r.at(250).fire(PushRetry(1)), (Some((A, 160)), vec![]));
    }

    #[test]
    fn a_release_wait_is_timed_from_the_push_ack_reply_or_any_later_ack() {
        let wait = [Arm(LADDER.release_timeout, ReleaseWait(1))];
        let mut r = contended_at_100();
        assert_eq!(r.at(120).ack(A, 1), wait);
        assert_eq!(r.acked(A), [], "the reply to the PushAck");
        assert_eq!(r.at(620).fire(ReleaseWait(1)), (Some((A, 120)), vec![]));
        // The same, but A keeps renewing while it fails to release.
        let mut r = contended_at_100();
        assert_eq!(r.at(120).ack(A, 1), wait);
        for t in [120, 300, 480] {
            assert_eq!(r.at(t).acked(A), []);
        }
        assert_eq!(r.at(620).fire(ReleaseWait(1)), (Some((A, 480)), vec![]));
    }

    #[test]
    fn a_stale_epoch_release_leaves_the_demand_live() {
        let mut r = Rig::new();
        assert_eq!(r.acquire(A, F, 1), [Granted(grant(A, F, 1, 1))]);
        assert_eq!(r.release(A, F, 1), [released(A, F, 1)]);
        assert_eq!(r.acquire(A, F, 2), [Granted(grant(A, F, 2, 2))]);
        let [arm, push] = demand(A, 1, F, 2, false);
        assert_eq!(r.acquire(B, F, 3), [blocked(B, F), arm, push]);
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
        assert_eq!(r.acquire(C, F, 3), [blocked(C, F)]);
        assert_eq!(r.acquire(D, F, 4), [blocked(D, F)]);
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

    proptest! {
        /// Whatever the interleaving of lock traffic, ACKs, ladder timers
        /// and lease timers, a delivery error never counts the lease wait
        /// from before an ACK the server sent that client, and no ACK
        /// follows between the error and the steal — Theorem 3.1's
        /// hypothesis (`theorem.rs` has the negative control: an earlier
        /// anchor is unsafe). The driver is modelled with its two rules:
        /// every ACK is reported to `acked`, and nobody the lease authority
        /// has condemned is ACKed — not at the request gate, and not when a
        /// grant it queued for earlier falls due.
        #[test]
        fn a_steal_is_never_timed_from_before_an_ack_to_that_client(
            steps in proptest::collection::vec((0u8..7, 0usize..4, 0usize..2, 1u64..40), 1..160),
        ) {
            let clients = [A, B, C, D];
            let who_is = |c: NodeId| (c.0 - A.0) as usize;
            let mut r = Rig::new();
            let mut auth = LeaseAuthority::new(LeaseConfig::with_tau(LocalNs(150)));
            let mut last_ack = [None::<u64>; 4];
            let mut timers: Vec<LadderTimer> = Vec::new();
            let mut pushes: Vec<(NodeId, u64)> = Vec::new();
            // Armed lease timers: (client, since, fires_at).
            let mut condemned: Vec<(NodeId, u64, LocalNs)> = Vec::new();
            let (mut now, mut seq) = (0u64, 0u64);
            for (kind, who, which, dt) in steps {
                now += dt;
                r.at(now);
                let (c, ino) = (clients[who], [F, G][which]);
                // The request gate: a condemned client is NACKed.
                let refused = auth.standing_of(c).refusal().is_some();
                let effects = match kind {
                    0 | 1 if !refused => {
                        seq += 1;
                        r.acquire(c, ino, seq)
                    }
                    2 if !refused => match r.0.table().holding_epoch(c, ino) {
                        Some(epoch) => r.release(c, ino, epoch.0),
                        None => vec![],
                    },
                    // Any other request of `c`'s (a keep-alive) is answered.
                    3 if !refused => {
                        last_ack[who] = Some(now);
                        r.acked(c)
                    }
                    4 if !pushes.is_empty() => {
                        let (dst, push_seq) = pushes[which * who % pushes.len()];
                        match auth.standing_of(dst).refusal() {
                            None => r.ack(dst, push_seq),
                            Some(_) => vec![],
                        }
                    }
                    5 if !timers.is_empty() => {
                        let timer = timers.swap_remove(which * who % timers.len());
                        let (error, effects) = r.fire(timer);
                        if let Some((c, since)) = error {
                            let acked = last_ack[who_is(c)];
                            prop_assert!(since <= now);
                            prop_assert!(acked.is_none_or(|t| t <= since), "{acked:?} > {since}");
                            if let Some(fires_at) = auth.on_delivery_error(c, LocalNs(since)) {
                                condemned.push((c, since, fires_at));
                            }
                        }
                        effects
                    }
                    // The oldest lease timer, if it is due: steal, and the
                    // client comes back with a Hello.
                    6 if condemned.first().is_some_and(|d| d.2 <= LocalNs(now)) => {
                        let (c, since, _) = condemned.remove(0);
                        prop_assert!(auth.on_timer(c, LocalNs(now)));
                        let acked = last_ack[who_is(c)];
                        prop_assert!(acked.is_none_or(|t| t <= since), "{acked:?} > {since}");
                        r.0.drop_client(c, true, &r.1, LocalNs(now));
                        auth.on_new_session(c);
                        last_ack[who_is(c)] = Some(now);
                        r.acked(c);
                        r.effects()
                    }
                    _ => vec![],
                };
                // What the driver does with them: an answer is an ACK,
                // unless the lease authority says otherwise.
                for e in effects {
                    match e {
                        Arm(_, timer) => timers.push(timer),
                        Push { push, .. } => pushes.push((push.dst, push.push_seq)),
                        Granted(g) | Held(g) => {
                            if auth.standing_of(g.client).refusal().is_none() {
                                last_ack[who_is(g.client)] = Some(now);
                                r.acked(g.client);
                            }
                        }
                        Event(_) => {}
                    }
                }
            }
        }
    }
}
