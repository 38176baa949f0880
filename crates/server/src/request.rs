//! The request path: one sans-I/O server core, driven by both servers.
//!
//! Every ACK renews a lease, a client the lease authority is timing out is
//! NACKed instead (§3.3), and a Hello opens the session those renewals
//! count against. A delivery error starts the `τ(1+ε)` wait from the last
//! ACK, and the client's locks are taken only when it ends (Theorem 3.1).
//! [`ServerCore`] is that path, once: the simulator's
//! [`ServerNode`](crate::ServerNode) and `tank-net`'s `LeaseServer` each
//! own one and differ only in how they carry out its [`Effect`]s and in the
//! [`Admit`] rule they pass in (DESIGN.md §15).
//!
//! **Contract.** The core performs no I/O and reads no clock: each verb is
//! given the server-local `now`. It queues effects in order, and the
//! driver drains them with [`ServerCore::next_effect`], carrying each out
//! before the next. Every ACK is reported to the lock service
//! (`acked(dst, now)`) and, if duplicates replay it, recorded in the
//! session table as it is queued; the core never builds a
//! `CtlMsg::Response`, and an [`Effect::Respond`] reaches the wire through
//! the driver's one send funnel, behind that driver's commit point. The
//! core arms and decides every lease timer ([`CoreTimer`]); a driver only
//! fences or steals.

use std::collections::VecDeque;

use tank_core::{ClientStanding, LeaseAuthority, LeaseConfig};
use tank_meta::{MetaStore, WalRecord};
use tank_proto::message::{FsError, ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{
    Event, Incarnation, Ino, NackReason, NodeId, ReqSeq, Request, Response, RouteError, ServerId,
    ServerPush, SessionId,
};
use tank_shard::ShardMap;
use tank_sim::LocalNs;

use crate::config::{RecoveryPolicy, ServerConfig};
use crate::demand::{LadderTimer, LockEffect, LockService};
use crate::lock::{Grant, LockManager};
use crate::session::{Admission, SessionTable};

/// Operation counters for the experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct ServerStats {
    /// Requests received (after dedup).
    pub requests: u64,
    /// Protocol NACKs sent.
    pub nacks: u64,
    /// Pushes (demands/invalidations) sent, including retries.
    pub pushes_sent: u64,
    /// Delivery errors declared.
    pub delivery_errors: u64,
    /// Lock-steal campaigns executed.
    pub steals: u64,
    /// Individual locks stolen.
    pub locks_stolen: u64,
    /// Fence campaigns completed.
    pub fences_completed: u64,
    /// Duplicate requests replayed from the response cache.
    pub replays: u64,
    /// Fail-stop restarts recovered from.
    pub recoveries: u64,
    /// Requests refused with `Recovering` during a grace window.
    pub recovery_nacks: u64,
    /// Standby takeovers via the diskless-lease election.
    pub elections: u64,
}

/// Field-by-field sum: the totals over a cluster's shards. The
/// `server_stats_sum_every_field` test names every field, so a new one
/// cannot be left out unnoticed.
impl std::ops::AddAssign for ServerStats {
    fn add_assign(&mut self, o: ServerStats) {
        self.requests += o.requests;
        self.nacks += o.nacks;
        self.pushes_sent += o.pushes_sent;
        self.delivery_errors += o.delivery_errors;
        self.steals += o.steals;
        self.locks_stolen += o.locks_stolen;
        self.fences_completed += o.fences_completed;
        self.replays += o.replays;
        self.recoveries += o.recoveries;
        self.recovery_nacks += o.recovery_nacks;
        self.elections += o.elections;
    }
}

/// What a driver refuses before the metadata store sees a request — its
/// lock rules for mutations (DESIGN.md §15, row 1) — passed to
/// [`ServerCore::on_request`] the way an executor is passed to
/// [`RequestBody::run_batch`].
pub type Admit = fn(&LockManager, &mut MetaStore, NodeId, &RequestBody) -> Result<(), FsError>;

/// Where an answer goes: the client, its session and the request's seq.
pub(crate) type ReplyTo = (NodeId, SessionId, ReqSeq);

/// A timer the core armed, handed back to [`ServerCore::timer_fired`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreTimer {
    /// The demand ladder's retry and release-wait timers.
    Ladder(LadderTimer),
    /// The lease authority's `τ(1+ε)` timer for a client, counted from
    /// the last time the server ACKed it: `(client, since)`.
    LeaseExpiry(NodeId, LocalNs),
    /// Steal-side grace for in-flight hardens: the lease expired (the
    /// client is NACKed and never ACKed again), but the fence-and-steal
    /// waits `harden_grace` for SAN writes issued before the client's own
    /// expiry to land.
    StealGrace(NodeId),
    /// The post-restart recovery grace window elapsed.
    RecoveryDone,
}

/// One thing a driver must do on the core's behalf.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Put this response on the wire, after the driver's commit point.
    Respond(Response),
    /// Send `push`; `retry` is false for a demand's first transmission.
    Push {
        /// The push.
        push: ServerPush,
        /// A re-send of an unacknowledged push.
        retry: bool,
    },
    /// After this long, hand the timer back to [`ServerCore::timer_fired`].
    Arm(LocalNs, CoreTimer),
    /// Append this redo record before the next response leaves (a driver
    /// with no log drops it: DESIGN.md §15, row 2).
    Log(WalRecord),
    /// This happened (a fresh session also lifts a fence on its client).
    Event(Event),
    /// Take this client's locks now, with [`ServerCore::steal`].
    Steal(NodeId),
    /// Fence this client at the disks, then steal (a driver with none
    /// steals at once: DESIGN.md §15, row 3).
    Fence(NodeId),
}

/// The state every client request is answered from. The drivers' own
/// work — fencing, the log, their counters — uses the public fields and
/// the read accessors; outside this crate, the lease authority, the
/// recovery window, the lock service, the session table and the effect
/// queue are reached only through the verbs.
#[derive(Debug)]
pub struct ServerCore {
    /// Stamped on every response so clients detect restarts.
    pub incarnation: Incarnation,
    /// Operation counters.
    pub stats: ServerStats,
    /// The passive lease authority: armed by a delivery error, it condemns.
    authority: LeaseAuthority,
    /// True while inside the post-restart recovery grace window.
    recovering: bool,
    map: ShardMap,
    sid: ServerId,
    lease: LeaseConfig,
    nack_suspect: bool,
    policy: RecoveryPolicy,
    harden_grace: LocalNs,
    pub(crate) meta: MetaStore,
    pub(crate) locks: LockService,
    pub(crate) sessions: SessionTable,
    /// Decided, not yet handed out.
    out: VecDeque<Effect>,
}

impl ServerCore {
    /// Shard `cfg.sid` of `cfg.map` over a fresh store, incarnation 1.
    pub fn new(cfg: &ServerConfig, total_blocks: u64, block_size: usize) -> ServerCore {
        ServerCore {
            meta: MetaStore::new_sharded(cfg.map, cfg.sid, total_blocks, block_size),
            authority: LeaseAuthority::new(cfg.lease),
            incarnation: Incarnation(1),
            recovering: false,
            stats: ServerStats::default(),
            map: cfg.map,
            sid: cfg.sid,
            lease: cfg.lease,
            nack_suspect: cfg.nack_suspect,
            policy: cfg.policy,
            harden_grace: cfg.harden_grace,
            locks: LockService::new(cfg.ladder),
            sessions: SessionTable::new(),
            out: VecDeque::new(),
        }
    }

    /// What the driver must do next; `None` once it has caught up.
    pub fn next_effect(&mut self) -> Option<Effect> {
        self.out.pop_front()
    }

    /// The lease authority (accounting access).
    pub fn authority(&self) -> &LeaseAuthority {
        &self.authority
    }

    /// True while the recovery grace window is open.
    pub fn recovering(&self) -> bool {
        self.recovering
    }

    /// True while a [`Effect::Log`] is still queued: the store already
    /// reflects a change the driver's log does not hold yet.
    pub(crate) fn logs_queued(&self) -> bool {
        self.out.iter().any(|e| matches!(e, Effect::Log(_)))
    }

    /// Fail-stop restart: sessions, locks and leases are volatile and
    /// gone; sessions resume above `session_floor`, epochs above
    /// `epoch_floor`.
    pub(crate) fn restart(&mut self, session_floor: u64, epoch_floor: u64) {
        self.sessions = SessionTable::new();
        self.sessions.restore_watermark(session_floor);
        self.locks.reset(epoch_floor);
        self.authority = LeaseAuthority::new(self.lease);
    }

    /// Open the recovery grace window (diskless recovery, §6): what reads
    /// the lock table is refused for `τ(1+ε)`, by which time every lease
    /// live at the crash has expired on its holder's clock.
    pub fn begin_recovery(&mut self) {
        self.recovering = true;
        self.out.push_back(Effect::Event(Event::ServerRecovering));
        let done = Effect::Arm(self.lease.server_timeout(), CoreTimer::RecoveryDone);
        self.out.push_back(done);
    }

    /// A timer the core armed fired at server-local `now`.
    pub fn timer_fired(&mut self, timer: CoreTimer, now: LocalNs) {
        match timer {
            CoreTimer::Ladder(timer) => {
                let error = self.locks.timer_fired(timer);
                self.pump(now);
                if let Some((client, since)) = error {
                    self.delivery_error(client, since, now);
                }
            }
            // Only a client still suspect and past its `fires_at` expires
            // (`on_timer` marks it `Expired`).
            CoreTimer::LeaseExpiry(client, _) if self.authority.on_timer(client, now) => {
                let expired = Event::LeaseExpired { client };
                self.out.push_back(Effect::Event(expired));
                self.out.push_back(match self.harden_grace {
                    LocalNs(0) => Effect::Fence(client),
                    grace => Effect::Arm(grace, CoreTimer::StealGrace(client)),
                });
            }
            // A Hello during the grace already abandoned the old locks
            // (and reset the standing): nothing is left to take.
            CoreTimer::StealGrace(client)
                if self.authority.standing_of(client) == ClientStanding::Expired =>
            {
                self.out.push_back(Effect::Fence(client));
            }
            CoreTimer::LeaseExpiry(..) | CoreTimer::StealGrace(_) => {}
            CoreTimer::RecoveryDone => {
                self.recovering = false;
                self.out.push_back(Effect::Event(Event::ServerRecovered));
            }
        }
    }

    /// `client` went unanswered through the demand ladder and has not been
    /// ACKed since `since`: the configured [`RecoveryPolicy`] starts here.
    fn delivery_error(&mut self, client: NodeId, since: LocalNs, now: LocalNs) {
        self.stats.delivery_errors += 1;
        let error = Event::DeliveryError { client };
        self.out.push_back(Effect::Event(error));
        let steal = match self.policy {
            // §2 without a safety protocol: locked data simply stays
            // unavailable until the client reappears.
            RecoveryPolicy::HonorLocks => return,
            RecoveryPolicy::StealImmediately => Effect::Steal(client),
            RecoveryPolicy::FenceThenSteal => Effect::Fence(client),
            RecoveryPolicy::LeaseFence => {
                // The lease wait began at the last ACK, not now: the time
                // detection took has already been served (Theorem 3.1's
                // earliest case, `error_at = t_S2`).
                if let Some(fires_at) = self.authority.on_delivery_error(client, since) {
                    let expiry = CoreTimer::LeaseExpiry(client, since);
                    self.out.push_back(Effect::Arm(fires_at.minus(now), expiry));
                }
                return;
            }
        };
        self.sessions.remove(client);
        self.out.push_back(steal);
    }

    /// Take every lock `client` holds or waits for (its lease has expired)
    /// and grant whoever that unblocks. Returns the number of locks taken.
    pub fn steal(&mut self, client: NodeId, now: LocalNs) -> usize {
        self.stats.steals += 1;
        let stolen = self.locks.drop_client(client, true, &self.sessions, now);
        self.stats.locks_stolen += stolen as u64;
        self.pump(now);
        stolen
    }

    /// Answer with a protocol NACK.
    pub(crate) fn nack(&mut self, to: ReplyTo, reason: NackReason) {
        self.stats.nacks += 1;
        let resp = self.response(to, ResponseOutcome::Nacked(reason));
        self.out.push_back(Effect::Respond(resp));
    }

    /// One request from `from`, received at server-local `now`; `admit` is
    /// the driver's rule for who may run a metadata mutation.
    pub fn on_request(&mut self, from: NodeId, req: Request, now: LocalNs, admit: Admit) {
        let to = (from, req.session, req.seq);
        let body = req.body;
        // Routing gate first: a request this shard does not govern must
        // not touch any state here, not even the session window. Like
        // `Recovering`, `Misrouted` is a redirect, not a lease judgment.
        if let Some(route) = self.misrouted(&body) {
            return self.nack(to, NackReason::Misrouted(route));
        }
        // Recovery gate next: a freshly-restarted server cannot know
        // whether a grant would conflict with a surviving pre-crash holder
        // until the grace window closes.
        if self.recovering && body.needs_full_service() {
            self.stats.recovery_nacks += 1;
            return self.nack(to, NackReason::Recovering);
        }
        // Lease authority gate (§3.3): a suspect client gets NACKs,
        // an expired client gets NACKs for everything but Hello.
        let hello = matches!(body, RequestBody::Hello { .. });
        match self.authority.standing_of(from).refusal() {
            None => {}
            Some(NackReason::SessionExpired) if hello => {}
            Some(reason) => return self.refuse(to, reason),
        }
        if hello {
            return self.do_hello(from, req.seq, now);
        }
        match self.sessions.admit(from, req.session, req.seq) {
            Admission::Execute => self.stats.requests += 1,
            Admission::Replay(resp) => {
                self.stats.replays += 1;
                return self.send(*resp, false, now);
            }
            Admission::InProgress => return,
            Admission::WrongSession => return self.nack(to, NackReason::StaleSession),
        }
        match body {
            RequestBody::LockAcquire { ino, mode } => {
                // Locking a nonexistent file is an application error.
                if let Err(e) = self.meta.getattr(ino) {
                    return self.ack(to, Err(e.into()), now);
                }
                let answers = (req.session, req.seq);
                self.locks
                    .acquire(from, ino, mode, answers, &self.sessions, now);
                self.pump(now);
            }
            RequestBody::Batch(elems) => self.do_batch(to, elems, now, admit),
            body => {
                let result = self.execute_sync(from, body, now, admit);
                self.ack(to, result, now);
            }
        }
    }

    /// Why `body` may not execute on this shard, if it may not: a Hello
    /// from another map epoch would register a session the client routes
    /// wrongly against, and a batch runs on one shard or not at all.
    fn misrouted(&self, body: &RequestBody) -> Option<RouteError> {
        let foreign = |b: &RequestBody| {
            governing_ino(b).is_some_and(|gov| self.map.owner_of(gov) != self.sid)
        };
        let stray = match body {
            RequestBody::Hello { map_epoch } => {
                return (*map_epoch != self.map.epoch()).then_some(RouteError::StaleMap);
            }
            RequestBody::Batch(elems) => elems.iter().any(foreign),
            single => foreign(single),
        };
        stray.then_some(RouteError::NotOwner)
    }

    fn do_hello(&mut self, client: NodeId, seq: ReqSeq, now: LocalNs) {
        // Hello sits outside the session dedup window (it *creates* the
        // session), so duplicates are suppressed by (client, seq) here:
        // re-executing one would mint a second session and orphan the
        // one the client is actually using. A replay is not a request.
        if let Some(resp) = self.sessions.hello_replay(client, seq) {
            self.stats.replays += 1;
            return self.send(resp, false, now);
        }
        self.stats.requests += 1;
        // A fresh session abandons everything the old incarnation held.
        self.locks.drop_client(client, false, &self.sessions, now);
        self.pump(now);
        self.authority.on_new_session(client);
        let session = self.sessions.begin(client);
        // The session watermark is the at-most-once fix: a reborn server
        // restores it from the log, so post-crash sessions can never reuse
        // an id whose dedup window a surviving client still holds open.
        let watermark = WalRecord::SessionWatermark(self.sessions.watermark());
        self.out.push_back(Effect::Log(watermark));
        let fresh = Event::NewSession { client };
        self.out.push_back(Effect::Event(fresh));
        // Addressed with the *new* session, so the lease renewal lands in
        // the new incarnation.
        let map_epoch = self.map.epoch();
        let ok = ResponseOutcome::Acked(Ok(ReplyBody::HelloOk { session, map_epoch }));
        let resp = self.response((client, session, seq), ok);
        self.sessions.record_hello(client, seq, resp.clone());
        self.send(resp, false, now);
    }

    /// Vectored execution of a batch under the one batch rule, answered
    /// with one ACK carrying the per-element outcomes.
    fn do_batch(&mut self, to: ReplyTo, elems: Vec<RequestBody>, now: LocalNs, admit: Admit) {
        let reply = RequestBody::run_batch(elems, |body| self.execute_sync(to.0, body, now, admit));
        self.ack(to, Ok(reply), now);
    }

    /// Execute one synchronously-answerable body: session traffic here, a
    /// metadata request through `admit` and the one mutation table, its
    /// redo record queued as a [`Effect::Log`]. `LockAcquire` and Hello
    /// come back `Invalid` from the store: they are routed before this,
    /// and batch elements exclude them.
    fn execute_sync(
        &mut self,
        client: NodeId,
        body: RequestBody,
        now: LocalNs,
        admit: Admit,
    ) -> Result<ReplyBody, FsError> {
        match body {
            RequestBody::KeepAlive => Ok(ReplyBody::Ok),
            RequestBody::LockRelease { ino, epoch } => {
                self.locks.release(client, ino, epoch, &self.sessions, now);
                self.pump(now);
                Ok(ReplyBody::Ok)
            }
            RequestBody::PushAck { push_seq } => {
                self.locks.push_ack(client, push_seq);
                self.pump(now);
                Ok(ReplyBody::Ok)
            }
            body => {
                admit(self.locks.table(), &mut self.meta, client, &body)?;
                let (reply, rec) = self.meta.execute(body, now.0)?;
                self.out.extend(rec.map(Effect::Log));
                Ok(reply)
            }
        }
    }

    /// Turn what the lock service decided into effects, in order.
    fn pump(&mut self, now: LocalNs) {
        while let Some(effect) = self.locks.next_effect() {
            match effect {
                LockEffect::Arm(after, timer) => {
                    let timer = CoreTimer::Ladder(timer);
                    self.out.push_back(Effect::Arm(after, timer));
                }
                LockEffect::Push { push, retry } => {
                    self.stats.pushes_sent += 1;
                    self.out.push_back(Effect::Push { push, retry });
                }
                LockEffect::Granted(g) => {
                    // Grant epochs order conflicting ownership across
                    // crashes; the watermark must be durable before the
                    // grant is ACKed.
                    let (client, ino, epoch, mode) = (g.client, g.ino, g.epoch, g.mode);
                    let watermark = WalRecord::EpochWatermark(epoch.0);
                    self.out.push_back(Effect::Log(watermark));
                    let granted = Event::LockGranted {
                        client,
                        ino,
                        epoch,
                        mode,
                    };
                    self.out.push_back(Effect::Event(granted));
                    self.answer_grant(g, now);
                }
                LockEffect::Held(g) => self.answer_grant(g, now),
                LockEffect::Event(ev) => self.out.push_back(Effect::Event(ev)),
            }
        }
    }

    /// Answer the `LockAcquire` a grant belongs to, on the session it asked
    /// with: a waiter that re-sessioned while queued ignores the answer.
    fn answer_grant(&mut self, g: Grant, now: LocalNs) {
        let Some((session, seq)) = g.answers else {
            return;
        };
        // The gate on the way out: the acquire was admitted while its
        // sender stood `Good`, but it waited, and a delivery error against
        // the sender may have come first. An ACK now would renew a lease
        // from the acquire's first send — possibly later than the ACK the
        // running timer counts from — so the waiter is told what a fresh
        // request would be.
        let to = (g.client, session, seq);
        if let Some(reason) = self.authority.standing_of(g.client).refusal() {
            return self.refuse(to, reason);
        }
        let (blocks, size) = self.meta.file_extent(g.ino).unwrap_or_default();
        let (ino, mode, epoch) = (g.ino, g.mode, g.epoch);
        let reply = ReplyBody::LockGranted {
            ino,
            mode,
            epoch,
            blocks,
            size,
        };
        self.ack(to, Ok(reply), now);
    }

    /// Tell a client the lease authority is timing out, or has expired,
    /// that it will not be ACKed (§3.1). Without the §3.3 optimization a
    /// suspect is silently ignored instead — correct but wasteful.
    fn refuse(&mut self, to: ReplyTo, reason: NackReason) {
        if reason != NackReason::LeaseTimingOut || self.nack_suspect {
            self.nack(to, reason);
        }
    }

    /// ACK a fresh request, keeping the answer for duplicates to replay.
    fn ack(&mut self, to: ReplyTo, result: Result<ReplyBody, FsError>, now: LocalNs) {
        let resp = self.response(to, ResponseOutcome::Acked(result));
        self.send(resp, true, now);
    }

    /// Queue an ACK, fresh or replayed; with `replay`, duplicates of its
    /// request are answered with a copy kept now. It renews its
    /// addressee's lease from the request's send, before `now`, so any
    /// lease wait against the addressee restarts here (Theorem 3.1:
    /// t_C1 ≤ t_S2).
    fn send(&mut self, resp: Response, replay: bool, now: LocalNs) {
        self.locks.acked(resp.dst, now);
        if replay {
            let (dst, seq) = (resp.dst, resp.seq);
            self.sessions.record_response(dst, seq, resp.clone());
        }
        self.out.push_back(Effect::Respond(resp));
    }

    fn response(&self, (dst, session, seq): ReplyTo, outcome: ResponseOutcome) -> Response {
        let incarnation = self.incarnation;
        Response {
            dst,
            session,
            seq,
            incarnation,
            outcome,
        }
    }
}

/// The inode whose shard governs `body`: dentry operations go to the
/// directory's owner, inode operations to the inode's. Session traffic is
/// per-server, and a batch is checked element by element.
fn governing_ino(body: &RequestBody) -> Option<Ino> {
    match body {
        RequestBody::Hello { .. }
        | RequestBody::KeepAlive
        | RequestBody::PushAck { .. }
        | RequestBody::Batch(_) => None,
        RequestBody::Create { parent, .. }
        | RequestBody::Lookup { parent, .. }
        | RequestBody::Mkdir { parent, .. }
        | RequestBody::Unlink { parent, .. } => Some(*parent),
        RequestBody::ReadDir { dir }
        | RequestBody::RenameLink { dir, .. }
        | RequestBody::RenameUnlink { dir, .. } => Some(*dir),
        RequestBody::GetAttr { ino }
        | RequestBody::SetAttr { ino, .. }
        | RequestBody::LockAcquire { ino, .. }
        | RequestBody::LockRelease { ino, .. }
        | RequestBody::AllocBlocks { ino, .. }
        | RequestBody::CommitWrite { ino, .. } => Some(*ino),
    }
}

#[cfg(test)]
mod tests {
    use super::Effect::{Arm, Event, Fence, Log, Push, Respond, Steal};
    use super::*;
    use tank_proto::{CtlMsg, Epoch, LockMode, NetMsg, PushBody, WireEncode};

    use crate::demand::DemandLadder;

    const A: NodeId = NodeId(10);
    const B: NodeId = NodeId(11);
    const ROOT: Ino = Ino(1);
    /// The first inode the store mints.
    const F: Ino = Ino(2);
    const X: LockMode = LockMode::Exclusive;
    const NOW: LocalNs = LocalNs(1_000);

    /// The datagram `tankd` sends for `resp`.
    fn datagram(resp: &Response) -> bytes::Bytes {
        NetMsg::Ctl(CtlMsg::Response(resp.clone())).encoded()
    }

    /// Every mutation may run: the gates under test are the core's own.
    fn admit_all(
        _: &LockManager,
        _: &mut MetaStore,
        _: NodeId,
        _: &RequestBody,
    ) -> Result<(), FsError> {
        Ok(())
    }

    fn core_with(cfg: ServerConfig) -> ServerCore {
        ServerCore::new(&cfg, 1024, 512)
    }

    fn core() -> ServerCore {
        core_with(ServerConfig::default())
    }

    /// Take every effect the core has queued.
    fn drain(c: &mut ServerCore) -> Vec<Effect> {
        std::iter::from_fn(|| c.next_effect()).collect()
    }

    /// Send one request at `now` and take every effect it queued.
    fn send_at(
        c: &mut ServerCore,
        from: NodeId,
        (session, seq): (u64, u64),
        body: RequestBody,
        now: LocalNs,
    ) -> Vec<Effect> {
        let (session, seq) = (SessionId(session), ReqSeq(seq));
        let req = Request {
            src: from,
            session,
            seq,
            body,
        };
        c.on_request(from, req, now, admit_all);
        drain(c)
    }

    /// Send one request at [`NOW`] and take every effect it queued.
    fn send(
        c: &mut ServerCore,
        from: NodeId,
        session: u64,
        seq: u64,
        body: RequestBody,
    ) -> Vec<Effect> {
        send_at(c, from, (session, seq), body, NOW)
    }

    /// Hand `timer` back at `at` and take every effect it queued.
    fn fire(c: &mut ServerCore, timer: CoreTimer, at: LocalNs) -> Vec<Effect> {
        c.timer_fired(timer, at);
        drain(c)
    }

    fn hello() -> RequestBody {
        RequestBody::Hello { map_epoch: 0 }
    }

    fn create(name: &str) -> RequestBody {
        let (parent, name) = (ROOT, name.to_owned());
        RequestBody::Create { parent, name }
    }

    fn created(name: &str, ino: Ino) -> WalRecord {
        let (parent, name, now) = (ROOT, name.to_owned(), NOW.0);
        WalRecord::Create {
            parent,
            name,
            now,
            ino,
        }
    }

    fn response(dst: NodeId, session: u64, seq: u64, outcome: ResponseOutcome) -> Effect {
        Respond(Response {
            dst,
            session: SessionId(session),
            seq: ReqSeq(seq),
            incarnation: Incarnation(1),
            outcome,
        })
    }

    fn ack(dst: NodeId, session: u64, seq: u64, result: Result<ReplyBody, FsError>) -> Effect {
        response(dst, session, seq, ResponseOutcome::Acked(result))
    }

    fn nack(dst: NodeId, session: u64, seq: u64, reason: NackReason) -> Effect {
        response(dst, session, seq, ResponseOutcome::Nacked(reason))
    }

    /// What a fresh Hello (seq `seq`) minting session `session` queues.
    fn fresh_hello(client: NodeId, session: u64, seq: u64) -> [Effect; 3] {
        let ok = ReplyBody::HelloOk {
            session: SessionId(session),
            map_epoch: 0,
        };
        [
            Log(WalRecord::SessionWatermark(session)),
            Event(tank_proto::Event::NewSession { client }),
            ack(client, session, seq, Ok(ok)),
        ]
    }

    fn granted(client: NodeId, session: u64, seq: u64, epoch: u64) -> Effect {
        let reply = ReplyBody::LockGranted {
            ino: F,
            mode: X,
            epoch: Epoch(epoch),
            blocks: Vec::new(),
            size: 0,
        };
        ack(client, session, seq, Ok(reply))
    }

    #[test]
    fn the_recovery_gate_refuses_full_service_and_still_serves_keep_alives() {
        let mut c = core();
        c.begin_recovery();
        drain(&mut c);
        assert_eq!(send(&mut c, A, 0, 1, hello()), fresh_hello(A, 1, 1));
        // What reads the lock table is refused: a grant, and a mutation
        // admitted against the locks the server knows of.
        let touch = RequestBody::SetAttr {
            ino: ROOT,
            size: None,
        };
        let refused = nack(A, 1, 2, NackReason::Recovering);
        assert_eq!(send(&mut c, A, 1, 2, touch.clone()), [refused]);
        let acquire = RequestBody::LockAcquire { ino: ROOT, mode: X };
        assert_eq!(
            send(&mut c, A, 1, 3, acquire),
            [nack(A, 1, 3, NackReason::Recovering)]
        );
        // A create never consults the lock table: served inside the window.
        let made = ack(A, 1, 4, Ok(ReplyBody::Created { ino: F }));
        assert_eq!(
            send(&mut c, A, 1, 4, create("a")),
            [Log(created("a", F)), made]
        );
        let kept = ack(A, 1, 5, Ok(ReplyBody::Ok));
        assert_eq!(send(&mut c, A, 1, 5, RequestBody::KeepAlive), [kept]);
        // One lock-dependent element refuses the whole batch, unexecuted.
        let batch = RequestBody::Batch(vec![create("b"), touch]);
        assert_eq!(
            send(&mut c, A, 1, 6, batch),
            [nack(A, 1, 6, NackReason::Recovering)]
        );
        let s = c.stats;
        assert_eq!((s.recovery_nacks, s.nacks, s.requests), (3, 3, 3));
    }

    #[test]
    fn a_suspect_is_nacked_or_with_nack_suspect_off_ignored() {
        for nack_suspect in [true, false] {
            let mut c = core_with(ServerConfig {
                nack_suspect,
                ..ServerConfig::default()
            });
            assert_eq!(send(&mut c, A, 0, 1, hello()), fresh_hello(A, 1, 1));
            assert!(c.authority.on_delivery_error(A, NOW).is_some());
            let answer = send(&mut c, A, 1, 2, RequestBody::KeepAlive);
            if nack_suspect {
                assert_eq!(answer, [nack(A, 1, 2, NackReason::LeaseTimingOut)]);
                assert_eq!(c.stats.nacks, 1);
            } else {
                assert_eq!(answer, [], "silently ignored");
                assert_eq!(c.stats.nacks, 0);
            }
            assert_eq!(c.stats.requests, 1, "the Hello only");
        }
    }

    #[test]
    fn an_expired_client_is_served_a_hello_and_nothing_else() {
        let mut c = core();
        assert_eq!(send(&mut c, A, 0, 1, hello()), fresh_hello(A, 1, 1));
        let fires_at = c.authority.on_delivery_error(A, NOW).unwrap();
        assert!(c.authority.on_timer(A, fires_at));
        let getattr = RequestBody::GetAttr { ino: ROOT };
        let expired = nack(A, 1, 2, NackReason::SessionExpired);
        assert_eq!(send(&mut c, A, 1, 2, getattr.clone()), [expired]);
        assert_eq!(send(&mut c, A, 1, 3, hello()), fresh_hello(A, 2, 3));
        let answer = send(&mut c, A, 2, 4, getattr);
        assert!(matches!(
            &answer[..],
            [Respond(Response {
                outcome: ResponseOutcome::Acked(Ok(ReplyBody::Attr { .. })),
                ..
            })]
        ));
    }

    #[test]
    fn a_duplicated_hello_is_replayed_and_not_counted_as_a_request() {
        let mut c = core();
        let first = send(&mut c, A, 0, 1, hello());
        assert_eq!(first, fresh_hello(A, 1, 1));
        let again = send(&mut c, A, 0, 1, hello());
        let (Respond(sent), [Respond(replayed)]) = (&first[2], &again[..]) else {
            panic!("{again:?}");
        };
        assert_eq!(datagram(sent), datagram(replayed));
        let s = c.stats;
        assert_eq!((s.requests, s.replays), (1, 1));
        assert_eq!(c.sessions.watermark(), 1, "one session minted");
    }

    #[test]
    fn the_session_window_executes_replays_waits_and_refuses() {
        let mut c = core();
        send(&mut c, A, 0, 1, hello());
        send(&mut c, B, 0, 1, hello());
        // Execute: fresh.
        let made = ack(A, 1, 2, Ok(ReplyBody::Created { ino: F }));
        let execute = [Log(created("f", F)), made.clone()];
        assert_eq!(send(&mut c, A, 1, 2, create("f")), execute);
        // Replay: the duplicate is answered from the cache, not executed.
        assert_eq!(send(&mut c, A, 1, 2, create("f")), [made]);
        // In progress: a queued acquire's duplicate waits for the grant.
        let acquire = RequestBody::LockAcquire { ino: F, mode: X };
        let held = send(&mut c, A, 1, 3, acquire.clone());
        assert_eq!(held[2], granted(A, 1, 3, 1));
        let queued = send(&mut c, B, 2, 2, acquire.clone());
        let blocked = tank_proto::Event::RequestBlocked { client: B, ino: F };
        assert!(matches!(&queued[..], [Event(e), Arm(..), Push { .. }] if *e == blocked));
        assert_eq!(send(&mut c, B, 2, 2, acquire), []);
        // Stale session.
        let stale = nack(A, 9, 4, NackReason::StaleSession);
        assert_eq!(send(&mut c, A, 9, 4, RequestBody::KeepAlive), [stale]);
        let s = c.stats;
        assert_eq!((s.requests, s.replays, s.nacks), (5, 1, 1));
    }

    #[test]
    fn routing_gates_misroute_another_maps_hello_and_a_foreign_batch_element() {
        let mut c = core();
        let stale = nack(A, 0, 1, NackReason::Misrouted(RouteError::StaleMap));
        let other_map = RequestBody::Hello { map_epoch: 1 };
        assert_eq!(send(&mut c, A, 0, 1, other_map), [stale]);
        assert_eq!(c.sessions.watermark(), 0, "no session minted");
        assert_eq!(c.stats.requests, 0);
        // Shard 0 of 2: `Ino(2)` is shard 1's root.
        let mut c = core_with(ServerConfig {
            map: ShardMap::new(2),
            ..ServerConfig::default()
        });
        send(&mut c, A, 0, 1, hello());
        let getattr = |ino| RequestBody::GetAttr { ino };
        let batch = RequestBody::Batch(vec![getattr(ROOT), getattr(Ino(2))]);
        let foreign = nack(A, 1, 2, NackReason::Misrouted(RouteError::NotOwner));
        assert_eq!(send(&mut c, A, 1, 2, batch), [foreign]);
    }

    #[test]
    fn a_grant_that_falls_due_while_its_waiter_is_condemned_is_a_nack() {
        let mut c = core();
        send(&mut c, A, 0, 1, hello());
        send(&mut c, B, 0, 1, hello());
        send(&mut c, A, 1, 2, create("f"));
        let acquire = RequestBody::LockAcquire { ino: F, mode: X };
        send(&mut c, A, 1, 3, acquire.clone());
        let queued = send(&mut c, B, 2, 2, acquire);
        let demand = ServerPush {
            dst: A,
            session: SessionId(1),
            push_seq: 1,
            body: PushBody::Demand {
                ino: F,
                mode_needed: X,
                epoch: Epoch(1),
            },
        };
        let retry = CoreTimer::Ladder(LadderTimer::PushRetry(1));
        assert_eq!(
            queued[1..],
            [
                Arm(DemandLadder::default().retry_interval, retry),
                Push {
                    push: demand,
                    retry: false
                }
            ]
        );
        // B is condemned while it waits; A then lets go.
        assert!(c.authority.on_delivery_error(B, NOW).is_some());
        let release = RequestBody::LockRelease {
            ino: F,
            epoch: Epoch(1),
        };
        let handed_on = [
            Event(tank_proto::Event::LockReleased {
                client: A,
                ino: F,
                epoch: Epoch(1),
            }),
            Log(WalRecord::EpochWatermark(3)),
            Event(tank_proto::Event::LockGranted {
                client: B,
                ino: F,
                epoch: Epoch(3),
                mode: X,
            }),
            nack(B, 2, 2, NackReason::LeaseTimingOut),
            ack(A, 1, 4, Ok(ReplyBody::Ok)),
        ];
        assert_eq!(send(&mut c, A, 1, 4, release), handed_on);
    }

    #[test]
    fn a_batch_stops_at_its_first_file_system_error_and_logs_nothing_after_it() {
        let mut c = core();
        send(&mut c, A, 0, 1, hello());
        let batch = RequestBody::Batch(vec![create("a"), create("a"), create("b")]);
        let outcomes = vec![Ok(ReplyBody::Created { ino: F }), Err(FsError::Exists)];
        let answer = ack(A, 1, 2, Ok(ReplyBody::Batch(outcomes)));
        assert_eq!(send(&mut c, A, 1, 2, batch), [Log(created("a", F)), answer]);
    }

    #[test]
    fn records_are_queued_in_the_order_the_log_appends_them() {
        let mut c = core();
        let logs = |effects: Vec<Effect>| -> Vec<WalRecord> {
            let logged = effects.into_iter().filter_map(|e| match e {
                Log(rec) => Some(rec),
                _ => None,
            });
            logged.collect()
        };
        let acquire = RequestBody::LockAcquire { ino: F, mode: X };
        let alloc = RequestBody::AllocBlocks { ino: F, count: 2 };
        let release = RequestBody::LockRelease {
            ino: F,
            epoch: Epoch(1),
        };
        let batch = RequestBody::Batch(vec![create("g"), release, create("h")]);
        let script = [
            (0, 1, hello()),
            (1, 2, create("f")),
            (1, 3, acquire),
            (1, 4, alloc),
            (1, 5, batch),
            (1, 6, hello()),
        ];
        let mut log = Vec::new();
        for (session, seq, body) in script {
            log.extend(logs(send(&mut c, A, session, seq, body)));
        }
        let expected = [
            WalRecord::SessionWatermark(1),
            created("f", F),
            WalRecord::EpochWatermark(1),
            WalRecord::Alloc { ino: F, count: 2 },
            created("g", Ino(3)),
            created("h", Ino(4)),
            WalRecord::SessionWatermark(2),
        ];
        assert_eq!(log, expected);
    }

    /// The lease wait, `τ(1+ε)` on the server's clock.
    fn lease_wait() -> LocalNs {
        ServerConfig::default().lease.server_timeout()
    }

    /// A holds `F` exclusively and B waits for it: demand 1 has been out
    /// against A since [`NOW`].
    fn demanded(cfg: ServerConfig) -> ServerCore {
        let mut c = core_with(cfg);
        send(&mut c, A, 0, 1, hello());
        send(&mut c, B, 0, 1, hello());
        send(&mut c, A, 1, 2, create("f"));
        let acquire = RequestBody::LockAcquire { ino: F, mode: X };
        send(&mut c, A, 1, 3, acquire.clone());
        send(&mut c, B, 2, 2, acquire);
        c
    }

    /// Demand 1 goes unanswered through the ladder, its last rung at `at`:
    /// what the delivery error queues.
    fn unanswered(c: &mut ServerCore, at: LocalNs) -> Vec<Effect> {
        let ladder = DemandLadder::default();
        let retry = CoreTimer::Ladder(LadderTimer::PushRetry(1));
        for k in 1..=u64::from(ladder.retries) {
            fire(c, retry, NOW.plus(ladder.retry_interval.times(k)));
        }
        fire(c, retry, at)
    }

    #[test]
    fn one_delivery_error_queues_what_its_recovery_policy_asks() {
        let last_ack = NOW.plus(LocalNs::from_millis(300));
        let error_at = NOW.plus(LocalNs::from_secs(1));
        let error = Event(tank_proto::Event::DeliveryError { client: A });
        // The lease wait runs from the last ACK, not from the error.
        let expiry = CoreTimer::LeaseExpiry(A, last_ack);
        let residual = last_ack.plus(lease_wait()).minus(error_at);
        let cases = [
            (RecoveryPolicy::HonorLocks, vec![error.clone()], true),
            (
                RecoveryPolicy::StealImmediately,
                vec![error.clone(), Steal(A)],
                false,
            ),
            (
                RecoveryPolicy::FenceThenSteal,
                vec![error.clone(), Fence(A)],
                false,
            ),
            (
                RecoveryPolicy::LeaseFence,
                vec![error.clone(), Arm(residual, expiry)],
                true,
            ),
        ];
        for (policy, queued, session_kept) in cases {
            let mut c = demanded(ServerConfig {
                policy,
                ..ServerConfig::default()
            });
            send_at(&mut c, A, (1, 4), RequestBody::KeepAlive, last_ack);
            assert_eq!(unanswered(&mut c, error_at), queued, "{policy:?}");
            assert_eq!(c.sessions.current(A).is_some(), session_kept, "{policy:?}");
            let s = c.stats;
            assert_eq!((s.delivery_errors, s.steals), (1, 0), "{policy:?}");
        }
    }

    #[test]
    fn a_lease_wait_served_before_the_error_is_declared_expires_at_once() {
        let mut c = demanded(ServerConfig::default());
        let late = NOW.plus(lease_wait()).plus(LocalNs::from_secs(1));
        let expiry = CoreTimer::LeaseExpiry(A, NOW);
        assert_eq!(unanswered(&mut c, late)[1..], [Arm(LocalNs(0), expiry)]);
        let expired = Event(tank_proto::Event::LeaseExpired { client: A });
        assert_eq!(fire(&mut c, expiry, late), [expired, Fence(A)]);
    }

    #[test]
    fn a_lease_timer_handed_back_early_or_after_a_fresh_hello_condemns_nothing() {
        let mut c = demanded(ServerConfig::default());
        let error_at = NOW.plus(LocalNs::from_secs(1));
        unanswered(&mut c, error_at);
        let expiry = CoreTimer::LeaseExpiry(A, NOW);
        let due = NOW.plus(lease_wait());
        // A Hello inside the wait is refused: the wait runs to its end.
        let refused = nack(A, 1, 4, NackReason::LeaseTimingOut);
        assert_eq!(send_at(&mut c, A, (1, 4), hello(), error_at), [refused]);
        assert_eq!(fire(&mut c, expiry, due.minus(LocalNs(1))), []);
        let expired = Event(tank_proto::Event::LeaseExpired { client: A });
        assert_eq!(fire(&mut c, expiry, due), [expired, Fence(A)]);
        // Expired, A may Hello; its fresh session owes nothing to the old.
        let answer = send_at(&mut c, A, (1, 5), hello(), due);
        assert!(matches!(
            answer.last(),
            Some(Respond(Response {
                outcome: ResponseOutcome::Acked(Ok(ReplyBody::HelloOk { .. })),
                ..
            }))
        ));
        assert_eq!(fire(&mut c, expiry, due), []);
    }

    #[test]
    fn a_steal_grace_steals_only_a_client_still_expired() {
        let grace = LocalNs::from_millis(500);
        let due = NOW.plus(lease_wait());
        let expiry = CoreTimer::LeaseExpiry(A, NOW);
        let expired = Event(tank_proto::Event::LeaseExpired { client: A });
        for hello_in_grace in [false, true] {
            let mut c = demanded(ServerConfig {
                harden_grace: grace,
                ..ServerConfig::default()
            });
            unanswered(&mut c, NOW.plus(LocalNs::from_secs(1)));
            let graced = [expired.clone(), Arm(grace, CoreTimer::StealGrace(A))];
            assert_eq!(fire(&mut c, expiry, due), graced);
            let mut stolen = vec![Fence(A)];
            if hello_in_grace {
                send_at(&mut c, A, (1, 4), hello(), due);
                stolen.clear();
            }
            let grace_over = due.plus(grace);
            let answer = fire(&mut c, CoreTimer::StealGrace(A), grace_over);
            assert_eq!(answer, stolen, "Hello in the grace: {hello_in_grace}");
        }
    }

    #[test]
    fn begin_recovery_refuses_full_service_until_recovery_done() {
        let mut c = core();
        c.begin_recovery();
        let began = Event(tank_proto::Event::ServerRecovering);
        let arm = Arm(lease_wait(), CoreTimer::RecoveryDone);
        assert_eq!(drain(&mut c), [began, arm]);
        send(&mut c, A, 0, 1, hello());
        send(&mut c, A, 1, 2, create("f"));
        let acquire = RequestBody::LockAcquire { ino: F, mode: X };
        let refused = nack(A, 1, 3, NackReason::Recovering);
        assert_eq!(send(&mut c, A, 1, 3, acquire.clone()), [refused]);
        assert!(c.recovering());
        let ended = Event(tank_proto::Event::ServerRecovered);
        let done = NOW.plus(lease_wait());
        assert_eq!(fire(&mut c, CoreTimer::RecoveryDone, done), [ended]);
        assert!(!c.recovering());
        assert_eq!(send(&mut c, A, 1, 4, acquire)[2], granted(A, 1, 4, 1));
    }

    #[test]
    fn server_stats_sum_every_field() {
        let one = ServerStats {
            requests: 1,
            nacks: 2,
            pushes_sent: 3,
            delivery_errors: 4,
            steals: 5,
            locks_stolen: 6,
            fences_completed: 7,
            replays: 8,
            recoveries: 9,
            recovery_nacks: 10,
            elections: 11,
        };
        let mut sum = one;
        sum += one;
        let twice = ServerStats {
            requests: 2,
            nacks: 4,
            pushes_sent: 6,
            delivery_errors: 8,
            steals: 10,
            locks_stolen: 12,
            fences_completed: 14,
            replays: 16,
            recoveries: 18,
            recovery_nacks: 20,
            elections: 22,
        };
        assert_eq!(sum, twice);
    }
}
