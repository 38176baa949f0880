//! The UDP lease/lock/metadata server: one run-to-completion thread.
//!
//! The reactor thread owns the protocol state outright. It waits for
//! socket readiness ([`crate::poll`]) with its timeout bounded by the
//! earliest pending protocol timer, fires what is due, drains every
//! ready datagram into an arena batch ([`crate::reactor`]), decodes and
//! executes the batch in arrival order, and flushes every reply the
//! wakeup produced in one go. Push retries, release waits, lease
//! expiries and the recovery window are all multiplexed into the poll
//! timeout — nothing sleeps per event, nothing is handed
//! to another thread, nothing is locked. DESIGN.md §15 walks the
//! architecture.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use tank_core::{LeaseAuthority, LeaseConfig};
use tank_meta::MetaStore;
use tank_obs::{names, Counter, Histogram, Registry};
use tank_proto::message::{FsError, ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::wire::response_datagram;
use tank_proto::{
    CtlMsg, Incarnation, LockMode, NackReason, NetMsg, NodeId, ReqSeq, Request, Response,
    SessionId, WireEncode,
};
use tank_server::session::{Admission, SessionTable};
use tank_server::{DemandLadder, LadderTimer, LockEffect, LockService, ServerStats};
use tank_sim::LocalNs;

use crate::fault::{FaultConfig, FaultySocket};
use crate::mono_now;
use crate::poll::Poller;
use crate::reactor::{decode_batch, drain_ready, recv_scratch, TimerQueue, WakeupBatch};

/// Shortest poll timeout: epoll has millisecond resolution, and a
/// sub-millisecond timeout must not busy-spin.
const MIN_POLL: Duration = Duration::from_millis(1);
/// Longest poll timeout: bounds the latency of noticing a stop request.
/// (Timers are armed only by this thread, between waits, so the deadline
/// a wait was computed from cannot go stale while it sleeps.)
const MAX_POLL: Duration = Duration::from_millis(25);
/// Replies queued before a batch flushes early. One `sendmmsg` vector:
/// a fuller outbox would not save a syscall, it would only make the
/// first replies of a long batch wait for the last request's execution.
const FLUSH_AT: usize = 32;
/// Most datagrams drained — and so executed and answered — per wakeup; a
/// deeper backlog surfaces on the next wakeup. Due timers fire between
/// batches, so this bounds how late a flood can make them.
const MAX_BATCH: usize = 1024;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Lease contract.
    pub lease: LeaseConfig,
    /// When an unanswered demand becomes a delivery error.
    pub ladder: DemandLadder,
    /// This server instance's incarnation number, stamped on every
    /// response. An operator restarting a crashed server must pass a
    /// larger value than the previous instance used, so clients can
    /// tell a restart from a long network outage.
    pub incarnation: u64,
    /// Start in the recovery grace window: refuse lock grants and
    /// metadata mutations for `τ(1+ε)` after startup, so every lease
    /// that might have been outstanding at the crash has expired on its
    /// holder's own clock (and that holder has quiesced) before any
    /// conflicting grant can be issued. Set this whenever the bind
    /// address may have served an earlier incarnation.
    pub recover: bool,
    /// Fault injection applied to this server's socket.
    pub faults: FaultConfig,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            lease: LeaseConfig::default(),
            ladder: DemandLadder::default(),
            incarnation: 1,
            recover: false,
            faults: FaultConfig::none(),
        }
    }
}

/// Timer events multiplexed into the reactor's poll timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerEv {
    Ladder(LadderTimer),
    LeaseExpiry(NodeId),
    RecoveryDone,
}

/// The server's protocol state, owned by the reactor thread: timers and
/// requests run against it one at a time, to completion. All sends go
/// through the `outbox` field and leave together at the end of a wakeup.
pub struct LeaseServer {
    meta: MetaStore,
    locks: LockService,
    authority: LeaseAuthority,
    sessions: SessionTable,
    /// addr ⟷ node id mapping (ids assigned on first contact).
    ids: HashMap<SocketAddr, NodeId>,
    addrs: HashMap<NodeId, SocketAddr>,
    next_id: u32,
    timers: TimerQueue<TimerEv>,
    incarnation: Incarnation,
    recovering: bool,
    stats: ServerStats,
    /// Encoded responses awaiting transmission (see [`Self::flush`]).
    outbox: Vec<(SocketAddr, Bytes)>,
    /// The local clock, read once per wakeup: before the due timers fire,
    /// and again after the drain. Every request in a batch was sent before
    /// that second reading, so an ACK stamped with it bounds the lease the
    /// ACK renews (`t_C1 ≤ stamp`); a reading cached from before the drain
    /// would not.
    now: LocalNs,
    /// Wall-clock vectored-batch execution histogram (when observed).
    batch_exec_ns: Option<Arc<Histogram>>,
}

/// Reactor-loop instruments (when observed).
struct ReactorObs {
    wakeups: Arc<Counter>,
    datagrams_per_wakeup: Arc<Histogram>,
}

/// Handle returned by [`LeaseServer::spawn`].
pub struct ServerHandle {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    join: std::thread::JoinHandle<ServerStats>,
    stop: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Stop the server and return its final counters.
    pub fn stop(self) -> ServerStats {
        self.stop.store(true, Ordering::SeqCst);
        self.join.join().unwrap_or_default()
    }
}

impl LeaseServer {
    /// Bind `addr` and run the server on its own reactor thread.
    pub fn spawn(addr: &str, cfg: NetServerConfig) -> std::io::Result<ServerHandle> {
        Self::spawn_observed(addr, cfg, None)
    }

    /// [`spawn`](Self::spawn) with an observability registry: records the
    /// `server.batch.exec_ns` execution histogram and the
    /// `net.reactor.*` loop instruments.
    pub fn spawn_observed(
        addr: &str,
        cfg: NetServerConfig,
        registry: Option<&Arc<Registry>>,
    ) -> std::io::Result<ServerHandle> {
        let sock = FaultySocket::bind(addr, cfg.faults)?;
        let bound = sock.local_addr()?;
        sock.set_nonblocking(true)?;
        let mut server = LeaseServer {
            meta: MetaStore::new(1 << 16, 4096),
            locks: LockService::new(cfg.ladder),
            authority: LeaseAuthority::new(cfg.lease),
            sessions: SessionTable::new(),
            ids: HashMap::new(),
            addrs: HashMap::new(),
            next_id: 1,
            timers: TimerQueue::new(),
            incarnation: Incarnation(cfg.incarnation),
            recovering: false,
            stats: ServerStats::default(),
            outbox: Vec::new(),
            now: mono_now(),
            batch_exec_ns: registry.map(|r| r.histogram_def(&names::SERVER_BATCH_EXEC_NS)),
        };
        if cfg.recover {
            // Diskless recovery (§6): no lease state survived the crash,
            // so wait out one full server-side lease period before
            // granting anything. Every lease that might have been live at
            // the crash expires on its holder's clock within τ(1+ε) of
            // the crash — and the crash predates our startup.
            server.recovering = true;
            let grace = Duration::from_nanos(cfg.lease.server_timeout().0);
            server.timers.arm(grace, TimerEv::RecoveryDone);
        }
        let obs = registry.map(|r| ReactorObs {
            wakeups: r.counter_def(&names::NET_REACTOR_WAKEUPS),
            datagrams_per_wakeup: r.histogram_def(&names::NET_REACTOR_DATAGRAMS_PER_WAKEUP),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let join = std::thread::spawn(move || server.run(&sock, obs, &stop2));
        Ok(ServerHandle {
            addr: bound,
            join,
            stop,
        })
    }

    fn node_of(&mut self, addr: SocketAddr) -> NodeId {
        if let Some(&id) = self.ids.get(&addr) {
            return id;
        }
        let id = NodeId(self.next_id);
        self.next_id += 1;
        self.ids.insert(addr, id);
        self.addrs.insert(id, addr);
        id
    }

    /// Queue a message for transmission at the next [`Self::flush`].
    fn send(&mut self, addr: SocketAddr, msg: &NetMsg) {
        self.outbox.push((addr, msg.encoded()));
    }

    /// Transmit everything queued, in order, keeping the buffer.
    fn flush(&mut self, sock: &FaultySocket) {
        if !self.outbox.is_empty() {
            sock.send_all(&self.outbox);
            self.outbox.clear();
        }
    }

    /// Queue `resp` for `addr`: the one place a response is put on the
    /// wire, fresh or replayed. An ACK renews its addressee's lease, so any
    /// lease wait against the addressee restarts at this wakeup's clock
    /// reading.
    fn send_response(&mut self, addr: SocketAddr, resp: &Response) {
        if resp.is_ack() {
            self.locks.acked(resp.dst, self.now);
        }
        self.outbox.push((addr, response_datagram(resp)));
    }

    fn respond(
        &mut self,
        addr: SocketAddr,
        client: NodeId,
        session: SessionId,
        seq: ReqSeq,
        outcome: ResponseOutcome,
    ) {
        let resp = Response {
            dst: client,
            session,
            seq,
            incarnation: self.incarnation,
            outcome,
        };
        self.send_response(addr, &resp);
        if resp.is_ack() {
            self.sessions.record_response(client, seq, resp);
        } else {
            self.stats.nacks += 1;
        }
    }

    fn on_timer(&mut self, ev: TimerEv) {
        match ev {
            TimerEv::Ladder(timer) => {
                if let Some((client, since)) = self.locks.timer_fired(timer) {
                    self.delivery_error(client, since);
                }
                self.apply_locks();
            }
            TimerEv::LeaseExpiry(client) => {
                if self.authority.on_timer(client, self.now) {
                    // No SAN sits behind this server, so fencing is a
                    // no-op and the steal happens directly.
                    self.stats.steals += 1;
                    let stolen = self
                        .locks
                        .drop_client(client, true, &self.sessions, self.now);
                    self.stats.locks_stolen += stolen as u64;
                    self.apply_locks();
                }
            }
            TimerEv::RecoveryDone => {
                self.recovering = false;
            }
        }
    }

    /// `client` went unanswered through the demand ladder and has not been
    /// ACKed since `since`: its lease wait began there, not now.
    fn delivery_error(&mut self, client: NodeId, since: LocalNs) {
        self.stats.delivery_errors += 1;
        if let Some(fires_at) = self.authority.on_delivery_error(client, since) {
            let delay = Duration::from_nanos(fires_at.minus(self.now).0);
            self.timers.arm(delay, TimerEv::LeaseExpiry(client));
        }
    }

    /// Carry out, in order, what the lock service asked for.
    fn apply_locks(&mut self) {
        while let Some(effect) = self.locks.next_effect() {
            match effect {
                LockEffect::Arm(after, timer) => {
                    self.timers
                        .arm(Duration::from_nanos(after.0), TimerEv::Ladder(timer));
                }
                LockEffect::Push { push, .. } => {
                    self.stats.pushes_sent += 1;
                    if let Some(&addr) = self.addrs.get(&push.dst) {
                        self.send(addr, &NetMsg::Ctl(CtlMsg::Push(push)));
                    }
                }
                LockEffect::Granted(g) | LockEffect::Held(g) => {
                    let (Some((session, seq)), Some(&addr)) =
                        (g.answers, self.addrs.get(&g.client))
                    else {
                        continue;
                    };
                    // The gate on the way out: this acquire was admitted
                    // while its sender stood `Good`, but it waited, and a
                    // delivery error against the sender may have come
                    // first. An ACK now would renew a lease from the
                    // acquire's first send — possibly later than the ACK
                    // the running timer counts from.
                    if let Some(reason) = self.authority.standing_of(g.client).refusal() {
                        let outcome = ResponseOutcome::Nacked(reason);
                        self.respond(addr, g.client, session, seq, outcome);
                        continue;
                    }
                    let (blocks, size) = self.meta.file_extent(g.ino).unwrap_or_default();
                    let reply = ReplyBody::LockGranted {
                        ino: g.ino,
                        mode: g.mode,
                        epoch: g.epoch,
                        blocks,
                        size,
                    };
                    let outcome = ResponseOutcome::Acked(Ok(reply));
                    self.respond(addr, g.client, session, seq, outcome);
                }
                // Nothing consumes an event log here.
                LockEffect::Event(_) => {}
            }
        }
    }

    fn on_request(&mut self, addr: SocketAddr, req: Request) {
        let client = self.node_of(addr);
        // The recovery gate comes first: while the grace window is open
        // nothing may be granted or mutated, no matter how fresh the
        // session looks. The NACK does not condemn the client's cache —
        // it means "retry after a delay".
        if self.recovering && req.body.needs_full_service() {
            self.stats.recovery_nacks += 1;
            return self.respond(
                addr,
                client,
                req.session,
                req.seq,
                ResponseOutcome::Nacked(NackReason::Recovering),
            );
        }
        // §3.3: a suspect client gets NACKs, an expired one gets NACKs for
        // everything but Hello.
        let hello = matches!(req.body, RequestBody::Hello { .. });
        match self.authority.standing_of(client).refusal() {
            None => {}
            Some(NackReason::SessionExpired) if hello => {}
            Some(reason) => {
                let outcome = ResponseOutcome::Nacked(reason);
                return self.respond(addr, client, req.session, req.seq, outcome);
            }
        }
        if hello {
            // Hello sits outside the session dedup window; duplicates
            // are suppressed by (client, seq) so a replayed datagram
            // cannot mint a second session and orphan the first.
            if let Some(resp) = self.sessions.hello_replay(client, req.seq) {
                self.stats.replays += 1;
                self.send_response(addr, &resp);
                return;
            }
            self.stats.requests += 1;
            self.locks
                .drop_client(client, false, &self.sessions, self.now);
            self.apply_locks();
            self.authority.on_new_session(client);
            let session = self.sessions.begin(client);
            let resp = Response {
                dst: client,
                session,
                seq: req.seq,
                incarnation: self.incarnation,
                outcome: ResponseOutcome::Acked(Ok(ReplyBody::HelloOk {
                    session,
                    map_epoch: 0,
                })),
            };
            self.send_response(addr, &resp);
            self.sessions.record_hello(client, req.seq, resp);
            return;
        }
        match self.sessions.admit(client, req.session, req.seq) {
            Admission::Execute => {
                self.stats.requests += 1;
                self.execute(addr, client, req);
            }
            Admission::Replay(resp) => {
                self.stats.replays += 1;
                self.send_response(addr, &resp);
            }
            Admission::InProgress => {}
            Admission::WrongSession => {
                self.respond(
                    addr,
                    client,
                    req.session,
                    req.seq,
                    ResponseOutcome::Nacked(NackReason::StaleSession),
                );
            }
        }
    }

    fn execute(&mut self, addr: SocketAddr, client: NodeId, req: Request) {
        let session = req.session;
        let seq = req.seq;
        match req.body {
            RequestBody::Hello { .. } => unreachable!(),
            RequestBody::LockAcquire { ino, mode } => {
                if let Err(e) = self.meta.getattr(ino) {
                    let outcome = ResponseOutcome::Acked(Err(e.into()));
                    return self.respond(addr, client, session, seq, outcome);
                }
                let answers = (session, seq);
                self.locks
                    .acquire(client, ino, mode, answers, &self.sessions, self.now);
                self.apply_locks();
            }
            RequestBody::Batch(elems) => {
                self.do_batch(addr, client, session, seq, elems);
            }
            body => {
                let result = self.execute_sync(client, body);
                self.respond(addr, client, session, seq, ResponseOutcome::Acked(result));
            }
        }
    }

    /// Vectored batch execution under the one batch rule
    /// ([`RequestBody::run_batch`]), answered with one ACK carrying
    /// per-element outcomes. Wall-clock execution time lands in
    /// `server.batch.exec_ns` when observed.
    fn do_batch(
        &mut self,
        addr: SocketAddr,
        client: NodeId,
        session: SessionId,
        seq: ReqSeq,
        elems: Vec<RequestBody>,
    ) {
        let t0 = self.batch_exec_ns.is_some().then(Instant::now);
        let reply = RequestBody::run_batch(elems, |body| self.execute_sync(client, body));
        if let (Some(h), Some(t0)) = (&self.batch_exec_ns, t0) {
            h.observe(t0.elapsed().as_nanos() as u64);
        }
        self.respond(
            addr,
            client,
            session,
            seq,
            ResponseOutcome::Acked(Ok(reply)),
        );
    }

    /// Execute one synchronously-answerable body: session traffic is
    /// answered here, a metadata request passes this server's admission
    /// check and is then executed by the one mutation table
    /// ([`MetaStore::execute`]), stamped with this wakeup's clock reading.
    /// The redo record it returns is dropped: this server's metadata is
    /// RAM-only (DESIGN.md §15, row 2). `LockAcquire` (which may queue and
    /// answer later) and session shapes come back `Invalid` from the
    /// store; [`Self::execute`] routes them first, and batches exclude them.
    fn execute_sync(&mut self, client: NodeId, body: RequestBody) -> Result<ReplyBody, FsError> {
        match body {
            RequestBody::KeepAlive => Ok(ReplyBody::Ok),
            RequestBody::LockRelease { ino, epoch } => {
                self.locks
                    .release(client, ino, epoch, &self.sessions, self.now);
                self.apply_locks();
                Ok(ReplyBody::Ok)
            }
            RequestBody::PushAck { push_seq } => {
                self.locks.push_ack(client, push_seq);
                self.apply_locks();
                Ok(ReplyBody::Ok)
            }
            body => {
                self.admit(client, &body)?;
                let (reply, _unlogged) = self.meta.execute(body, self.now.0)?;
                Ok(reply)
            }
        }
    }

    /// What this server refuses before the metadata store sees it: the
    /// lock rules a mutation must satisfy (DESIGN.md §15, row 1 — no rule
    /// for `SetAttr`, so an unlocked truncation goes through).
    fn admit(&mut self, client: NodeId, body: &RequestBody) -> Result<(), FsError> {
        let locks = self.locks.table();
        match body {
            RequestBody::Unlink { parent, name } => match self.meta.lookup(*parent, name) {
                Ok((ino, _)) if locks.is_contended(ino) => Err(FsError::Unavailable),
                _ => Ok(()),
            },
            RequestBody::AllocBlocks { ino, .. } | RequestBody::CommitWrite { ino, .. } => {
                if locks.holds(client, *ino, LockMode::Exclusive) {
                    Ok(())
                } else {
                    Err(FsError::NotLocked)
                }
            }
            RequestBody::Hello { .. }
            | RequestBody::KeepAlive
            | RequestBody::Create { .. }
            | RequestBody::Lookup { .. }
            | RequestBody::Mkdir { .. }
            | RequestBody::ReadDir { .. }
            | RequestBody::GetAttr { .. }
            | RequestBody::SetAttr { .. }
            | RequestBody::LockAcquire { .. }
            | RequestBody::LockRelease { .. }
            | RequestBody::PushAck { .. }
            | RequestBody::RenameLink { .. }
            | RequestBody::RenameUnlink { .. }
            | RequestBody::Batch(_) => Ok(()),
        }
    }
}

impl LeaseServer {
    /// The reactor loop, run to completion on this thread: fire due
    /// timers, wait for readiness bounded by the next deadline, drain up
    /// to [`MAX_BATCH`] datagrams, execute them in arrival order, and flush
    /// the replies a `sendmmsg` vector at a time (so usually all in one
    /// go). Due timers are looked at once per drain, so
    /// a socket that is never empty delays them by one batch at most.
    /// Returns the final counters once the stop flag is seen — by then
    /// everything drained has been executed and answered.
    fn run(
        mut self,
        sock: &FaultySocket,
        obs: Option<ReactorObs>,
        stop: &AtomicBool,
    ) -> ServerStats {
        let mut poller = match Poller::new() {
            Ok(mut p) => match p.register(sock, 0) {
                Ok(()) => p,
                Err(_) => sleeper_poller(),
            },
            Err(_) => sleeper_poller(),
        };
        let mut scratch = recv_scratch();
        let mut batch = WakeupBatch::new();
        let mut requests: Vec<(SocketAddr, Request)> = Vec::new();
        loop {
            let now = Instant::now();
            self.now = mono_now();
            while let Some(ev) = self.timers.pop_due(now) {
                self.on_timer(ev);
            }
            self.flush(sock);
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let wait = self
                .timers
                .next_deadline()
                .map(|at| at.saturating_duration_since(now))
                .unwrap_or(MAX_POLL)
                .clamp(MIN_POLL, MAX_POLL);
            let ready = match poller.wait(wait) {
                Ok(tokens) => !tokens.is_empty(),
                Err(_) => false,
            };
            let mut drained = 0;
            if ready {
                drained = drain_ready(sock, &mut scratch, &mut batch, MAX_BATCH);
                // After the drain, never before it: see the field.
                self.now = mono_now();
                decode_batch(&batch, &mut requests);
                for (peer, req) in requests.drain(..) {
                    self.on_request(peer, req);
                    if self.outbox.len() >= FLUSH_AT {
                        self.flush(sock);
                    }
                }
                self.flush(sock);
            }
            poller.note_progress(drained > 0);
            if let Some(o) = &obs {
                o.wakeups.inc();
                o.datagrams_per_wakeup.observe(drained as u64);
            }
        }
        self.stats
    }
}

/// The portable fallback with the server socket's token registered.
fn sleeper_poller() -> Poller {
    let mut p = Poller::sleeper();
    p.register_token(0);
    p
}
