//! The UDP lease/lock/metadata server: one run-to-completion thread.
//!
//! The reactor thread owns the protocol state outright: a
//! [`ServerCore`], the request path the simulator's server runs too. It
//! waits for socket readiness ([`crate::poll`]) with its timeout bounded
//! by the earliest pending protocol timer, fires what is due, drains
//! every ready datagram into an arena batch ([`crate::reactor`]), hands
//! the batch to the core in arrival order, and flushes every reply the
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
use tank_core::LeaseConfig;
use tank_meta::MetaStore;
use tank_obs::{names, Counter, Histogram, Registry};
use tank_proto::message::{FsError, RequestBody};
use tank_proto::wire::response_datagram;
use tank_proto::{CtlMsg, Incarnation, LockMode, NetMsg, NodeId, Request, WireEncode};
use tank_server::lock::LockManager;
use tank_server::{DemandLadder, Effect, LadderTimer, ServerConfig, ServerCore, ServerStats};
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
    /// Start in the recovery grace window: refuse what reads the lock
    /// table (lock grants and the mutations admitted against it) for
    /// `τ(1+ε)` after startup, so every lease that might have been
    /// outstanding at the crash has expired on its holder's own clock
    /// (and that holder has quiesced) before any conflicting grant can be
    /// issued. Creates, reads and session traffic are served at once.
    /// Set this whenever the bind address may have served an earlier
    /// incarnation.
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
    /// The request path, shared with the simulator's `ServerNode`.
    core: ServerCore,
    /// addr ⟷ node id mapping (ids assigned on first contact, from 1:
    /// node `n`'s address is `addrs[n - 1]`).
    ids: HashMap<SocketAddr, NodeId>,
    addrs: Vec<SocketAddr>,
    timers: TimerQueue<TimerEv>,
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
        // One shard of the single-shard map: every inode is governed
        // here, so the routing gates pass everything but a Hello from
        // another map epoch.
        let shard = ServerConfig {
            lease: cfg.lease,
            ladder: cfg.ladder,
            ..ServerConfig::default()
        };
        let mut core = ServerCore::new(&shard, 1 << 16, 4096);
        core.incarnation = Incarnation(cfg.incarnation);
        let mut server = LeaseServer {
            core,
            ids: HashMap::new(),
            addrs: Vec::new(),
            timers: TimerQueue::new(),
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
            server.core.recovering = true;
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
        self.addrs.push(addr);
        let id = NodeId(self.addrs.len() as u32);
        self.ids.insert(addr, id);
        id
    }

    /// Transmit everything queued, in order, keeping the buffer.
    fn flush(&mut self, sock: &FaultySocket) {
        if !self.outbox.is_empty() {
            sock.send_all(&self.outbox);
            self.outbox.clear();
        }
    }

    fn on_request(&mut self, addr: SocketAddr, req: Request) {
        let client = self.node_of(addr);
        let batch = matches!(req.body, RequestBody::Batch(_));
        let t0 = (batch && self.batch_exec_ns.is_some()).then(Instant::now);
        self.core.on_request(client, req, self.now, admit);
        if let (Some(h), Some(t0)) = (&self.batch_exec_ns, t0) {
            h.observe(t0.elapsed().as_nanos() as u64);
        }
        self.drain();
    }

    fn on_timer(&mut self, ev: TimerEv) {
        match ev {
            TimerEv::Ladder(timer) => {
                // `client` went unanswered through the demand ladder and
                // has not been ACKed since `since`: its lease wait began
                // there, not now.
                if let Some((client, since)) = self.core.ladder_fired(timer, self.now) {
                    if let Some(fires_at) = self.core.authority.on_delivery_error(client, since) {
                        let delay = Duration::from_nanos(fires_at.minus(self.now).0);
                        self.timers.arm(delay, TimerEv::LeaseExpiry(client));
                    }
                }
            }
            TimerEv::LeaseExpiry(client) => {
                if self.core.authority.on_timer(client, self.now) {
                    // No SAN sits behind this server, so fencing is a
                    // no-op and the steal happens directly.
                    self.core.steal(client, self.now);
                }
            }
            TimerEv::RecoveryDone => self.core.recovering = false,
        }
        self.drain();
    }

    /// Carry out, in order, what the core decided: the one place a
    /// response is put on the wire, fresh or replayed.
    fn drain(&mut self) {
        while let Some(effect) = self.core.next_effect() {
            match effect {
                Effect::Respond(resp) => {
                    if let Some(&addr) = self.addrs.get(index_of(resp.dst)) {
                        self.outbox.push((addr, response_datagram(resp)));
                    }
                }
                Effect::Push { push, .. } => {
                    if let Some(&addr) = self.addrs.get(index_of(push.dst)) {
                        let msg = NetMsg::Ctl(CtlMsg::Push(push));
                        self.outbox.push((addr, msg.encoded()));
                    }
                }
                Effect::Arm(after, timer) => {
                    let after = Duration::from_nanos(after.0);
                    self.timers.arm(after, TimerEv::Ladder(timer));
                }
                // Metadata is RAM-only here (DESIGN.md §15, row 2), and
                // nothing consumes an event log.
                Effect::Log(_) | Effect::Event(_) => {}
            }
        }
    }

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
        self.core.stats
    }
}

/// The portable fallback with the server socket's token registered.
fn sleeper_poller() -> Poller {
    let mut p = Poller::sleeper();
    p.register_token(0);
    p
}

/// Where node `id`'s address sits in `LeaseServer::addrs`.
fn index_of(id: NodeId) -> usize {
    (id.0 as usize).wrapping_sub(1)
}

/// What this server refuses before the metadata store sees it: the lock
/// rules a mutation must satisfy (DESIGN.md §15, row 1 — no rule for
/// `SetAttr`, so an unlocked truncation goes through). Public so the
/// recovery gate's contract can be checked against it: what the grace
/// window serves, this answers the same whatever the lock table holds.
pub fn admit(
    locks: &LockManager,
    meta: &mut MetaStore,
    client: NodeId,
    body: &RequestBody,
) -> Result<(), FsError> {
    match body {
        RequestBody::Unlink { parent, name } => match meta.lookup(*parent, name) {
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
