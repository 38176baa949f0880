//! The UDP lease/lock/metadata server: [`ServerCore`], the request path
//! the simulator's server runs too, as an [`Actor`] on the [`Host`]. A
//! request datagram is one `on_request`, a fired timer one `timer_fired`;
//! the core arms and decides every timer (push retries, release waits,
//! lease expiries, the recovery window), and this driver only sends,
//! sets timers and steals — there is no SAN to fence. Observed, it hands
//! every effect and steal to the simulator server's own [`ServerObs`]
//! fold. DESIGN.md §15 walks the architecture.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use tank_core::LeaseConfig;
use tank_meta::MetaStore;
use tank_obs::{names, Histogram, Registry};
use tank_proto::message::{FsError, RequestBody};
use tank_proto::{CtlMsg, Event, Incarnation, NetMsg, NodeCtx, NodeId};
use tank_server::lock::LockManager;
use tank_server::{
    CoreTimer, DemandLadder, Effect, ServerConfig, ServerCore, ServerObs, ServerStats,
};
use tank_sim::{Actor, NetId, TokenMap};

use crate::fault::{FaultConfig, FaultySocket};
use crate::host::{Host, HostObs};

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

/// `tankd`'s node: the request path, its timers and its instruments.
/// Requests and timers run against it one at a time, to completion.
pub struct LeaseServer {
    /// The request path, shared with the simulator's `ServerNode`.
    core: ServerCore,
    timers: TokenMap<CoreTimer>,
    /// Wall-clock vectored-batch execution histogram (when observed).
    batch_exec_ns: Option<Arc<Histogram>>,
    /// The `server.*` fold `ServerNode` runs too (when observed).
    obs: Option<ServerObs>,
}

/// Handle returned by [`LeaseServer::spawn`].
pub struct ServerHandle {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    host: Host<LeaseServer>,
}

impl ServerHandle {
    /// Stop the server and return its final counters. Panics if the
    /// server's thread did: a dead reactor has no counters to report.
    pub fn stop(mut self) -> ServerStats {
        self.host.stop();
        self.host.inspect(|s, _| s.core.stats)
    }
}

impl LeaseServer {
    /// Bind `addr` and run the server on its own reactor thread.
    pub fn spawn(addr: &str, cfg: NetServerConfig) -> std::io::Result<ServerHandle> {
        Self::spawn_observed(addr, cfg, None)
    }

    /// [`spawn`](Self::spawn) with an observability registry: records the
    /// `server.*` set the simulator's server records (less its log,
    /// fences, election and recovery), the `server.batch.exec_ns`
    /// execution histogram, the `net.reactor.*` loop instruments and
    /// `net.server.decode_errors`.
    pub fn spawn_observed(
        addr: &str,
        cfg: NetServerConfig,
        registry: Option<&Arc<Registry>>,
    ) -> std::io::Result<ServerHandle> {
        let sock = FaultySocket::bind(addr, cfg.faults)?;
        let bound = sock.local_addr()?;
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
        if cfg.recover {
            // Its timer is set when `on_start` drains.
            core.begin_recovery();
        }
        let server = LeaseServer {
            core,
            timers: TokenMap::new(),
            batch_exec_ns: registry.map(|r| r.histogram_def(&names::SERVER_BATCH_EXEC_NS)),
            obs: registry.map(|r| ServerObs::new(r.clone())),
        };
        let obs = HostObs {
            wakeups: registry.map(|r| r.counter_def(&names::NET_REACTOR_WAKEUPS)),
            datagrams_per_wakeup: registry
                .map(|r| r.histogram_def(&names::NET_REACTOR_DATAGRAMS_PER_WAKEUP)),
            decode_errors: registry.map(|r| r.counter_def(&names::NET_SERVER_DECODE_ERRORS)),
        };
        // No static peers: clients are numbered from 1 on first contact.
        let host = Host::spawn(server, sock, Vec::new(), None, cfg.faults.seed, obs)?;
        Ok(ServerHandle { addr: bound, host })
    }

    /// Carry out, in order, what the core decided: the one place a
    /// response is put on the wire, fresh or replayed. The fold counts
    /// and traces each effect first.
    fn drain(&mut self, ctx: &mut NodeCtx<'_>) {
        while let Some(effect) = self.core.next_effect() {
            if let Some(obs) = &mut self.obs {
                obs.on_effect(&effect, &self.core, ctx);
            }
            match effect {
                Effect::Respond(resp) => {
                    let dst = resp.dst;
                    ctx.send(NetId::CONTROL, dst, NetMsg::Ctl(CtlMsg::Response(resp)));
                }
                Effect::Push { push, .. } => {
                    ctx.send(NetId::CONTROL, push.dst, NetMsg::Ctl(CtlMsg::Push(push)));
                }
                Effect::Arm(after, timer) => {
                    let token = self.timers.insert(timer);
                    ctx.set_timer(after, token);
                }
                // No SAN sits behind this server, so fencing is a no-op
                // and the steal happens directly (DESIGN.md §15, row 3).
                Effect::Steal(client) | Effect::Fence(client) => {
                    let stolen = self.core.steal(client, ctx.now());
                    if let Some(obs) = &self.obs {
                        obs.stolen(client, stolen, ctx);
                    }
                }
                // Metadata is RAM-only here (DESIGN.md §15, row 2). An
                // event is only counted, by the fold above.
                Effect::Log(_) | Effect::Event(_) => {}
            }
        }
    }
}

impl Actor<NetMsg, Event> for LeaseServer {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.drain(ctx);
    }

    fn on_message(&mut self, from: NodeId, _net: NetId, msg: NetMsg, ctx: &mut NodeCtx<'_>) {
        // Responses, pushes and SAN or replication traffic address other
        // nodes: a server drops them.
        let NetMsg::Ctl(CtlMsg::Request(req)) = msg else {
            return;
        };
        let batch = matches!(req.body, RequestBody::Batch(_));
        let t0 = (batch && self.batch_exec_ns.is_some()).then(Instant::now);
        self.core.on_request(from, req, ctx.now(), admit);
        if let (Some(h), Some(t0)) = (&self.batch_exec_ns, t0) {
            h.observe(t0.elapsed().as_nanos() as u64);
        }
        self.drain(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx<'_>) {
        if let Some(timer) = self.timers.take(token) {
            self.core.timer_fired(timer, ctx.now());
            self.drain(ctx);
        }
    }
}

/// What this server refuses before the metadata store sees it:
/// [`tank_server::node::admit`], but an unlocked `SetAttr` goes through
/// (DESIGN.md §15, row 1). Public so the recovery gate's contract can be
/// checked against it.
pub fn admit(
    locks: &LockManager,
    meta: &mut MetaStore,
    client: NodeId,
    body: &RequestBody,
) -> Result<(), FsError> {
    match body {
        RequestBody::SetAttr { .. } => Ok(()),
        other => tank_server::node::admit(locks, meta, client, other),
    }
}
