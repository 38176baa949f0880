//! The Storage Tank server actor: the simulator's driver of the one
//! request path.
//!
//! Every client request is answered by the node's [`ServerCore`] — gates,
//! Hello, session window, dispatch and grant answers — and every lease
//! timer is armed and decided there: the demand ladder, the lease expiry
//! the [`RecoveryPolicy`](crate::RecoveryPolicy) starts, `harden_grace`
//! and the recovery window. The node carries out what the core decides
//! (the log append, the group commit before every response, sends,
//! timers, counters, traces and events) and keeps what only a server with
//! disks, a log and a peer has: fencing before a steal (§6), WAL recovery,
//! and the shipments, beats and promotion its [`RoleCore`] decides. A
//! standby NACKs every request before the core sees it. The node is an
//! `Actor<NetMsg, Event>`: its handlers take a [`NodeCtx`] and report
//! each [`Event`] to it directly.

use std::sync::Arc;

use tank_core::LeaseAuthority;
use tank_meta::{snapshot, DurableStore, MetaStore, WalRecord, WalStats, Watermarks};
use tank_obs::Registry;
use tank_proto::message::{FsError, ReplyBody, RequestBody};
use tank_proto::{
    BlockRange, CtlMsg, Event, FenceOp, Incarnation, Ino, LockMode, NackReason, NetMsg, NodeCtx,
    NodeId, Request, Response, RouteError, SanMsg,
};
use tank_sim::{Actor, NetId, TokenMap};

use crate::config::ServerConfig;
use crate::fence::FenceController;
use crate::lock::LockManager;
use crate::obs::ServerObs;
use crate::request::{CoreTimer, Effect, ServerCore, ServerStats};
use crate::role::{RoleCore, RoleEffect};

/// Timer tokens: one the core armed, or the role core's beat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServerTimer {
    Core(CoreTimer),
    Role,
}

/// The server node.
pub struct ServerNode {
    cfg: ServerConfig,
    /// The request path: store, locks, leases, sessions, the incarnation
    /// (bumped on every fail-stop restart) and the counters.
    core: ServerCore,
    fences: FenceController,
    timers: TokenMap<ServerTimer>,
    obs: Option<ServerObs>,
    /// The slice of the shared disks this shard governs: the only range it
    /// allocates from, and the only range its fence commands cover — a
    /// shard must never fence another shard's traffic (§6, sharded).
    fence_range: BlockRange,
    /// The private durable device: snapshot + write-ahead log. Every
    /// metadata mutation is appended here and group-commit-fsynced before
    /// the acknowledgment that reports it leaves the node.
    wal: DurableStore,
    /// Store geometry, kept so recovery can rebuild a fresh sharded store
    /// when no snapshot exists yet.
    total_blocks: u64,
    block_size: usize,
    /// Primary, standby or alone: shipping, heartbeats and the election.
    role: RoleCore,
    /// Canonical state image captured at the last recovery/promotion
    /// (tests compare it byte-for-byte against the pre-crash primary).
    last_replay_image: Option<Vec<u8>>,
}

impl ServerNode {
    /// New server with a fresh metadata store over `total_blocks` blocks.
    pub fn new(cfg: ServerConfig, total_blocks: u64, block_size: usize) -> Self {
        let fence_range = cfg.map.block_range(cfg.sid, total_blocks);
        let wal = DurableStore::new(cfg.compact_threshold);
        ServerNode {
            core: ServerCore::new(&cfg, total_blocks, block_size),
            role: RoleCore::new(cfg.lease.server_timeout()),
            cfg,
            fences: FenceController::new(),
            timers: TokenMap::new(),
            obs: None,
            fence_range,
            wal,
            total_blocks,
            block_size,
            last_replay_image: None,
        }
    }

    /// Attach an observability registry: grant/NACK/steal counters, the
    /// condemnation-latency histogram, and structured trace events.
    pub fn set_obs(&mut self, registry: Arc<Registry>) {
        self.obs = Some(ServerObs::new(registry));
    }

    /// Operation counters.
    pub fn stats(&self) -> ServerStats {
        self.core.stats
    }

    /// The lease authority (accounting access for the experiments).
    pub fn authority(&self) -> &LeaseAuthority {
        self.core.authority()
    }

    /// Responses held in the session replay caches: the at-most-once
    /// delivery state, which is not lease state.
    pub fn replay_entries(&self) -> usize {
        self.core.sessions.replay_entries()
    }

    /// The metadata store (harvest access).
    pub fn meta(&self) -> &MetaStore {
        &self.core.meta
    }

    /// The lock manager (harvest access).
    pub fn locks(&self) -> &LockManager {
        self.core.locks.table()
    }

    /// Root inode convenience.
    pub fn root_ino(&self) -> Ino {
        self.core.meta.root()
    }

    /// The current server incarnation.
    pub fn incarnation(&self) -> Incarnation {
        self.core.incarnation
    }

    /// True while this node is a warm standby (not yet elected).
    pub fn is_standby(&self) -> bool {
        self.role.is_standby()
    }

    /// Wire this node into a replication pair (harness setup, before the
    /// world starts): as the warm standby of `peer`, which NACKs every
    /// client `Misrouted(NotPrimary)` until elected, or as the primary
    /// that ships its durable log to `peer` ([`RoleCore`]).
    pub fn set_replication(&mut self, peer: NodeId, standby: bool) {
        self.role.wire(peer, standby);
    }

    /// The durable device (read access for durability audits).
    pub fn wal(&self) -> &DurableStore {
        &self.wal
    }

    /// Durable-log statistics (appends / fsyncs / compactions).
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Canonical byte image of the current namespace + allocator state
    /// (watermark-free), for byte-identical comparison in tests.
    pub fn namespace_image(&self) -> Vec<u8> {
        snapshot::encode(&self.core.meta, &Watermarks::default())
    }

    /// The namespace image captured at the last recovery or promotion.
    pub fn last_replay_image(&self) -> Option<&[u8]> {
        self.last_replay_image.as_deref()
    }

    /// Pre-create a file with `blocks` allocated blocks and a committed
    /// size covering them (harness setup; not a protocol path). Returns
    /// its inode.
    pub fn precreate_file(&mut self, name: &str, blocks: u32) -> Ino {
        let parent = self.root_ino();
        let name = name.to_owned();
        let ReplyBody::Created { ino } = self.precreate(RequestBody::Create { parent, name })
        else {
            unreachable!("create answers Created");
        };
        if blocks > 0 {
            self.precreate(RequestBody::AllocBlocks { ino, count: blocks });
            let new_size = blocks as u64 * self.core.meta.block_size() as u64;
            self.precreate(RequestBody::CommitWrite { ino, new_size });
        }
        self.wal.fsync();
        ino
    }

    /// One setup transaction at time zero: executed and logged like a
    /// request, with no admission check in front of it.
    fn precreate(&mut self, body: RequestBody) -> ReplyBody {
        let (reply, rec) = self.core.meta.execute(body, 0).expect("precreate");
        self.wal.append(&rec.expect("a mutation logs"));
        reply
    }

    // --------------------------------------------------------- durability

    /// Append one redo record to the (volatile) log tail. Durability comes
    /// from the group-commit fsync at the next acknowledgment point.
    fn wal_append(&mut self, rec: &WalRecord) {
        self.wal.append(rec);
        if let Some(obs) = &self.obs {
            obs.wal_appends.inc();
        }
    }

    /// Push the log tail to the durable device (no-op when nothing is
    /// pending; the fsync counter and the [`Event::WalSynced`]
    /// event only move when the watermark does).
    fn wal_fsync(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.wal.fsync() {
            if let Some(obs) = &self.obs {
                obs.wal_fsyncs.inc();
            }
            let durable = self.wal.durable_len() as u64;
            ctx.observe(Event::WalSynced { durable });
        }
    }

    /// The watermarks a snapshot must carry so recovery restores counters
    /// monotonically past everything this incarnation issued.
    fn watermarks(&self) -> Watermarks {
        Watermarks {
            session: self.core.sessions.watermark(),
            epoch: self.core.locks.table().epoch_watermark(),
            incarnation: self.core.incarnation.0,
        }
    }

    /// Group commit: fsync the log tail, fold it into a snapshot when it
    /// outgrows the threshold, and ship new durable bytes to the warm
    /// standby. Called at every acknowledgment point — no response leaves
    /// this node before the records that justify it are durable and
    /// shipped. The core runs a request to completion before any of its
    /// effects are carried out, so mid-drain the store can be ahead of the
    /// log: a snapshot of it is folded in only once no record is still
    /// queued behind it.
    fn wal_sync_and_ship(&mut self, ctx: &mut NodeCtx<'_>) {
        self.wal_fsync(ctx);
        if self.wal.needs_compaction() && !self.core.logs_queued() {
            let wm = self.watermarks();
            let bytes = snapshot::encode(&self.core.meta, &wm);
            self.wal.install_snapshot(bytes);
            if let Some(obs) = &self.obs {
                obs.snapshot_compactions.inc();
            }
        }
        self.role.shipped(&self.wal);
        self.run_role(ctx);
    }

    // ------------------------------------------------------------ effects

    /// Carry out, in order, what the core decided; the fold counts and
    /// traces each effect first.
    fn drain(&mut self, ctx: &mut NodeCtx<'_>) {
        while let Some(effect) = self.core.next_effect() {
            if let Some(obs) = &mut self.obs {
                obs.on_effect(&effect, &self.core, ctx);
            }
            match effect {
                Effect::Respond(resp) => self.send_response(resp, ctx),
                Effect::Push { push, .. } => {
                    ctx.send(NetId::CONTROL, push.dst, NetMsg::Ctl(CtlMsg::Push(push)));
                }
                Effect::Arm(after, timer) => {
                    let token = self.timers.insert(ServerTimer::Core(timer));
                    ctx.set_timer(after, token);
                }
                Effect::Log(rec) => self.wal_append(&rec),
                Effect::Event(ev) => {
                    // A fresh session lifts the fence its client may be
                    // behind.
                    if let Event::NewSession { client } = ev {
                        if self.fences.is_fenced(client) {
                            self.fence_cmd(client, FenceOp::Unfence, ctx);
                        }
                    }
                    ctx.observe(ev);
                }
                Effect::Fence(client) => self.begin_fence(client, ctx),
                Effect::Steal(client) => self.steal(client, ctx),
            }
        }
    }

    /// The one place a response meets the wire, fresh or replayed.
    fn send_response(&mut self, resp: Response, ctx: &mut NodeCtx<'_>) {
        // Write-ahead discipline: everything this response reports must be
        // durable before the response exists on the wire. (A replayed
        // response was synced when first produced; nothing is pending.)
        self.wal_sync_and_ship(ctx);
        let dst = resp.dst;
        ctx.send(NetId::CONTROL, dst, NetMsg::Ctl(CtlMsg::Response(resp)));
    }

    // ----------------------------------------------------------- recovery

    fn begin_fence(&mut self, client: NodeId, ctx: &mut NodeCtx<'_>) {
        if !self.fence_cmd(client, FenceOp::Fence, ctx) {
            // No disks configured: fence is trivially in force.
            self.fence_complete(client, ctx);
        }
    }

    /// Send `op` against `client` to every disk over this shard's slice;
    /// false when there is no disk to send it to.
    fn fence_cmd(&mut self, client: NodeId, op: FenceOp, ctx: &mut NodeCtx<'_>) -> bool {
        let disks = self.cfg.disks.clone();
        let sends = self.fences.begin(client, op, &disks);
        let (target, range) = (client, self.fence_range);
        for &(req_id, disk) in &sends {
            let cmd = SanMsg::FenceCmd {
                req_id,
                target,
                op,
                range,
            };
            ctx.send(NetId::SAN, disk, NetMsg::San(cmd));
        }
        !sends.is_empty()
    }

    fn fence_complete(&mut self, client: NodeId, ctx: &mut NodeCtx<'_>) {
        self.core.stats.fences_completed += 1;
        if let Some(obs) = &self.obs {
            obs.fences.inc();
            obs.trace(ctx, "fence", || format!("client=n{}", client.0));
        }
        ctx.observe(Event::Fenced { client });
        self.steal(client, ctx);
    }

    /// Take `client`'s locks; the grants that unblocks are drained by the
    /// caller.
    fn steal(&mut self, client: NodeId, ctx: &mut NodeCtx<'_>) {
        let stolen = self.core.steal(client, ctx.now());
        if let Some(obs) = &self.obs {
            obs.stolen(client, stolen, ctx);
        }
    }

    fn on_san(&mut self, san: SanMsg, from: NodeId, ctx: &mut NodeCtx<'_>) {
        match san {
            SanMsg::FenceResp { req_id } => {
                if let Some((client, FenceOp::Fence)) = self.fences.on_response(req_id, from) {
                    self.fence_complete(client, ctx);
                    self.drain(ctx);
                }
            }
            other => self.unexpected(ctx, || format!("san {other:?}")),
        }
    }

    /// A message this server does not take: a protocol anomaly, counted
    /// and traced, never printed — normal runs stay silent, exporter runs
    /// see it structured.
    fn unexpected(&self, ctx: &NodeCtx<'_>, what: impl FnOnce() -> String) {
        if let Some(obs) = &self.obs {
            obs.unexpected_msgs.inc();
            obs.trace(ctx, "unexpected", what);
        }
    }

    // -------------------------------------------------------- replication

    /// Carry out, in order, what the role core decided.
    fn run_role(&mut self, ctx: &mut NodeCtx<'_>) {
        while let Some(effect) = self.role.next_effect() {
            match effect {
                RoleEffect::Send(to, msg) => ctx.send(NetId::CONTROL, to, NetMsg::Repl(msg)),
                RoleEffect::Beat(after) => {
                    let token = self.timers.insert(ServerTimer::Role);
                    ctx.set_timer(after, token);
                }
                RoleEffect::Promote => self.promote(ctx),
                RoleEffect::Unexpected(from, kind) => {
                    self.unexpected(ctx, || format!("{kind} from n{}", from.0));
                }
            }
        }
    }

    /// The role core's election: recover from the mirror as a restarted
    /// primary recovers from its own, grace window included, and serve.
    fn promote(&mut self, ctx: &mut NodeCtx<'_>) {
        self.core.stats.elections += 1;
        if let Some(obs) = &self.obs {
            obs.failover_elections.inc();
            obs.trace(ctx, "failover", || {
                "elected after replication silence".to_owned()
            });
        }
        self.recover_from_wal(ctx);
    }

    /// Rebuild *all* state from the durable device: decode the snapshot,
    /// replay the log's valid prefix, restore the session/epoch
    /// watermarks, and adopt — durably — an incarnation past every one in
    /// the log. Shared by fail-stop restart and standby promotion: the
    /// two are the same act of reconstruction, differing only in whose
    /// device the bytes came from.
    fn recover_from_wal(&mut self, ctx: &mut NodeCtx<'_>) {
        let recovered = snapshot::recover(
            &mut self.wal,
            self.cfg.map,
            self.cfg.sid,
            self.total_blocks,
            self.block_size,
        );
        self.core.meta = recovered.store;
        // The incarnation is read back from the log, never from memory: a
        // replacement process — or the standby holding a mirror — computes
        // the same successor, and it is fsynced before anything is served
        // so the *next* recovery sees it too.
        let incarnation = Incarnation(recovered.watermarks.incarnation + 1);
        // Incarnation-qualified epoch floor: the logged reservation (the
        // `EpochWatermark` a grant past the last one logs before it is
        // answered) covers every grant answered under it, but a standby's
        // mirror misses whatever the final replication deltas dropped,
        // and with them the last reservation. The watermark alone would
        // let this incarnation re-mint an epoch the old one already
        // stamped onto writes, corrupting fence ordering. Lifting the
        // counter to `incarnation << 32` (each incarnation owns a
        // disjoint 4-billion-epoch range, and incarnations strictly
        // increase) covers an incarnation's grants whatever its log
        // kept; the reservation covers one that minted past its range.
        let epoch_floor = recovered.watermarks.epoch.max(incarnation.0 << 32);
        let session_floor = recovered.watermarks.session;
        self.core.incarnation = incarnation;
        self.core.restart(session_floor, epoch_floor);
        self.wal_append(&WalRecord::Incarnation(incarnation.0));
        self.wal_fsync(ctx);
        self.last_replay_image = Some(self.namespace_image());
        if let Some(obs) = &self.obs {
            // Modeled replay cost: 1µs per record (the sim replays in zero
            // virtual time; the histogram records the modeled work).
            obs.replay_latency_ns
                .observe(recovered.replayed as u64 * 1_000);
            obs.trace(ctx, "replay", || {
                format!(
                    "records={} defect={:?} incarnation={}",
                    recovered.replayed, recovered.defect, incarnation.0
                )
            });
        }
        if self.cfg.recovery_grace {
            self.core.begin_recovery();
            self.drain(ctx);
        }
    }

    fn on_request(&mut self, from: NodeId, req: Request, ctx: &mut NodeCtx<'_>) {
        // Standby gate before everything: a warm standby owns no live
        // shard state and must not touch even the session window. The
        // redirect is not a lease judgment — the client rotates to the
        // shard's other address and retries.
        if self.role.is_standby() {
            let not_primary = NackReason::Misrouted(RouteError::NotPrimary);
            self.core.nack((from, req.session, req.seq), not_primary);
        } else {
            self.core.on_request(from, req, ctx.now(), admit);
        }
        self.drain(ctx);
    }
}

impl Actor<NetMsg, Event> for ServerNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.role.start(ctx.now()) {
            // Every response is stamped with an incarnation that recovery
            // reads back from the log — so the first incarnation must be
            // durable before anything is acknowledged.
            self.wal_append(&WalRecord::Incarnation(self.incarnation().0));
            self.wal_fsync(ctx);
        }
        self.run_role(ctx);
    }

    fn on_message(&mut self, from: NodeId, _net: NetId, msg: NetMsg, ctx: &mut NodeCtx<'_>) {
        match msg {
            NetMsg::Ctl(CtlMsg::Request(req)) => self.on_request(from, req, ctx),
            NetMsg::San(san) => self.on_san(san, from, ctx),
            NetMsg::Repl(repl) => {
                self.role.on_repl(from, repl, ctx.now(), &mut self.wal);
                self.run_role(ctx);
            }
            // Responses and pushes address clients: a routing anomaly.
            NetMsg::Ctl(other) => self.unexpected(ctx, || format!("ctl {}", other.kind())),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx<'_>) {
        match self.timers.take(token) {
            Some(ServerTimer::Core(timer)) => {
                self.core.timer_fired(timer, ctx.now());
                self.drain(ctx);
            }
            Some(ServerTimer::Role) => {
                self.role.tick(ctx.now(), &self.wal, self.core.incarnation);
                self.run_role(ctx);
            }
            None => {}
        }
    }

    /// Fail-stop: the in-memory log tail past the last fsync is lost; the
    /// durable prefix (snapshot + synced log) survives for `on_restart`.
    fn on_crash(&mut self) {
        self.wal.crash();
    }

    /// Fail-stop restart. *Everything* in memory is gone — metadata,
    /// sessions, locks, lease timers, even the incarnation counter. What
    /// survives is the private durable device: the last snapshot plus the
    /// fsynced log prefix, from which `recover_from_wal` rebuilds
    /// the store, restores the session/epoch watermarks, and computes the
    /// next incarnation from the highest one logged (stamped on every
    /// response, so surviving clients detect the restart). Because the
    /// reborn server cannot know which pre-crash leases are still valid,
    /// it refuses what reads its lock table — grants and the mutations
    /// admitted against it — for one full lease-expiry window `τ(1+ε)`:
    /// by then every pre-crash holder's own clock has expired its lease
    /// and flushed its cache (the Theorem 3.1 rate-synchronization
    /// argument, applied to recovery).
    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        self.core.stats.recoveries += 1;
        // Timers armed before the crash may still fire; invalidating the
        // tokens (while keeping the counter monotonic) makes them no-ops.
        self.timers.clear();
        if let Some(obs) = &mut self.obs {
            obs.restarted();
        }
        if self.role.start(ctx.now()) {
            self.recover_from_wal(ctx);
        } else {
            // A standby resumes mirroring; `on_crash` cut its torn tail.
            self.core.restart(0, 0);
        }
        self.run_role(ctx);
    }
}

/// What this server refuses before the metadata store sees it: the lock
/// rules a mutation must satisfy (DESIGN.md §15, row 1). Public so the
/// recovery gate's contract can be checked against it: what the grace
/// window serves, this answers the same whatever the lock table holds.
pub fn admit(
    locks: &LockManager,
    meta: &mut MetaStore,
    client: NodeId,
    body: &RequestBody,
) -> Result<(), FsError> {
    match body {
        // Unlinking a locked file would free its blocks for
        // reallocation while a holder may still flush to them —
        // block reuse corruption. Deny while contended.
        RequestBody::Unlink { parent, name } => match meta.lookup(*parent, name) {
            Ok((ino, _)) if locks.is_contended(ino) => Err(FsError::Unavailable),
            _ => Ok(()),
        },
        RequestBody::SetAttr { ino, size } => {
            // Truncation changes data visibility: it requires the
            // exclusive lock, like any other write.
            if size.is_some() && !locks.holds(client, *ino, LockMode::Exclusive) {
                Err(FsError::NotLocked)
            } else if locks.held_by_other(client, *ino) {
                // Even a touch bumps the version. A holder caches the
                // attributes under its lock (CACHING.md): while it
                // holds, nobody else may move them.
                Err(FsError::Unavailable)
            } else {
                Ok(())
            }
        }
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
        | RequestBody::LockAcquire { .. }
        | RequestBody::LockRelease { .. }
        | RequestBody::PushAck { .. }
        | RequestBody::RenameLink { .. }
        | RequestBody::RenameUnlink { .. }
        | RequestBody::Batch(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    //! The epoch reservation across crashes: a driven node, its durable
    //! log planted with a floor where a test needs one.

    use tank_core::LeaseConfig;
    use tank_meta::wal;
    use tank_proto::message::ResponseOutcome;
    use tank_proto::{Epoch, ReqSeq, SessionId};
    use tank_sim::world::Control;
    use tank_sim::{ClockSpec, LocalNs, NetParams, SimTime, World, WorldConfig};

    use super::*;
    use crate::lock::EPOCH_BLOCK;

    /// A client that opens a session, then runs closed-loop acquire and
    /// release cycles of one file, keeping every epoch it is granted.
    struct Locker {
        server: NodeId,
        ino: Ino,
        session: SessionId,
        seq: u64,
        hello: bool,
        cycles: u64,
        holding: Option<Epoch>,
        waiting: bool,
        granted: Vec<Epoch>,
    }

    impl Locker {
        fn next(&mut self, ctx: &mut NodeCtx<'_>) {
            let (session, ino) = (self.session, self.ino);
            let (session, body) = if self.hello {
                (SessionId(0), RequestBody::Hello { map_epoch: 0 })
            } else if let Some(epoch) = self.holding {
                (session, RequestBody::LockRelease { ino, epoch })
            } else if self.cycles > 0 {
                let mode = LockMode::Exclusive;
                (session, RequestBody::LockAcquire { ino, mode })
            } else {
                return;
            };
            self.seq += 1;
            let req = Request {
                src: ctx.node(),
                session,
                seq: ReqSeq(self.seq),
                body,
            };
            self.waiting = true;
            let msg = NetMsg::Ctl(CtlMsg::Request(req));
            ctx.send(NetId::CONTROL, self.server, msg);
        }
    }

    impl Actor<NetMsg, Event> for Locker {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(LocalNs::from_millis(1), 0);
        }

        fn on_message(&mut self, _: NodeId, _: NetId, msg: NetMsg, ctx: &mut NodeCtx<'_>) {
            let NetMsg::Ctl(CtlMsg::Response(resp)) = msg else {
                return;
            };
            match resp.outcome {
                ResponseOutcome::Acked(Ok(ReplyBody::HelloOk { session, .. })) => {
                    (self.session, self.hello) = (session, false);
                }
                ResponseOutcome::Acked(Ok(ReplyBody::LockGranted { epoch, .. })) => {
                    self.holding = Some(epoch);
                    self.granted.push(epoch);
                }
                ResponseOutcome::Acked(Ok(ReplyBody::Ok)) => {
                    self.holding = None;
                    self.cycles -= 1;
                }
                other => panic!("unexpected answer {other:?}"),
            }
            self.waiting = false;
            self.next(ctx);
        }

        /// A kick each millisecond, for work the test queued while idle.
        fn on_timer(&mut self, _: u64, ctx: &mut NodeCtx<'_>) {
            if !self.waiting {
                self.next(ctx);
            }
            ctx.set_timer(LocalNs::from_millis(1), 0);
        }
    }

    /// A server with one file and a [`Locker`] of it, over a 10 µs LAN,
    /// τ = 1 s.
    struct Rig {
        world: World<NetMsg, Event>,
        server: NodeId,
        client: NodeId,
    }

    impl Rig {
        fn new(compact_threshold: usize) -> Rig {
            let mut world = World::new(WorldConfig::default());
            world.add_network(NetId::CONTROL, NetParams::ideal(10_000));
            world.add_network(NetId::SAN, NetParams::ideal(10_000));
            let cfg = ServerConfig {
                lease: LeaseConfig::with_tau(LocalNs::from_secs(1)),
                compact_threshold,
                ..ServerConfig::default()
            };
            let mut node = ServerNode::new(cfg, 1024, 512);
            let ino = node.precreate_file("f", 1);
            let server = world.add_node(Box::new(node), ClockSpec::ideal());
            let locker = Locker {
                server,
                ino,
                session: SessionId(0),
                seq: 0,
                hello: false,
                cycles: 0,
                holding: None,
                waiting: false,
                granted: Vec::new(),
            };
            let client = world.add_node(Box::new(locker), ClockSpec::ideal());
            world.run_until(SimTime::from_millis(1));
            Rig {
                world,
                server,
                client,
            }
        }

        fn node(&mut self) -> &mut ServerNode {
            self.world.node_mut::<ServerNode>(self.server).unwrap()
        }

        fn locker(&mut self) -> &mut Locker {
            self.world.node_mut::<Locker>(self.client).unwrap()
        }

        fn run_for_secs(&mut self, secs: u64) {
            self.world.run_for(secs * 1_000_000_000);
        }

        /// Open a fresh session and run `cycles` acquire/release cycles;
        /// the epochs they were granted.
        fn cycles(&mut self, cycles: u64) -> Vec<Epoch> {
            let locker = self.locker();
            (locker.hello, locker.cycles) = (true, cycles);
            let before = locker.granted.len();
            self.run_for_secs(1 + cycles / 10_000);
            let locker = self.locker();
            assert_eq!(locker.cycles, 0, "the cycles finished");
            locker.granted[before..].to_vec()
        }

        /// Log `EpochWatermark(epoch)` durably, as an incarnation that
        /// reserved up to `epoch` would have.
        fn plant(&mut self, epoch: u64) {
            let wal = &mut self.node().wal;
            wal.append(&WalRecord::EpochWatermark(epoch));
            wal.fsync();
        }

        /// Fail-stop the server, restart it and wait out its recovery
        /// window; the client's session and lock went with the crash.
        fn crash_and_restart(&mut self) {
            let node = self.server;
            self.world.apply_control(Control::Crash { node });
            self.world.apply_control(Control::Restart { node });
            self.run_for_secs(2);
            let locker = self.locker();
            (locker.holding, locker.waiting) = (None, false);
        }

        /// Every `EpochWatermark` in the durable log, in order.
        fn logged_reservations(&mut self) -> Vec<u64> {
            let log = wal::scan(self.node().wal.durable_delta(0)).records;
            let reservations = log.into_iter().filter_map(|rec| match rec {
                WalRecord::EpochWatermark(epoch) => Some(epoch),
                _ => None,
            });
            reservations.collect()
        }
    }

    fn highest(epochs: &[Epoch]) -> u64 {
        epochs.iter().map(|e| e.0).max().unwrap_or(0)
    }

    #[test]
    fn a_grant_past_the_reservation_logs_the_next_one_and_no_other_grant_logs() {
        let mut rig = Rig::new(wal::DEFAULT_COMPACT_THRESHOLD);
        let granted = rig.cycles(EPOCH_BLOCK + 2);
        assert_eq!(highest(&granted), EPOCH_BLOCK + 2);
        let reserved = vec![1 + EPOCH_BLOCK, EPOCH_BLOCK + 2 + EPOCH_BLOCK];
        assert_eq!(rig.logged_reservations(), reserved);
        // A crash takes the unsynced tail; nothing a grant answered with
        // is minted again.
        rig.node().wal.append(&WalRecord::SessionWatermark(99));
        rig.crash_and_restart();
        let after = rig.cycles(1);
        assert!(after[0].0 > highest(&granted), "{after:?}");
    }

    #[test]
    fn a_snapshot_between_the_reservation_and_the_crash_keeps_the_reservation() {
        // Every answer that follows a logged record compacts.
        let mut rig = Rig::new(1);
        let floor = (3 << 32) - 2;
        rig.plant(floor);
        rig.crash_and_restart();
        assert_eq!(rig.node().incarnation(), Incarnation(2));
        // The first grant reserves and compacts; the next two log nothing,
        // and the last is past incarnation 3's own floor.
        let granted = rig.cycles(3);
        assert_eq!(highest(&granted), (3 << 32) + 1);
        let compactions = rig.node().wal.stats().compactions;
        assert!(compactions >= 2, "{compactions} compactions");
        let unfolded = rig.logged_reservations();
        assert!(
            unfolded.is_empty(),
            "folded into the snapshot: {unfolded:?}"
        );
        rig.crash_and_restart();
        let after = rig.cycles(1);
        assert!(
            after[0].0 > highest(&granted),
            "{after:?} after {granted:?}"
        );
    }

    #[test]
    fn a_restart_whose_floor_sits_below_the_next_incarnations_keeps_what_it_granted_past_it() {
        let mut rig = Rig::new(wal::DEFAULT_COMPACT_THRESHOLD);
        let floor = (3 << 32) - 2;
        rig.plant(floor);
        rig.crash_and_restart();
        let granted = rig.cycles(3);
        assert_eq!(highest(&granted), (3 << 32) + 1);
        rig.crash_and_restart();
        assert_eq!(rig.node().incarnation(), Incarnation(3));
        let after = rig.cycles(1);
        assert!(
            after[0].0 > highest(&granted),
            "{after:?} after {granted:?}"
        );
    }

    #[test]
    fn a_snapshot_before_the_first_grant_keeps_the_restored_floor() {
        let mut rig = Rig::new(1);
        // As if incarnation 1 had reserved past incarnation 3's floor.
        let floor = (3 << 32) + 7;
        rig.plant(floor);
        rig.crash_and_restart();
        // The Hello's answer compacts; no grant comes before the crash.
        rig.cycles(0);
        assert!(rig.node().wal.stats().compactions >= 1);
        rig.crash_and_restart();
        let after = rig.cycles(1);
        assert!(after[0].0 > floor, "{after:?}");
    }
}
