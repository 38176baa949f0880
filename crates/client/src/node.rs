//! The Storage Tank client actor.

use std::collections::VecDeque;
use std::sync::Arc;

use tank_core::{ClientLease, LeaseAction, LeaseConfig, Phase};
use tank_obs::Registry;
use tank_proto::message::{FileAttr, FsError, ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{
    stripe_disk, BlockId, CtlMsg, Epoch, Event, Incarnation, Ino, LockMode, NackReason, NetMsg,
    NodeId, OpId, PushBody, ReqSeq, Request, Response, RouteError, SanMsg, ServerId, ServerPush,
    SessionId, WriteTag,
};
use tank_shard::ShardMap;
use tank_sim::{Actor, Ctx, LocalNs, NetId, TokenMap};

use crate::cache::BlockCache;
use crate::fs::{FsData, FsErr, FsOp, FsResult, OpGen, Script};
use crate::obs::ClientObs;
use tank_sim::fxhash::{HashMap, HashSet};

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// All metadata servers, indexed by [`ServerId`]. `new` fills this
    /// with its one server; [`ClientConfig::sharded`] takes the full set.
    pub servers: Vec<NodeId>,
    /// Optional warm-standby address per shard (same indexing as
    /// `servers`). When a lane's primary NACKs `Misrouted(NotPrimary)`
    /// or goes silent long enough to expire the lease locally, the lane
    /// rotates to its alternate and re-`Hello`s there. Empty (the
    /// default) disables rotation entirely.
    pub alternates: Vec<Option<NodeId>>,
    /// The shard map routing inodes to servers (must match the servers').
    pub map: ShardMap,
    /// The SAN disks (striping order must match the server's).
    pub disks: Vec<NodeId>,
    /// Lease contract (must match the server's).
    pub lease: LeaseConfig,
    /// Block size (must match the server's store).
    pub block_size: usize,
    /// Periodic write-back interval (0 disables background flushing).
    pub flush_interval: LocalNs,
    /// Run the lease protocol (default). Disabled models the baseline
    /// clients of steal/fence-based systems: no keep-alives, no quiesce,
    /// no phase-4 flush, no local expiry — the client trusts its cache
    /// until the server denies its session.
    pub lease_enabled: bool,
    /// How many generated (closed-loop) operations may be in flight at
    /// once — the number of independent local processes. One blocked op
    /// (e.g. a lock wait across a partition) then does not stop the
    /// machine's other processes.
    pub gen_concurrency: usize,
    /// Maximum concurrent SAN writes per flush campaign (the initiator's
    /// queue depth). Bounds how fast a dirty cache can harden — the knob
    /// that makes phase-4 sizing (E2b) a real constraint.
    pub flush_window: usize,
    /// Maximum control-path operations coalesced into one
    /// [`RequestBody::Batch`] message per lease lane. `1` (the default)
    /// disables batching entirely: every request is its own datagram,
    /// the pre-batching wire behavior.
    pub batch_cap: usize,
    /// Absorb voluntary lock releases locally: the lock (and the cached
    /// data under it) stays live until the server demands it back or the
    /// retained set overflows. Releasing costs zero round trips and the
    /// next open of the same file finds the lock already held.
    pub lazy_release: bool,
    /// Block-cache capacity in blocks. Clean blocks past the limit evict
    /// after each read is served, fewest decayed reads first (least
    /// recently used among equals); dirty write-back blocks, and blocks a
    /// read in flight waits on, are never evicted. `usize::MAX` (the
    /// default) is unbounded; `0` retains no clean data at all — the
    /// "every read pays a SAN round trip" baseline E17 measures against.
    pub cache_capacity: usize,
    /// Request `SharedRead` data locks for reads (the default), letting N
    /// clients serve a hot file from N caches concurrently. Disabled,
    /// every read acquires `Exclusive` — the single-owner baseline whose
    /// lock ping-pong E17 quantifies.
    pub shared_read: bool,
    /// Enforce the phase-3 admission gate of PAPER.md Figure 4: once a
    /// lane's lease turns Suspect, stop admitting operations and stop
    /// serving cached data for that shard until the lease resumes.
    /// Disabling this is a **negative control** — the checker's
    /// cache-coherence audit must flag the reads a quiesced cache serves.
    pub phase3_gate: bool,
}

impl ClientConfig {
    /// Reasonable defaults against `server` and `disks`.
    pub fn new(server: NodeId, disks: Vec<NodeId>) -> Self {
        ClientConfig {
            servers: vec![server],
            alternates: Vec::new(),
            map: ShardMap::single(),
            disks,
            lease: LeaseConfig::default(),
            block_size: 4096,
            flush_interval: LocalNs::from_secs(2),
            lease_enabled: true,
            gen_concurrency: 1,
            flush_window: 16,
            batch_cap: 1,
            lazy_release: false,
            cache_capacity: usize::MAX,
            shared_read: true,
            phase3_gate: true,
        }
    }

    /// Defaults against a sharded server set: `servers[i]` is the lock
    /// server governing shard `ServerId(i)`.
    pub fn sharded(servers: Vec<NodeId>, disks: Vec<NodeId>) -> Self {
        assert!(!servers.is_empty(), "at least one server");
        let map = ShardMap::new(servers.len() as u16);
        let mut cfg = ClientConfig::new(servers[0], disks);
        cfg.servers = servers;
        cfg.map = map;
        cfg
    }
}

/// Client-side counters for the experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct ClientStats {
    /// Operations submitted by local processes.
    pub submitted: u64,
    /// Operations completed successfully.
    pub completed: u64,
    /// Operations refused because the client was quiesced/dead.
    pub denied: u64,
    /// Operations failed with an error.
    pub failed: u64,
    /// Read blocks served from the local cache.
    pub cache_hits: u64,
    /// Read blocks fetched from the SAN.
    pub cache_misses: u64,
    /// Dirty blocks written back to the SAN.
    pub flushed_blocks: u64,
    /// Clean blocks evicted by the cache-capacity limit.
    pub cache_evictions: u64,
    /// Read blocks fetched again because they left the cache between
    /// their fetch and their serve (only a lock hand-off mid-read drops a
    /// block a read waits on).
    pub cache_refetches: u64,
    /// SAN I/Os rejected because this client was fenced.
    pub fenced_io: u64,
    /// Requests retransmitted.
    pub retransmits: u64,
    /// `Stat`s answered from the attributes cached under a held lock.
    pub attr_hits: u64,
    /// `Stat`s answered by the server (a `GetAttr` or resolving `Lookup`
    /// reply).
    pub attr_misses: u64,
}

/// Timer tokens.
#[derive(Debug, Clone, Copy)]
enum ClientTimer {
    /// Re-poll the lease state machine.
    LeasePoll,
    /// Retransmit every pending request that is due: the client's one
    /// retransmit deadline (see [`ClientNode::arm_retry`]).
    ReqRetry,
    /// Periodic write-back: the next tick of the client's one chain.
    PeriodicFlush,
    /// Retry a NACKed Hello (on the given lane) once the server may have
    /// finished timing us out.
    HelloRetry(usize),
    /// Fire the next closed-loop workload operation.
    NextOp,
    /// Fire scripted operation `i`.
    ScriptOp(usize),
}

/// Why a request was sent — drives reply dispatch.
#[derive(Debug, Clone)]
enum Purpose {
    Hello {
        sent_at: LocalNs,
    },
    KeepAlive,
    /// A path-resolution lookup step for an op.
    Resolve {
        op: OpId,
    },
    /// The final metadata action of an op.
    Meta {
        op: OpId,
    },
    /// The `GetAttr` of a `Stat`. `under` pins the grant epoch and
    /// own-mutation generation the request left under (`None`: it left
    /// outside a held grant, or behind an unanswered own mutation); the
    /// reply enters the lock's attribute cache only if both still stand.
    Attr {
        op: OpId,
        ino: Ino,
        under: Option<(Epoch, u64)>,
    },
    /// Lock acquisition for an inode (ops park on the ino). `gen` pins
    /// the lock-state era the request belongs to: a response that crosses
    /// a release/invalidation (gen bumped) is from a dead era and must be
    /// ignored, or it would reinstate a stale epoch and block map.
    Lock {
        ino: Ino,
        gen: u64,
    },
    /// Block allocation on behalf of an op.
    Alloc {
        op: OpId,
        ino: Ino,
    },
    /// Fire-and-forget size commit.
    Commit {
        ino: Ino,
    },
    /// Commit whose answer (or failure) sends the lock release, at
    /// `batch_cap = 1`. `complete` is the eager `Release` op the release
    /// completes when it leaves.
    CommitThenRelease {
        ino: Ino,
        complete: Option<OpId>,
    },
    /// Lock release of our current holding (success tears down local
    /// state).
    Release {
        ino: Ino,
    },
    /// Epoch-qualified cleanup release of a grant we never installed (or
    /// no longer hold): the reply changes nothing locally.
    ReleaseStale,
    /// Push acknowledgement.
    PushAckSend,
    /// One step of a client-driven rename chain (lookup, link, unlink —
    /// stage lives in the op's [`RenameFlow`]).
    Rename {
        op: OpId,
    },
    /// One shard's `ReadDir` of a root-directory listing fan-out.
    ListShard {
        op: OpId,
    },
    /// A coalesced [`RequestBody::Batch`]: one sub-purpose per element,
    /// in wire order. The batch reply's per-element outcomes zip back to
    /// these; a trailing element with no outcome (first-error-stops cut
    /// it off) never executed at the server.
    Batch {
        elems: Vec<Purpose>,
    },
}

/// A request awaiting its response.
struct PendingReq {
    body: RequestBody,
    purpose: Purpose,
    /// The lease lane (server) the request went to.
    lane: usize,
    session: SessionId,
    cur_rto: LocalNs,
    /// When the request goes out again if still unanswered: its last
    /// transmission plus `cur_rto` (`None`: it is never retransmitted).
    due: Option<LocalNs>,
}

/// Per-server lease lane: one independent four-phase lease machine,
/// session, and incarnation watch per lock server. A partition from shard
/// B walks *this lane* through quiesce → flush → invalidate while the
/// lanes to shards A and C keep serving their inodes (the tentpole
/// isolation property; Theorem 3.1 holds per server).
struct Lane {
    /// Shard this lane leases against.
    sid: ServerId,
    /// The server's network address.
    addr: NodeId,
    /// Alternate (warm standby) address to rotate to when `addr` stops
    /// being the shard's primary — on `Misrouted(NotPrimary)` or local
    /// lease expiry. Rotation swaps the two, so a bounced redirect can
    /// rotate back.
    alt: Option<NodeId>,
    /// Until when a `NotPrimary` redirect does not rotate the lane back:
    /// set when the lane left an address because it went silent, cleared
    /// by the next session (see [`ClientNode::leave_silent`]).
    rehome_until: Option<LocalNs>,
    lease: ClientLease,
    session: Option<SessionId>,
    /// The server incarnation the lane last saw (restart detector).
    server_incarnation: Option<Incarnation>,
    /// Whether ops governed by this shard are admitted.
    serving: bool,
    hello_inflight: bool,
    /// Push dedup window (push seqs are per-server).
    seen_pushes: HashSet<u64>,
    /// Batchable requests gathered for the next coalesced flush, each
    /// with the `retry` flag its issuer asked for.
    queue: Vec<(RequestBody, Purpose, bool)>,
    /// The coalesced request in flight and when it left: the queue waits
    /// behind it, until its response or first retransmission. Only a
    /// request with a retransmit deadline gates, so the wait is within
    /// `RTO`.
    gate: Option<(ReqSeq, LocalNs)>,
    /// Round trip of the last answered gate (`MAX`: none yet). A gate
    /// twice this old is presumed lost and new requests do not wait behind
    /// it: a lost datagram must stall the ops it carries, not the lane.
    gate_rtt: LocalNs,
}

impl Lane {
    fn new(sid: ServerId, addr: NodeId, alt: Option<NodeId>, lease: LeaseConfig) -> Self {
        Lane {
            sid,
            addr,
            alt,
            rehome_until: None,
            lease: ClientLease::new(lease),
            session: None,
            server_incarnation: None,
            serving: false,
            hello_inflight: false,
            seen_pushes: HashSet::default(),
            queue: Vec::new(),
            gate: None,
            gate_rtt: LocalNs(u64::MAX),
        }
    }
}

/// A client-driven rename in progress (see DESIGN.md §11): exclusive
/// locks on both parent directories in (ServerId, Ino) order, then
/// lookup → link at destination → unlink at source. Link-before-unlink
/// means any abort leaves the file reachable under at least one name.
struct RenameFlow {
    src_dir: Ino,
    dst_dir: Ino,
    src_name: String,
    dst_name: String,
    /// The file being renamed (after the lookup step).
    ino: Option<Ino>,
    stage: RenameStage,
}

/// Which rename step runs next / is awaited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RenameStage {
    /// Dir locks not yet all held (or lookup not yet sent).
    NeedLookup,
    /// Lookup of the source entry in flight.
    AwaitLookup,
    /// `RenameLink` at the destination in flight.
    AwaitLink,
    /// `RenameUnlink` at the source in flight.
    AwaitUnlink,
}

/// A root-directory listing fanned out to every shard.
struct ListFanout {
    waiting: usize,
    entries: Vec<String>,
}

/// Data-lock state for one inode.
#[derive(Debug, Clone)]
enum LockEntry {
    /// A LockAcquire is in flight.
    Acquiring,
    /// Held with grant metadata; `upgrading` marks an in-flight upgrade.
    Held(LockInfo),
    /// A LockRelease is in flight. The grant metadata is kept so phase-4
    /// flushing can still harden dirty blocks (writes are blocked, but
    /// write-back to the SAN remains both allowed and required until the
    /// lease dies).
    Releasing(LockInfo),
}

/// Grant metadata + local file view.
#[derive(Debug, Clone)]
struct LockInfo {
    mode: LockMode,
    epoch: Epoch,
    blocks: Vec<BlockId>,
    /// Local size (includes uncommitted growth).
    size: u64,
    /// Size the server has confirmed.
    committed_size: u64,
    upgrading: bool,
    /// The inode's attributes, cached under this grant (CACHING.md,
    /// "Cached attributes"). They live here so that everything that ends
    /// the grant — release, demand, expiry, restart — ends them too.
    attr: Option<CachedAttr>,
    /// Own-mutation generation: how many requests that change the inode
    /// at the server (`CommitWrite`, `AllocBlocks`) this client has sent
    /// under this grant. Each one drops `attr`.
    mutations: u64,
}

/// What a `GetAttr` reply admitted under a grant said of the inode. The
/// size is absent: while the lock is held, [`LockInfo::size`] is the
/// authority (it includes the holder's uncommitted growth).
#[derive(Debug, Clone, Copy)]
struct CachedAttr {
    version: u64,
    is_dir: bool,
}

/// An in-flight local operation.
struct ActiveOp {
    op: FsOp,
    state: OpState,
    from_gen: bool,
    /// Resolved target inode (once known).
    ino: Option<Ino>,
}

/// Progress of an operation.
#[derive(Debug)]
enum OpState {
    /// Resolving the path: component `idx` of `parts` under `cur`.
    /// `to_parent` stops one short (Create/Mkdir/Delete address the
    /// parent).
    Resolve {
        parts: Vec<String>,
        idx: usize,
        cur: Ino,
        to_parent: bool,
    },
    /// Waiting for the final metadata reply.
    MetaWait,
    /// Parked until the lock (keyed in `parked`) is held in a covering
    /// mode.
    WaitLock { mode: LockMode },
    /// Waiting for an AllocBlocks reply.
    WaitAlloc,
    /// Read/RMW: waiting for `waiting` SAN block reads.
    SanReads { waiting: usize, then_write: bool },
    /// Waiting for a flush campaign to finish.
    WaitFlush,
}

/// What a pending SAN request was for.
#[derive(Debug, Clone, Copy)]
enum SanOp {
    /// Block read feeding an op (read path or RMW prelude). `epoch` pins
    /// the lock grant the read was issued under: a response landing after
    /// the lock moved on must not populate the cache (it may be a stale
    /// snapshot of a block someone else has since rewritten).
    OpRead {
        op: OpId,
        ino: Ino,
        idx: u32,
        epoch: Epoch,
    },
    /// Write-back of a dirty block within a flush campaign.
    FlushWrite {
        campaign: u64,
        ino: Ino,
        idx: u32,
        tag: WriteTag,
    },
}

/// What happens when a flush campaign finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AfterFlush {
    /// Nothing (phase-4 / periodic flushing).
    Nothing,
    /// Complete this op (Flush op).
    CompleteOp(OpId),
    /// Commit size then release the lock (demand, or Release op carrying
    /// an op to complete afterwards).
    Release { complete: Option<OpId> },
}

/// A flush campaign over one inode. Writes are issued `flush_window` at a
/// time; `queue` holds the not-yet-issued tail.
struct FlushCampaign {
    ino: Ino,
    remaining: usize,
    in_flight: usize,
    queue: VecDeque<(u32, Vec<u8>, WriteTag)>,
    after: AfterFlush,
}

/// The client node.
pub struct ClientNode<Ob> {
    cfg: ClientConfig,
    id: NodeId,
    /// The shard map (copied from the config; routes every request).
    map: ShardMap,
    /// One lease lane per lock server, indexed by `ServerId.0`.
    lanes: Vec<Lane>,
    next_seq: u64,
    pending: HashMap<ReqSeq, PendingReq>,
    locks: HashMap<Ino, LockEntry>,
    /// Name cache (dentry cache): full path → inode, learned from
    /// resolutions. Metadata is only weakly consistent (§3 fn.1), so using
    /// possibly-stale entries is within contract; the cache is dropped
    /// with everything else at lease expiry.
    name_cache: HashMap<String, Ino>,
    /// Ops parked per ino waiting for a lock grant.
    parked: HashMap<Ino, Vec<OpId>>,
    /// Per-ino lock-state generation, bumped whenever the local holding is
    /// torn down (release confirmed, lock failure, expiry). Never cleared:
    /// Purpose::Lock responses from earlier generations are void.
    lock_gen: HashMap<Ino, u64>,
    /// Demands that arrived while the lock state was in motion (acquiring,
    /// or releasing a *different* grant): ino → the demanded epoch. The
    /// server has (or is about to have) granted us that epoch and wants it
    /// back — handle the demand once the state settles. Answering "I hold
    /// nothing" instead would blind-release the in-flight grant and leave
    /// us writing under a dead epoch.
    deferred_demands: HashMap<Ino, Epoch>,
    cache: BlockCache,
    /// Block indices each in-flight read had to fetch from the SAN (cache
    /// misses), so the serve step can label `ReadServed.from_cache`
    /// accurately per block.
    read_fetched: HashMap<OpId, Vec<u32>>,
    /// Blocks each in-flight read or read-modify-write has pinned in the
    /// cache (the blocks it waits on), released when it serves or ends.
    op_pins: HashMap<OpId, (Ino, Vec<u32>)>,
    ops: HashMap<OpId, ActiveOp>,
    next_op_id: u64,
    /// Global write-tag counter: every client-minted [`WriteTag`] draws a
    /// fresh odd `wseq` from it, making tags unique across all of this
    /// client's locks and shards (see `WriteTag`'s uniqueness contract).
    next_wseq: u64,
    san_ops: HashMap<u64, SanOp>,
    next_san_id: u64,
    flushes: HashMap<u64, FlushCampaign>,
    next_flush_id: u64,
    /// In-flight client-driven renames.
    renames: HashMap<OpId, RenameFlow>,
    /// In-flight root-listing fan-outs.
    list_fanout: HashMap<OpId, ListFanout>,
    timers: TokenMap<ClientTimer>,
    /// The one armed retransmit timer: the deadline it fires at and its
    /// token. It fires at the earliest `due` of `pending`, or earlier (a
    /// request answered since leaves it armed). A replaced timer's token
    /// is forgotten, so its firing does nothing.
    retry_timer: Option<(LocalNs, u64)>,
    gen: Option<Box<dyn OpGen>>,
    script: Script,
    /// A queued closed-loop op waiting for its think-time timer.
    gen_op_queued: bool,
    queued_gen_op: Option<FsOp>,
    /// Inodes whose voluntary release was absorbed locally (lazy
    /// release), oldest first. The lock stays `Held`; a server demand or
    /// cap overflow sends it back through the eager release path.
    lazy_retained: Vec<Ino>,
    next_poll_at: Option<LocalNs>,
    /// Token of the periodic write-back chain's pending tick. One chain
    /// per client, however many lanes open sessions: it starts at a
    /// `HelloOk` when none runs and ends at a tick that finds no session.
    flush_tick: Option<u64>,
    /// Results of the last [`RESULT_LOG_CAP`] ops that came in through
    /// [`submit`](Self::submit) (scripts, live callers, tests), oldest
    /// first, until a caller [takes](Self::take_result) one. Generator
    /// ops are not logged: no caller waits on them, and their outcome is
    /// their [`Event::OpCompleted`].
    results: VecDeque<(OpId, FsResult)>,
    stats: ClientStats,
    observe: Box<dyn Fn(Event) -> Option<Ob> + Send>,
    obs: Option<ClientObs>,
}

/// Cap on the retained per-client result log: the oldest result goes
/// when one more submitted op completes.
pub const RESULT_LOG_CAP: usize = 16_384;

/// Initial request retransmission timeout.
const RTO: LocalNs = LocalNs::from_millis(250);
/// Retransmission backoff cap.
const MAX_RTO: LocalNs = LocalNs::from_secs(2);
/// Pause before a NACKed Hello is sent again: long enough for a server
/// to finish timing us out, and to pace a lane's alternation between a
/// shard's two addresses while neither answers as its primary.
const HELLO_RETRY: LocalNs = LocalNs::from_millis(500);
/// Retained-release cap: absorbing one more voluntary release evicts the
/// oldest retained lock through the eager flush+commit+release path it
/// originally skipped.
const LAZY_RELEASE_CAP: usize = 32;

/// Flush-reason codes recorded in `client.batch.flush_reason`: the size
/// cap filled the batch.
const FLUSH_SIZE: u64 = 0;
/// The lane had no coalesced request in flight: nothing to wait behind.
const FLUSH_IDLE: u64 = 1;
/// A sync point (urgent or non-batchable request) forced the flush.
const FLUSH_SYNC: u64 = 2;
/// The request in flight was answered or retransmitted.
const FLUSH_ACK: u64 = 3;

impl<Ob> ClientNode<Ob> {
    /// New client. `observe` converts client events into world
    /// observations.
    pub fn new(cfg: ClientConfig, observe: Box<dyn Fn(Event) -> Option<Ob> + Send>) -> Self {
        let cache = BlockCache::with_capacity(cfg.block_size, cfg.cache_capacity);
        let map = cfg.map;
        assert_eq!(
            cfg.servers.len(),
            map.nshards() as usize,
            "one server address per shard"
        );
        if !cfg.alternates.is_empty() {
            assert_eq!(
                cfg.alternates.len(),
                cfg.servers.len(),
                "one alternate slot per shard (or none at all)"
            );
        }
        let lanes = cfg
            .servers
            .iter()
            .enumerate()
            .map(|(i, &addr)| {
                let alt = cfg.alternates.get(i).copied().flatten();
                Lane::new(ServerId(i as u16), addr, alt, cfg.lease)
            })
            .collect();
        ClientNode {
            cfg,
            id: NodeId(u32::MAX),
            map,
            lanes,
            next_seq: 1,
            pending: HashMap::default(),
            locks: HashMap::default(),
            name_cache: HashMap::default(),
            parked: HashMap::default(),
            lock_gen: HashMap::default(),
            deferred_demands: HashMap::default(),
            cache,
            read_fetched: HashMap::default(),
            op_pins: HashMap::default(),
            ops: HashMap::default(),
            next_op_id: 1,
            next_wseq: 0,
            san_ops: HashMap::default(),
            next_san_id: 1,
            flushes: HashMap::default(),
            next_flush_id: 1,
            renames: HashMap::default(),
            list_fanout: HashMap::default(),
            timers: TokenMap::new(),
            retry_timer: None,
            gen: None,
            script: Script::new(),
            gen_op_queued: false,
            queued_gen_op: None,
            lazy_retained: Vec::new(),
            next_poll_at: None,
            flush_tick: None,
            results: VecDeque::new(),
            stats: ClientStats::default(),
            observe,
            obs: None,
        }
    }

    /// Client with no observer.
    pub fn unobserved(cfg: ClientConfig) -> Self {
        ClientNode::new(cfg, Box::new(|_| None))
    }

    /// Attach an observability registry: lease-lifecycle counters, the
    /// renewal-headroom histogram, and structured trace events.
    pub fn set_obs(&mut self, registry: Arc<Registry>) {
        self.obs = Some(ClientObs::new(registry));
    }

    /// Builder form of [`set_obs`](Self::set_obs).
    pub fn with_obs(mut self, registry: Arc<Registry>) -> Self {
        self.set_obs(registry);
        self
    }

    /// Attach a fixed script (before the world starts).
    pub fn with_script(mut self, script: Script) -> Self {
        self.script = script;
        self
    }

    /// Attach a closed-loop workload generator.
    pub fn set_workload(&mut self, gen: Box<dyn OpGen>) {
        self.gen = Some(gen);
    }

    /// Setter form of [`with_script`](Self::with_script).
    pub fn set_script(&mut self, script: Script) {
        self.script = script;
    }

    /// Counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Timer tokens the client still acts on: its armed timers, less
    /// those it has given up on. Bounded by what it is waiting for, not
    /// by how many requests it has sent.
    pub fn live_timer_tokens(&self) -> usize {
        self.timers.len()
    }

    /// Results of the submitted ops still retained, in completion order:
    /// the last [`RESULT_LOG_CAP`] ops that came in through
    /// [`submit`](Self::submit) (a script's steps among them), less those
    /// [taken](Self::take_result). Ops a workload generator issued are
    /// never here; their outcome is their [`Event::OpCompleted`].
    pub fn results(&self) -> impl Iterator<Item = &(OpId, FsResult)> {
        self.results.iter()
    }

    /// The result of submitted op `op`, if it has completed and is still
    /// retained (see [`results`](Self::results)). Searches newest first.
    pub fn result_of(&self, op: OpId) -> Option<&FsResult> {
        self.results
            .iter()
            .rev()
            .find(|(id, _)| *id == op)
            .map(|(_, r)| r)
    }

    /// Remove and return the result of submitted op `op`, if it has
    /// completed and is still retained: what a caller waiting on one op
    /// uses, so a long-lived client retains nothing it has handed out.
    /// Searches newest first.
    pub fn take_result(&mut self, op: OpId) -> Option<FsResult> {
        let at = self.results.iter().rposition(|(id, _)| *id == op)?;
        self.results.remove(at).map(|(_, r)| r)
    }

    fn log_result(&mut self, id: OpId, result: FsResult) {
        if self.results.len() == RESULT_LOG_CAP {
            self.results.pop_front();
        }
        self.results.push_back((id, result));
    }

    /// The embedded lease machine of shard 0's lane (diagnostics; the
    /// only lane in single-server configurations).
    pub fn lease(&self) -> &ClientLease {
        &self.lanes[0].lease
    }

    /// Dirty blocks currently in the cache.
    pub fn dirty_blocks(&self) -> usize {
        self.cache.dirty_count()
    }

    /// Inodes whose voluntary release is being retained lazily
    /// (diagnostics; oldest first).
    pub fn lazy_retained(&self) -> &[Ino] {
        &self.lazy_retained
    }

    /// Whether the lazy-release cache is internally consistent: every
    /// retained inode's lock is still `Held`. Lane expiry and restart
    /// must purge retained entries along with the locks they shadow — a
    /// retained inode without a held lock would "absorb" releases for a
    /// lock the server already reclaimed. (The lane may be transiently
    /// quiesced; that suspends ops, not lock validity.)
    pub fn lazy_cache_consistent(&self) -> bool {
        self.lazy_retained
            .iter()
            .all(|ino| matches!(self.locks.get(ino), Some(LockEntry::Held(_))))
    }

    /// The lane governing `ino` under the shard map.
    fn lane_of_ino(&self, ino: Ino) -> usize {
        self.map.owner_of(ino).0 as usize
    }

    /// The lane whose server lives at `addr`, if any.
    fn lane_of_addr(&self, addr: NodeId) -> Option<usize> {
        self.lanes.iter().position(|l| l.addr == addr)
    }

    /// Swap the lane's address with its alternate, if one is configured.
    /// Called when the current address stops answering as the shard's
    /// primary (a `NotPrimary` redirect, or silence long enough to expire
    /// the lease locally). The swap is symmetric: if the alternate turns
    /// out not to be primary either, its redirect rotates us back, and
    /// [`HELLO_RETRY`] pacing keeps the ping-pong bounded until an
    /// election settles the question. The incarnation watch is cleared —
    /// the new address is a different server whose incarnation we have
    /// not seen yet, not a restart of the old one.
    fn rotate_lane(&mut self, lane: usize, ctx: &mut Ctx<'_, NetMsg, Ob>) -> bool {
        let l = &mut self.lanes[lane];
        let Some(alt) = l.alt else { return false };
        let old = std::mem::replace(&mut l.addr, alt);
        l.alt = Some(old);
        l.server_incarnation = None;
        l.session = None;
        let sid = l.sid;
        if let Some(obs) = &self.obs {
            obs.trace(ctx, "rotate", || {
                format!("shard={} from={} to={}", sid.0, old.0, alt.0)
            });
        }
        true
    }

    /// Rotate away from an address that went silent: the lease ran out
    /// locally, or a Hello went unanswered. Silence is what a dead
    /// primary looks like, so for τ(1+ε) from the first such departure
    /// the lane stays at the new address through its `NotPrimary`
    /// redirects — an election there is at most that far off — and
    /// re-`Hello`s every τ/40. Past that deadline the silent address may
    /// be a live primary we are merely cut off from, and the lane
    /// alternates as before. The deadline is not re-armed by later
    /// departures; the next session clears it.
    fn leave_silent(&mut self, lane: usize, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        if self.rotate_lane(lane, ctx) {
            let deadline = ctx.now().plus(self.cfg.lease.server_timeout());
            self.lanes[lane].rehome_until.get_or_insert(deadline);
        }
    }

    /// Send lane `lane`'s Hello again after `delay`, unless it has a
    /// session by then.
    fn retry_hello(&mut self, lane: usize, delay: LocalNs, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let token = self.timers.insert(ClientTimer::HelloRetry(lane));
        ctx.set_timer(delay, token);
    }

    fn gen_of(&self, ino: Ino) -> u64 {
        self.lock_gen.get(&ino).copied().unwrap_or(0)
    }

    fn bump_gen(&mut self, ino: Ino) {
        *self.lock_gen.entry(ino).or_insert(0) += 1;
    }

    fn emit(&mut self, ev: Event, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        if let Some(ob) = (self.observe)(ev) {
            ctx.observe(ob);
        }
    }

    // ------------------------------------------------------- request engine

    /// Entry point for every control-path request. With batching enabled
    /// (`batch_cap > 1`) a batchable body leaves at once on an idle lane
    /// and otherwise queues behind the lane's `gate` until that is
    /// answered or retransmitted, the batch fills, or a sync point. With
    /// the default `batch_cap = 1` nothing ever queues: this is a straight
    /// passthrough to [`send_now`](Self::send_now).
    fn send_request(
        &mut self,
        lane: usize,
        body: RequestBody,
        purpose: Purpose,
        retry: bool,
        ctx: &mut Ctx<'_, NetMsg, Ob>,
    ) {
        self.note_mutation(&body);
        if self.cfg.batch_cap <= 1 || !body.batchable() {
            // Sync point: anything already queued (e.g. a CommitWrite)
            // must reach the server before this request executes, so the
            // server still sees a lane's requests in issue order.
            self.flush_batch(lane, FLUSH_SYNC, ctx);
            self.send_now(lane, body, purpose, retry, ctx);
            return;
        }
        // Urgent traffic — lease maintenance, push acks, and lock
        // handovers — keeps its latency: it flushes the lane immediately,
        // carrying whatever else had gathered along for free.
        let urgent = matches!(
            purpose,
            Purpose::KeepAlive
                | Purpose::PushAckSend
                | Purpose::ReleaseStale
                | Purpose::Release { .. }
        );
        let cap = self.batch_cap();
        let l = &mut self.lanes[lane];
        l.queue.push((body, purpose, retry));
        let gate_age = l.gate.map(|(_, sent)| ctx.now().minus(sent));
        if urgent {
            self.flush_batch(lane, FLUSH_SYNC, ctx);
        } else if l.queue.len() >= cap {
            self.flush_batch(lane, FLUSH_SIZE, ctx);
        } else if gate_age.is_none_or(|age| age > l.gate_rtt.times(2)) {
            self.flush_batch(lane, FLUSH_IDLE, ctx);
        }
    }

    /// Elements per coalesced request.
    fn batch_cap(&self) -> usize {
        self.cfg.batch_cap.min(tank_proto::MAX_BATCH_ELEMS)
    }

    /// An own request that changes an inode at the server outdates
    /// whatever attributes are cached under its lock.
    fn note_mutation(&mut self, body: &RequestBody) {
        if let Some(ino) = mutated_ino(body) {
            if let Some(LockEntry::Held(info)) = self.locks.get_mut(&ino) {
                info.mutations += 1;
                info.attr = None;
            }
        }
    }

    /// `seq` was answered (or else retransmitted): if the lane's queue
    /// was waiting behind it, the wait is over.
    fn open_gate(
        &mut self,
        lane: usize,
        seq: ReqSeq,
        answered: bool,
        ctx: &mut Ctx<'_, NetMsg, Ob>,
    ) {
        let l = &mut self.lanes[lane];
        if let Some((_, sent)) = l.gate.take_if(|(gate, _)| *gate == seq) {
            if answered {
                l.gate_rtt = ctx.now().minus(sent);
            }
            self.flush_batch(lane, FLUSH_ACK, ctx);
        }
    }

    /// Flush a lane's coalescing queue: one element goes out bare (a
    /// batch of one would only add framing), more go out as a single
    /// [`RequestBody::Batch`] under one sequence number — one message,
    /// one ACK, one opportunistic renewal (§3.1). The message is
    /// retransmitted iff any element asked to be, and then gates the lane.
    fn flush_batch(&mut self, lane: usize, reason: u64, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let mut queue = std::mem::take(&mut self.lanes[lane].queue);
        if queue.is_empty() {
            return;
        }
        if let Some(obs) = &self.obs {
            obs.batch_size.observe(queue.len() as u64);
            obs.batch_flush_reason.observe(reason);
        }
        let retry = queue.iter().any(|(_, _, retry)| *retry);
        let (body, purpose) = if queue.len() == 1 {
            let (body, purpose, _) = queue.pop().expect("one element");
            (body, purpose)
        } else {
            let (bodies, elems) = queue.into_iter().map(|(b, p, _)| (b, p)).unzip();
            (RequestBody::Batch(bodies), Purpose::Batch { elems })
        };
        let seq = self.send_now(lane, body, purpose, retry, ctx);
        self.lanes[lane].gate = retry.then(|| (seq, ctx.now()));
    }

    fn send_now(
        &mut self,
        lane: usize,
        body: RequestBody,
        purpose: Purpose,
        retry: bool,
        ctx: &mut Ctx<'_, NetMsg, Ob>,
    ) -> ReqSeq {
        let seq = ReqSeq(self.next_seq);
        self.next_seq += 1;
        let l = &mut self.lanes[lane];
        let session = l.session.unwrap_or(SessionId(0));
        l.lease.on_send(seq, ctx.now());
        let server = l.addr;
        let due = retry.then(|| ctx.now().plus(RTO));
        if let Some(due) = due {
            self.arm_retry(due, ctx);
        }
        self.pending.insert(
            seq,
            PendingReq {
                body: body.clone(),
                purpose,
                lane,
                session,
                cur_rto: RTO,
                due,
            },
        );
        ctx.send(
            NetId::CONTROL,
            server,
            NetMsg::Ctl(CtlMsg::Request(Request {
                src: ctx.node(),
                session,
                seq,
                body,
            })),
        );
        seq
    }

    fn retransmit(&mut self, seq: ReqSeq, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        // NOTE: the lease send-time for `seq` is NOT updated — the lease a
        // future ACK grants must run from a send the ACK is known to
        // follow, and only the first transmission has that property for
        // every copy the server might be answering (§3.1).
        let me = ctx.node();
        // An unanswered Hello probes the lane's other address on every
        // retransmission: a dead primary never sends the NotPrimary
        // redirect that normally steers the lane, so without this the
        // hello would back off against the corpse forever and the shard's
        // promoted standby would never hear from us.
        if let Some(p) = self.pending.get(&seq) {
            if matches!(p.purpose, Purpose::Hello { .. }) {
                let lane = p.lane;
                self.leave_silent(lane, ctx);
            }
        }
        let Some(p) = self.pending.get_mut(&seq) else {
            return;
        };
        let server = self.lanes[p.lane].addr;
        p.cur_rto = p.cur_rto.times(2).min(MAX_RTO);
        let delay = p.cur_rto;
        p.due = Some(ctx.now().plus(delay));
        let msg = Request {
            src: me,
            session: p.session,
            seq,
            body: p.body.clone(),
        };
        self.stats.retransmits += 1;
        if let Some(obs) = &self.obs {
            obs.retransmits.inc();
            obs.trace(ctx, "retransmit", || {
                format!("seq={} rto_ns={}", seq.0, delay.0)
            });
        }
        let lane = p.lane;
        ctx.send(NetId::CONTROL, server, NetMsg::Ctl(CtlMsg::Request(msg)));
        self.open_gate(lane, seq, false, ctx);
    }

    /// Make the retransmit timer fire by `due`: arm it there unless it
    /// already fires no later. Every request's deadline is at least `RTO`
    /// out when set, so in steady operation this arms once per `RTO`, not
    /// once per request.
    fn arm_retry(&mut self, due: LocalNs, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        if self.retry_timer.is_some_and(|(at, _)| at <= due) {
            return;
        }
        if let Some((_, stale)) = self.retry_timer.take() {
            self.timers.cancel(stale);
        }
        let token = self.timers.insert(ClientTimer::ReqRetry);
        ctx.set_timer(due.minus(ctx.now()), token);
        self.retry_timer = Some((due, token));
    }

    /// The retransmit timer armed for `deadline` fired: retransmit every
    /// request due by then, in sequence order, each followed by a lease
    /// pump (so one sweep does what one firing per request would), and
    /// re-arm at the next deadline.
    fn retransmit_due(&mut self, deadline: LocalNs, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        // A skewed clock may read a nanosecond short of the deadline it
        // was armed for; the requests due at it go now all the same.
        let upto = deadline.max(ctx.now());
        let mut due: Vec<ReqSeq> = self
            .pending
            .iter()
            .filter(|(_, p)| p.due.is_some_and(|d| d <= upto))
            .map(|(s, _)| *s)
            .collect();
        due.sort_unstable();
        for seq in due {
            if self.pending.contains_key(&seq) {
                self.retransmit(seq, ctx);
                self.pump_lease(ctx);
            }
        }
        // Sends during the sweep found the fired timer still standing and
        // armed nothing: the next deadline is armed once, here.
        self.retry_timer = None;
        if let Some(next) = self.pending.values().filter_map(|p| p.due).min() {
            self.arm_retry(next, ctx);
        }
    }

    // ----------------------------------------------------------- session

    fn send_hello(&mut self, lane: usize, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        if self.lanes[lane].hello_inflight {
            return;
        }
        self.lanes[lane].hello_inflight = true;
        let sent_at = ctx.now();
        let map_epoch = self.map.epoch();
        self.send_request(
            lane,
            RequestBody::Hello { map_epoch },
            Purpose::Hello { sent_at },
            true,
            ctx,
        );
    }

    fn on_hello_ok(
        &mut self,
        lane: usize,
        sent_at: LocalNs,
        session: SessionId,
        ctx: &mut Ctx<'_, NetMsg, Ob>,
    ) {
        let now = ctx.now();
        let l = &mut self.lanes[lane];
        l.hello_inflight = false;
        l.session = Some(session);
        l.rehome_until = None;
        l.lease.reset_session(sent_at, now);
        let first_service = !l.serving;
        l.serving = true;
        let sid = l.sid;
        if first_service {
            if let Some(obs) = &self.obs {
                obs.phase_resume.inc();
                obs.trace(ctx, "phase", || {
                    format!("active session={} shard={}", session.0, sid.0)
                });
            }
            self.emit(Event::Resumed { shard: sid.0 }, ctx);
        }
        self.pump_lease(ctx);
        if self.cfg.flush_interval.0 > 0 && self.flush_tick.is_none() {
            self.arm_flush_tick(ctx);
        }
        self.maybe_next_gen_op(ctx);
    }

    /// Arm the periodic write-back chain's next tick.
    fn arm_flush_tick(&mut self, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let token = self.timers.insert(ClientTimer::PeriodicFlush);
        self.flush_tick = Some(token);
        ctx.set_timer(self.cfg.flush_interval, token);
    }

    /// Whether the op touches state governed by shard `sid`: its resolved
    /// ino, the shard root its path enters through, or (for a cross-shard
    /// rename) either directory. List fan-outs touch every shard.
    fn op_touches_shard(&self, id: OpId, active: &ActiveOp, sid: ServerId) -> bool {
        if let Some(flow) = self.renames.get(&id) {
            return self.map.owner_of(flow.src_dir) == sid
                || self.map.owner_of(flow.dst_dir) == sid;
        }
        if self.list_fanout.contains_key(&id) {
            return true;
        }
        if let Some(ino) = active.ino {
            if self.map.owner_of(ino) == sid {
                return true;
            }
        }
        let first = active.op.path().split('/').find(|p| !p.is_empty());
        let root = match first {
            Some(name) => self.map.root_of(self.map.place_top(name)),
            None => self.map.root_of(ServerId(0)),
        };
        self.map.owner_of(root) == sid
    }

    /// Local failure of ONE lane: its lease expired or its session was
    /// declared dead by that server. Only state governed by that shard is
    /// reset — ops, locks, and cached blocks under the other shards keep
    /// running — and a fresh session is sought from the failed server.
    fn local_expiry(&mut self, lane: usize, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let sid = self.lanes[lane].sid;
        self.lanes[lane].serving = false;
        // Fail every in-flight op governed by this shard (sorted:
        // deterministic event order).
        let mut op_ids: Vec<OpId> = self
            .ops
            .iter()
            .filter(|(id, a)| self.op_touches_shard(**id, a, sid))
            .map(|(id, _)| *id)
            .collect();
        op_ids.sort();
        for id in op_ids {
            self.complete_op(id, Err(FsErr::LeaseLost), ctx);
        }
        // Abandon outstanding requests and campaigns aimed at this lane.
        self.pending.retain(|_, p| p.lane != lane);
        // The unsent coalescing queue dies with the lane's pending set:
        // its purposes reference ops the sweep above already failed.
        self.lanes[lane].queue.clear();
        self.lanes[lane].gate = None;
        self.lanes[lane].hello_inflight = false;
        let map = self.map;
        self.flushes.retain(|_, f| map.owner_of(f.ino) != sid);
        self.san_ops.retain(|_, p| {
            let ino = match p {
                SanOp::OpRead { ino, .. } => *ino,
                SanOp::FlushWrite { ino, .. } => *ino,
            };
            map.owner_of(ino) != sid
        });
        self.parked.retain(|ino, _| map.owner_of(*ino) != sid);
        self.deferred_demands
            .retain(|ino, _| map.owner_of(*ino) != sid);
        let held: Vec<Ino> = self
            .locks
            .keys()
            .copied()
            .filter(|i| map.owner_of(*i) == sid)
            .collect();
        for ino in held {
            self.bump_gen(ino);
            self.locks.remove(&ino);
        }
        self.lazy_retained.retain(|i| map.owner_of(*i) != sid);
        self.lanes[lane].seen_pushes.clear();
        let mut owned: Vec<Ino> = self
            .cache
            .inos()
            .into_iter()
            .filter(|i| map.owner_of(*i) == sid)
            .collect();
        owned.sort();
        let mut discarded = 0;
        for ino in owned {
            discarded += self.cache.dirty_len(ino);
            self.cache.invalidate_ino(ino);
        }
        self.name_cache.retain(|_, ino| map.owner_of(*ino) != sid);
        if let Some(obs) = &self.obs {
            obs.phase_invalid.inc();
            obs.lane_expiries.inc();
            obs.discarded_dirty.add(discarded as u64);
            obs.trace(ctx, "phase", || {
                format!("invalid shard={} discarded_dirty={discarded}", sid.0)
            });
        }
        self.emit(
            Event::CacheInvalidated {
                discarded_dirty: discarded,
            },
            ctx,
        );
        self.lanes[lane].session = None;
        // A primary that let the lease run all the way out locally may be
        // gone for good. If a standby is configured, aim the re-`Hello`
        // there; if the silence was a partition and the old primary still
        // rules, its standby's NotPrimary redirects rotate us back once the
        // standby had time to elect.
        self.leave_silent(lane, ctx);
        self.send_hello(lane, ctx);
    }

    // ------------------------------------------------------- lease driving

    fn pump_lease(&mut self, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        if !self.cfg.lease_enabled {
            return;
        }
        let now = ctx.now();
        // Each lane's FSM is pumped independently: a shard losing contact
        // quiesces/flushes/invalidates only its own inodes while the other
        // lanes keep caching at full speed.
        for lane in 0..self.lanes.len() {
            let sid = self.lanes[lane].sid;
            for action in self.lanes[lane].lease.poll(now) {
                match action {
                    LeaseAction::SendKeepAlive => {
                        self.send_request(
                            lane,
                            RequestBody::KeepAlive,
                            Purpose::KeepAlive,
                            false,
                            ctx,
                        );
                    }
                    LeaseAction::BeginQuiesce => {
                        self.lanes[lane].serving = false;
                        if let Some(obs) = &self.obs {
                            obs.phase_quiesce.inc();
                            obs.trace(ctx, "phase", || format!("quiescing shard={}", sid.0));
                        }
                        self.emit(Event::Quiesced { shard: sid.0 }, ctx);
                    }
                    LeaseAction::BeginFlush => {
                        // Phase 4: harden everything dirty under THIS
                        // shard's locks. The control path to this server is
                        // presumed dead, so sizes are not committed — data
                        // reaches disk, which is the §3.2 obligation. Other
                        // shards' dirty data is not touched.
                        let map = self.map;
                        let inos: Vec<Ino> = self
                            .cache
                            .dirty_inos()
                            .into_iter()
                            .filter(|i| map.owner_of(*i) == sid)
                            .collect();
                        if let Some(obs) = &self.obs {
                            obs.phase_flush.inc();
                            obs.trace(ctx, "phase", || {
                                format!("flushing shard={} dirty_inos={}", sid.0, inos.len())
                            });
                        }
                        for ino in inos {
                            self.start_flush(ino, AfterFlush::Nothing, ctx);
                        }
                    }
                    LeaseAction::LeaseExpired => {
                        self.local_expiry(lane, ctx);
                    }
                    LeaseAction::Resume => {
                        // After a post-expiry re-hello the session reset has
                        // already resumed service; only an actual transition
                        // counts as a phase change.
                        if !self.lanes[lane].serving {
                            self.lanes[lane].serving = true;
                            if let Some(obs) = &self.obs {
                                obs.phase_resume.inc();
                                obs.trace(ctx, "phase", || {
                                    format!("active resumed shard={}", sid.0)
                                });
                            }
                            self.emit(Event::Resumed { shard: sid.0 }, ctx);
                        }
                        self.maybe_next_gen_op(ctx);
                    }
                }
            }
        }
        // Arm the next poll at the earliest wakeup any lane wants.
        let next = self
            .lanes
            .iter()
            .filter_map(|l| l.lease.next_wakeup(now))
            .min();
        if let Some(at) = next {
            let due = at.max(now.plus(LocalNs(1)));
            if self.next_poll_at.is_none_or(|p| due < p || p <= now) {
                self.next_poll_at = Some(due);
                let token = self.timers.insert(ClientTimer::LeasePoll);
                ctx.set_timer(due.minus(now), token);
            }
        }
    }

    // ----------------------------------------------------------- workload

    fn maybe_next_gen_op(&mut self, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        if self.gen_op_queued || self.gen.is_none() {
            return;
        }
        // Closed loop over `gen_concurrency` local processes.
        let in_flight = self.ops.values().filter(|o| o.from_gen).count();
        if in_flight >= self.cfg.gen_concurrency.max(1) {
            return;
        }
        let now = ctx.now();
        let mut gen = self.gen.take().unwrap();
        let next = gen.next_op(ctx.rng(), now);
        self.gen = Some(gen);
        if let Some((think, op)) = next {
            self.queued_gen_op = Some(op);
            self.gen_op_queued = true;
            let token = self.timers.insert(ClientTimer::NextOp);
            ctx.set_timer(think, token);
        }
    }

    /// Deny an op at submission time without entering the op table.
    fn deny_submit(
        &mut self,
        id: OpId,
        kind: &'static str,
        err: FsErr,
        from_gen: bool,
        ctx: &mut Ctx<'_, NetMsg, Ob>,
    ) {
        self.stats.denied += 1;
        if !from_gen {
            self.log_result(id, Err(err));
        }
        self.emit(
            Event::OpCompleted {
                op: id,
                kind,
                ok: false,
                err: Some(err),
            },
            ctx,
        );
        if from_gen {
            self.maybe_next_gen_op(ctx);
        }
    }

    /// Submit an operation on behalf of a local process, now. Its result
    /// is logged for [`take_result`](Self::take_result) and announced by
    /// an [`Event::OpCompleted`] once it completes — within this call,
    /// if it is refused at admission.
    pub fn submit(&mut self, op: FsOp, ctx: &mut Ctx<'_, NetMsg, Ob>) -> OpId {
        self.start_op(op, false, ctx)
    }

    fn start_op(&mut self, op: FsOp, from_gen: bool, ctx: &mut Ctx<'_, NetMsg, Ob>) -> OpId {
        self.stats.submitted += 1;
        let id = OpId(self.next_op_id);
        self.next_op_id += 1;
        self.emit(
            Event::OpSubmitted {
                op: id,
                kind: op.kind(),
            },
            ctx,
        );
        self.route_op(id, op, from_gen, ctx);
        id
    }

    fn route_op(&mut self, id: OpId, op: FsOp, from_gen: bool, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let kind = op.kind();
        if let FsOp::Rename { .. } = &op {
            return self.submit_rename(id, op, from_gen, ctx);
        }
        let parts: Vec<String> = op
            .path()
            .split('/')
            .filter(|p| !p.is_empty())
            .map(str::to_owned)
            .collect();
        // Route by the top-level component: the shard owning that name's
        // dentry governs the whole subtree entered through it. The bare
        // root belongs to shard 0, except a full listing which fans out.
        let root = match parts.first() {
            Some(name) => self.map.root_of(self.map.place_top(name)),
            None => self.map.root_of(ServerId(0)),
        };
        if matches!(op, FsOp::List { .. }) && parts.is_empty() {
            return self.submit_list_fanout(id, op, from_gen, ctx);
        }
        if self.cfg.phase3_gate && !self.lanes[self.lane_of_ino(root)].serving {
            // §3.2 phase 3+ on the governing shard: new file-system
            // requests against it are not serviced. Other shards' ops are
            // unaffected — that is the blast-radius contract. With the
            // gate disabled (negative control) the op is admitted and the
            // checker's coherence audit flags whatever the quiesced cache
            // serves.
            return self.deny_submit(id, kind, FsErr::Suspended, from_gen, ctx);
        }
        let to_parent = matches!(
            op,
            FsOp::Create { .. } | FsOp::Mkdir { .. } | FsOp::Delete { .. }
        );
        let mut active = ActiveOp {
            op,
            state: OpState::MetaWait,
            from_gen,
            ino: None,
        };
        if to_parent && parts.is_empty() {
            // Creating "/" or deleting "/" is invalid.
            self.ops.insert(id, active);
            return self.complete_op(id, Err(FsErr::Invalid), ctx);
        }
        if !to_parent {
            if let Some(&ino) = self.name_cache.get(op_path(&active.op).as_str()) {
                active.state = OpState::MetaWait;
                self.ops.insert(id, active);
                return self.op_resolved(id, ino, ctx);
            }
        }
        let resolve_len = if to_parent {
            parts.len() - 1
        } else {
            parts.len()
        };
        if resolve_len == 0 {
            // Target is the root itself (or a root-level create).
            active.state = OpState::Resolve {
                parts,
                idx: 0,
                cur: root,
                to_parent,
            };
            self.ops.insert(id, active);
            self.op_resolved(id, root, ctx);
        } else {
            active.state = OpState::Resolve {
                parts,
                idx: 0,
                cur: root,
                to_parent,
            };
            self.ops.insert(id, active);
            self.resolve_step(id, ctx);
        }
    }

    /// List the namespace root: every shard owns a slice of the top-level
    /// directory, so a full listing is a fan-out of one ReadDir per shard
    /// root, merged client-side.
    fn submit_list_fanout(
        &mut self,
        id: OpId,
        op: FsOp,
        from_gen: bool,
        ctx: &mut Ctx<'_, NetMsg, Ob>,
    ) {
        let kind = op.kind();
        if !self.lanes.iter().all(|l| l.serving) {
            return self.deny_submit(id, kind, FsErr::Suspended, from_gen, ctx);
        }
        self.ops.insert(
            id,
            ActiveOp {
                op,
                state: OpState::MetaWait,
                from_gen,
                ino: None,
            },
        );
        self.list_fanout.insert(
            id,
            ListFanout {
                waiting: self.lanes.len(),
                entries: Vec::new(),
            },
        );
        for lane in 0..self.lanes.len() {
            let dir = self.map.root_of(self.lanes[lane].sid);
            self.send_request(
                lane,
                RequestBody::ReadDir { dir },
                Purpose::ListShard { op: id },
                true,
                ctx,
            );
        }
    }

    /// Submit a rename. Only top-level single-component files are
    /// renameable (the sharded namespace splits the root directory, so
    /// this is exactly the case where the two dentries can live on
    /// different servers). The client drives it as a two-lock transaction:
    /// Exclusive locks on both shard-root directories taken in ino order
    /// (deadlock-free: roots are `Ino(1+sid)`, so ino order IS ServerId
    /// order), then link at the destination, then unlink at the source.
    fn submit_rename(&mut self, id: OpId, op: FsOp, from_gen: bool, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let kind = op.kind();
        let FsOp::Rename { from, to } = &op else {
            unreachable!("submit_rename only sees renames")
        };
        let fparts: Vec<&str> = from.split('/').filter(|p| !p.is_empty()).collect();
        let tparts: Vec<&str> = to.split('/').filter(|p| !p.is_empty()).collect();
        if fparts.len() != 1 || tparts.len() != 1 {
            return self.deny_submit(id, kind, FsErr::Invalid, from_gen, ctx);
        }
        let (src_name, dst_name) = (fparts[0].to_owned(), tparts[0].to_owned());
        if src_name == dst_name {
            // Renaming to itself: trivially done.
            self.ops.insert(
                id,
                ActiveOp {
                    op,
                    state: OpState::MetaWait,
                    from_gen,
                    ino: None,
                },
            );
            return self.complete_op(id, Ok(FsData::Unit), ctx);
        }
        let src_dir = self.map.root_of(self.map.place_top(&src_name));
        let dst_dir = self.map.root_of(self.map.place_top(&dst_name));
        if !self.lanes[self.lane_of_ino(src_dir)].serving
            || !self.lanes[self.lane_of_ino(dst_dir)].serving
        {
            return self.deny_submit(id, kind, FsErr::Suspended, from_gen, ctx);
        }
        self.ops.insert(
            id,
            ActiveOp {
                op,
                state: OpState::MetaWait,
                from_gen,
                ino: None,
            },
        );
        self.renames.insert(
            id,
            RenameFlow {
                src_dir,
                dst_dir,
                src_name,
                dst_name,
                ino: None,
                stage: RenameStage::NeedLookup,
            },
        );
        self.rename_advance(id, ctx);
    }

    /// Drive a rename forward: acquire both directory locks (in ino
    /// order), then look up the source entry. Re-entered from
    /// `on_lock_granted` via the parked-op path.
    fn rename_advance(&mut self, id: OpId, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let Some(flow) = self.renames.get(&id) else {
            return;
        };
        if flow.stage != RenameStage::NeedLookup {
            return; // already past lock acquisition
        }
        let (src_dir, dst_dir, src_name) = (flow.src_dir, flow.dst_dir, flow.src_name.clone());
        let mut dirs = vec![src_dir, dst_dir];
        dirs.sort();
        dirs.dedup();
        for d in dirs {
            let covered = matches!(
                self.locks.get(&d),
                Some(LockEntry::Held(info)) if info.mode.covers(LockMode::Exclusive)
            );
            if !covered {
                // ensure_lock_then parks the op on `d`; the grant kicks it
                // back into run_data_op → rename_advance, which takes the
                // next lock (strictly in order) or proceeds.
                return self.ensure_lock_then(id, d, LockMode::Exclusive, ctx);
            }
        }
        if let Some(flow) = self.renames.get_mut(&id) {
            flow.stage = RenameStage::AwaitLookup;
        }
        let lane = self.lane_of_ino(src_dir);
        self.send_request(
            lane,
            RequestBody::Lookup {
                parent: src_dir,
                name: src_name,
            },
            Purpose::Rename { op: id },
            true,
            ctx,
        );
    }

    fn resolve_step(&mut self, id: OpId, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let Some(active) = self.ops.get(&id) else {
            return;
        };
        let OpState::Resolve {
            parts,
            idx,
            cur,
            to_parent,
        } = &active.state
        else {
            return;
        };
        let limit = if *to_parent {
            parts.len() - 1
        } else {
            parts.len()
        };
        if *idx >= limit {
            let cur = *cur;
            return self.op_resolved(id, cur, ctx);
        }
        let body = RequestBody::Lookup {
            parent: *cur,
            name: parts[*idx].clone(),
        };
        let lane = self.lane_of_ino(*cur);
        self.send_request(lane, body, Purpose::Resolve { op: id }, true, ctx);
    }

    /// The op's target (or parent, for to_parent ops) is known.
    fn op_resolved(&mut self, id: OpId, ino: Ino, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let Some(active) = self.ops.get_mut(&id) else {
            return;
        };
        active.ino = Some(ino);
        let lane = self.map.owner_of(ino).0 as usize;
        match &active.op {
            FsOp::Create { path } => {
                let name = last_component(path);
                active.state = OpState::MetaWait;
                self.send_request(
                    lane,
                    RequestBody::Create { parent: ino, name },
                    Purpose::Meta { op: id },
                    true,
                    ctx,
                );
            }
            FsOp::Mkdir { path } => {
                let name = last_component(path);
                active.state = OpState::MetaWait;
                self.send_request(
                    lane,
                    RequestBody::Mkdir { parent: ino, name },
                    Purpose::Meta { op: id },
                    true,
                    ctx,
                );
            }
            FsOp::Delete { path } => {
                let name = last_component(path);
                active.state = OpState::MetaWait;
                self.send_request(
                    lane,
                    RequestBody::Unlink { parent: ino, name },
                    Purpose::Meta { op: id },
                    true,
                    ctx,
                );
            }
            FsOp::Stat { .. } => {
                active.state = OpState::MetaWait;
                if self.stat_from_lock(id, ino, ctx) {
                    return;
                }
                let under = self.attr_admissible(ino);
                self.send_request(
                    lane,
                    RequestBody::GetAttr { ino },
                    Purpose::Attr { op: id, ino, under },
                    true,
                    ctx,
                );
            }
            FsOp::List { .. } => {
                active.state = OpState::MetaWait;
                self.send_request(
                    lane,
                    RequestBody::ReadDir { dir: ino },
                    Purpose::Meta { op: id },
                    true,
                    ctx,
                );
            }
            FsOp::Rename { .. } => {
                unreachable!("renames never take the resolve path")
            }
            FsOp::Read { .. } => {
                // Shared-read mode lets N clients serve a hot file
                // from N caches; disabled, reads contend for the
                // exclusive lock like writes (the E17 baseline).
                let mode = if self.cfg.shared_read {
                    LockMode::SharedRead
                } else {
                    LockMode::Exclusive
                };
                self.ensure_lock_then(id, ino, mode, ctx);
            }
            FsOp::Write { data, .. } if data.is_empty() => {
                // Nothing to write: no lock, no block, no size change.
                self.complete_op(id, Ok(FsData::Unit), ctx);
            }
            FsOp::Write { .. } => {
                self.ensure_lock_then(id, ino, LockMode::Exclusive, ctx);
            }
            FsOp::Flush { .. } => {
                if self.cache.dirty_len(ino) == 0 {
                    self.finish_flush_commit(ino, Some(id), ctx);
                } else {
                    active.state = OpState::WaitFlush;
                    self.start_flush(ino, AfterFlush::CompleteOp(id), ctx);
                }
            }
            FsOp::Release { .. } => {
                if !matches!(self.locks.get(&ino), Some(LockEntry::Held(_))) {
                    return self.complete_op(id, Ok(FsData::Unit), ctx);
                }
                // Lazy release: absorb the voluntary release locally. The
                // lock stays Held and the cache stays warm, so the op
                // costs zero round trips; a server demand (or the retained
                // set overflowing) later sends the lock back through the
                // eager path. Nothing changes on the wire, so Theorem
                // 3.1's per-message renewal argument is untouched. A
                // deferred demand means the server already wants this
                // ino — hand it over eagerly instead.
                if self.cfg.lazy_release && !self.deferred_demands.contains_key(&ino) {
                    self.retain_release(ino, ctx);
                    return self.complete_op(id, Ok(FsData::Unit), ctx);
                }
                if self.cache.dirty_len(ino) == 0 {
                    self.ops.get_mut(&id).unwrap().state = OpState::WaitFlush;
                    self.commit_then_release(ino, Some(id), ctx);
                } else {
                    self.ops.get_mut(&id).unwrap().state = OpState::WaitFlush;
                    self.start_flush(ino, AfterFlush::Release { complete: Some(id) }, ctx);
                }
            }
        }
    }

    // -------------------------------------------------------------- locks

    /// Record `ino` as lazily retained (most recent last) and evict the
    /// oldest retained locks past the cap through the eager release path
    /// they skipped at absorb time.
    fn retain_release(&mut self, ino: Ino, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        self.lazy_retained.retain(|i| *i != ino);
        self.lazy_retained.push(ino);
        while self.lazy_retained.len() > LAZY_RELEASE_CAP {
            let evict = self.lazy_retained.remove(0);
            if matches!(self.locks.get(&evict), Some(LockEntry::Held(_))) {
                self.hand_back(evict, ctx);
            }
        }
    }

    fn ensure_lock_then(
        &mut self,
        id: OpId,
        ino: Ino,
        mode: LockMode,
        ctx: &mut Ctx<'_, NetMsg, Ob>,
    ) {
        match self.locks.get(&ino) {
            Some(LockEntry::Held(info)) if info.mode.covers(mode) => {
                self.run_data_op(id, ino, ctx);
            }
            Some(LockEntry::Held(info)) => {
                // Upgrade needed.
                let need_send = !info.upgrading;
                if let Some(LockEntry::Held(info)) = self.locks.get_mut(&ino) {
                    info.upgrading = true;
                }
                self.park(id, ino, mode);
                if need_send {
                    self.send_acquire(ino, LockMode::Exclusive, ctx);
                }
            }
            Some(LockEntry::Acquiring) => self.park(id, ino, mode),
            Some(LockEntry::Releasing(_)) => self.park(id, ino, mode),
            None => {
                self.locks.insert(ino, LockEntry::Acquiring);
                self.park(id, ino, mode);
                self.send_acquire(ino, mode, ctx);
            }
        }
    }

    /// Ask `ino`'s server for the lock in `mode`, under the lock's current
    /// generation so a reply to an earlier tenure is recognised as stale.
    fn send_acquire(&mut self, ino: Ino, mode: LockMode, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let gen = self.gen_of(ino);
        let lane = self.lane_of_ino(ino);
        let body = RequestBody::LockAcquire { ino, mode };
        self.send_request(lane, body, Purpose::Lock { ino, gen }, true, ctx);
    }

    /// Hand a held lock back to its server: straight away when nothing
    /// under it is dirty, after a write-back flush otherwise.
    fn hand_back(&mut self, ino: Ino, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        if self.cache.dirty_len(ino) == 0 {
            self.commit_then_release(ino, None, ctx);
        } else {
            self.start_flush(ino, AfterFlush::Release { complete: None }, ctx);
        }
    }

    fn park(&mut self, id: OpId, ino: Ino, mode: LockMode) {
        if let Some(a) = self.ops.get_mut(&id) {
            a.state = OpState::WaitLock { mode };
        }
        self.parked.entry(ino).or_default().push(id);
    }

    fn on_lock_granted(
        &mut self,
        ino: Ino,
        mode: LockMode,
        epoch: Epoch,
        blocks: Vec<BlockId>,
        size: u64,
        ctx: &mut Ctx<'_, NetMsg, Ob>,
    ) {
        // A grant landing while we are releasing is from a dead era (the
        // release is already on the wire; the server has executed or will
        // execute it after the grant): installing it would let us write
        // under an epoch the server no longer honours.
        if matches!(self.locks.get(&ino), Some(LockEntry::Releasing(_))) {
            return;
        }
        // Merge with an existing holding of the same epoch (duplicate or
        // reordered grant): the block map and size only ever grow within
        // an epoch, and the write-sequence counter must never reset (tags
        // must stay monotone).
        if let Some(LockEntry::Held(prev)) = self.locks.get_mut(&ino) {
            if prev.epoch == epoch {
                if blocks.len() > prev.blocks.len() {
                    prev.blocks = blocks;
                }
                prev.size = prev.size.max(size);
                prev.mode = mode;
                prev.upgrading = false;
                self.kick_parked(ino, ctx);
                self.satisfy_deferred_demand(ino, ctx);
                return;
            }
        }
        self.locks.insert(
            ino,
            LockEntry::Held(LockInfo {
                mode,
                epoch,
                blocks,
                size,
                committed_size: size,
                upgrading: false,
                attr: None,
                mutations: 0,
            }),
        );
        self.kick_parked(ino, ctx);
        self.satisfy_deferred_demand(ino, ctx);
    }

    /// A demand arrived while the lock state was in motion: now that it
    /// settled (grant landed / release confirmed), hand the demanded grant
    /// over — or tell the server it is already gone.
    fn satisfy_deferred_demand(&mut self, ino: Ino, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let Some(demanded) = self.deferred_demands.remove(&ino) else {
            return;
        };
        match self.locks.get(&ino) {
            // Hand the holding over (flush first), full teardown.
            Some(LockEntry::Held(_)) => self.hand_back(ino, ctx),
            Some(LockEntry::Releasing(info)) if info.epoch == demanded => {}
            Some(LockEntry::Releasing(_)) | Some(LockEntry::Acquiring) => {
                // Still in motion: keep waiting.
                self.deferred_demands.insert(ino, demanded);
            }
            None => {
                let lane = self.lane_of_ino(ino);
                self.send_request(
                    lane,
                    RequestBody::LockRelease {
                        ino,
                        epoch: demanded,
                    },
                    Purpose::ReleaseStale,
                    false,
                    ctx,
                );
            }
        }
    }

    fn kick_parked(&mut self, ino: Ino, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let Some(ids) = self.parked.remove(&ino) else {
            return;
        };
        let mut still_parked = Vec::new();
        for id in ids {
            let Some(a) = self.ops.get(&id) else { continue };
            let OpState::WaitLock { mode } = a.state else {
                continue;
            };
            match self.locks.get(&ino) {
                Some(LockEntry::Held(info)) if info.mode.covers(mode) => {
                    self.run_data_op(id, ino, ctx);
                }
                Some(LockEntry::Held(info)) => {
                    // Held but not covering: (re)request the upgrade.
                    let need_send = !info.upgrading;
                    if let Some(LockEntry::Held(info)) = self.locks.get_mut(&ino) {
                        info.upgrading = true;
                    }
                    still_parked.push(id);
                    if need_send {
                        self.send_acquire(ino, LockMode::Exclusive, ctx);
                    }
                }
                Some(LockEntry::Acquiring) | Some(LockEntry::Releasing(_)) => still_parked.push(id),
                None => {
                    // Lock vanished (release/expiry): restart acquisition.
                    self.locks.insert(ino, LockEntry::Acquiring);
                    still_parked.push(id);
                    self.send_acquire(ino, mode, ctx);
                }
            }
        }
        if !still_parked.is_empty() {
            self.parked.entry(ino).or_default().extend(still_parked);
        }
    }

    // ------------------------------------------------------------ data ops

    /// The op holds a covering lock; run its data phase.
    fn run_data_op(&mut self, id: OpId, ino: Ino, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let Some(active) = self.ops.get(&id) else {
            return;
        };
        match &active.op {
            FsOp::Read { offset, len, .. } => {
                let (offset, len) = (*offset, *len);
                self.run_read(id, ino, offset, len, ctx);
            }
            FsOp::Write { offset, data, .. } => {
                let (offset, dlen) = (*offset, data.len());
                self.run_write_prepare(id, ino, offset, dlen, ctx);
            }
            FsOp::Rename { .. } => {
                // A directory lock the rename was parked on was granted;
                // take the next lock or start the lookup chain.
                self.rename_advance(id, ctx);
            }
            _ => unreachable!("only read/write/rename take the data path"),
        }
    }

    fn run_read(
        &mut self,
        id: OpId,
        ino: Ino,
        offset: u64,
        len: u32,
        ctx: &mut Ctx<'_, NetMsg, Ob>,
    ) {
        let Some(LockEntry::Held(info)) = self.locks.get(&ino) else {
            return self.complete_op(id, Err(FsErr::LeaseLost), ctx);
        };
        let (size, epoch) = (info.size, info.epoch);
        let nblocks = info.blocks.len();
        if offset >= size || len == 0 {
            return self.complete_op(id, Ok(FsData::Bytes(Vec::new())), ctx);
        }
        let end = (offset + len as u64).min(size);
        let bs = self.cfg.block_size as u64;
        let first = (offset / bs) as u32;
        let last = ((end - 1) / bs) as u32;
        // A resident block is a hit, counted at serve time so the counter
        // matches the `from_cache` events one-for-one; a mapped block that
        // is not resident is fetched. Holes are neither.
        let misses = self.uncached(ino, &info.blocks, first..=last);
        let waiting = misses.len();
        if waiting == 0 {
            return self.finish_read(id, ino, ctx);
        }
        let mut fetched: Vec<u32> = Vec::with_capacity(waiting);
        for (idx, block) in misses {
            fetched.push(idx);
            self.san_read(
                ino,
                idx,
                block,
                SanOp::OpRead {
                    op: id,
                    ino,
                    idx,
                    epoch,
                },
                ctx,
            );
        }
        // The read now waits on the SAN: pin every block it will serve, so
        // no other read's trim evicts one before it is answered.
        for idx in (first..=last).filter(|&idx| (idx as usize) < nblocks) {
            self.pin_for(id, ino, idx);
        }
        self.read_fetched.entry(id).or_default().extend(fetched);
        if let Some(a) = self.ops.get_mut(&id) {
            a.state = OpState::SanReads {
                waiting,
                then_write: false,
            };
        }
    }

    /// Phase gate for *serving* cached data (DESIGN.md Figure 4): only a
    /// lane in phases 1–2 may serve. Once the lease turns Suspect the
    /// lane stops `serving` and its quiesced cache answers nothing until
    /// recovery — every cached-read serve path must consult this.
    fn cache_usable(&self, ino: Ino) -> bool {
        !self.cfg.phase3_gate || self.lanes[self.lane_of_ino(ino)].serving
    }

    /// Admission gate for *filling* the cache: data may enter only if it
    /// was read under the lock epoch we still hold. A SAN response that
    /// crossed a release/re-grant is a stale snapshot of the block —
    /// every cache fill must consult this.
    fn may_admit(&self, ino: Ino, epoch: Epoch) -> bool {
        matches!(
            self.locks.get(&ino),
            Some(LockEntry::Held(info)) if info.epoch == epoch
        )
    }

    /// Serve a `Stat` from the attributes cached under the lock on `ino`:
    /// the entry must be `Held` with admitted attributes and the lane in
    /// phase 1–2 (the serve funnel reads use). The size reported is the
    /// holder's local one — under `Exclusive` it includes growth not yet
    /// committed, which only this client can have caused.
    fn stat_from_lock(&mut self, id: OpId, ino: Ino, ctx: &mut Ctx<'_, NetMsg, Ob>) -> bool {
        if !self.cache_usable(ino) {
            return false;
        }
        let Some(LockEntry::Held(info)) = self.locks.get(&ino) else {
            return false;
        };
        let Some(attr) = info.attr else {
            return false;
        };
        let data = FsData::Attr {
            size: info.size,
            is_dir: attr.is_dir,
            version: attr.version,
        };
        self.stats.attr_hits += 1;
        if let Some(obs) = &self.obs {
            obs.attr_hits.inc();
        }
        self.emit(
            Event::AttrServed {
                ino,
                from_cache: true,
            },
            ctx,
        );
        self.complete_op(id, Ok(data), ctx);
        true
    }

    /// Complete a `Stat` with attributes the server just sent.
    fn stat_from_server(
        &mut self,
        id: OpId,
        ino: Ino,
        attr: FileAttr,
        ctx: &mut Ctx<'_, NetMsg, Ob>,
    ) {
        if !self.ops.contains_key(&id) {
            return; // the op already failed (lane expiry): nothing is served
        }
        self.stats.attr_misses += 1;
        if let Some(obs) = &self.obs {
            obs.attr_misses.inc();
        }
        self.emit(
            Event::AttrServed {
                ino,
                from_cache: false,
            },
            ctx,
        );
        let data = FsData::Attr {
            size: attr.size,
            is_dir: attr.is_dir,
            version: attr.version,
        };
        self.complete_op(id, Ok(data), ctx);
    }

    /// What a `GetAttr` for `ino` leaving now may later be admitted
    /// under: the held grant's epoch and own-mutation generation. `None`
    /// when no grant is `Held`, or when an own mutation of the inode is
    /// still unanswered — the network may deliver it *after* this request,
    /// and the reply would then describe the inode before it.
    fn attr_admissible(&self, ino: Ino) -> Option<(Epoch, u64)> {
        let Some(LockEntry::Held(info)) = self.locks.get(&ino) else {
            return None;
        };
        let unanswered = self.pending.values().any(|p| mutates(&p.body, ino))
            || self.lanes[self.lane_of_ino(ino)]
                .queue
                .iter()
                .any(|(body, _, _)| mutates(body, ino));
        (!unanswered).then_some((info.epoch, info.mutations))
    }

    /// Admission gate for the attribute cache, the attribute half of
    /// [`may_admit`](Self::may_admit): the reply's request must have left
    /// under the grant still held, and no own mutation of the inode may
    /// have been sent since — one that was has changed the version this
    /// reply reports (or is about to).
    fn admit_attr(&mut self, ino: Ino, under: (Epoch, u64), attr: &FileAttr) {
        let (epoch, mutations) = under;
        if !self.may_admit(ino, epoch) {
            return;
        }
        if let Some(LockEntry::Held(info)) = self.locks.get_mut(&ino) {
            if info.mutations == mutations {
                info.attr = Some(CachedAttr {
                    version: attr.version,
                    is_dir: attr.is_dir,
                });
            }
        }
    }

    fn finish_read(&mut self, id: OpId, ino: Ino, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let Some(active) = self.ops.get(&id) else {
            return;
        };
        let FsOp::Read { offset, len, .. } = &active.op else {
            return;
        };
        let (offset, len) = (*offset, *len);
        let Some(LockEntry::Held(info)) = self.locks.get(&ino) else {
            return self.complete_op(id, Err(FsErr::LeaseLost), ctx);
        };
        // Phase-3 serve gate (Figure 4): the lease turned Suspect while
        // this read was in flight — a quiesced cache serves nothing, the
        // op fails exactly as if it had arrived after the gate closed.
        if !self.cache_usable(ino) {
            self.read_fetched.remove(&id);
            return self.complete_op(id, Err(FsErr::Suspended), ctx);
        }
        let (size, epoch) = (info.size, info.epoch);
        let bs = self.cfg.block_size as u64;
        let end = (offset + len as u64).min(size);
        let first = (offset / bs) as u32;
        let last = ((end - 1) / bs) as u32;
        // The op's blocks are pinned against capacity trims, but a lock
        // hand-off while its SAN fetches were in flight drops the file's
        // blocks all the same: refetch before serving (zeros here would be
        // silent corruption).
        let misses = self.uncached(ino, &info.blocks, first..=last);
        let missing = misses.len();
        for (idx, block) in misses {
            self.stats.cache_refetches += 1;
            if let Some(obs) = &self.obs {
                obs.cache_refetches.inc();
            }
            self.read_fetched.entry(id).or_default().push(idx);
            self.san_read(
                ino,
                idx,
                block,
                SanOp::OpRead {
                    op: id,
                    ino,
                    idx,
                    epoch,
                },
                ctx,
            );
        }
        if missing > 0 {
            if let Some(a) = self.ops.get_mut(&id) {
                a.state = OpState::SanReads {
                    waiting: missing,
                    then_write: false,
                };
            }
            return;
        }
        let fetched = self.read_fetched.remove(&id).unwrap_or_default();
        let mut out = Vec::with_capacity((end - offset) as usize);
        let mut served: Vec<(u32, WriteTag, bool)> = Vec::new();
        for idx in first..=last {
            let bstart = idx as u64 * bs;
            let lo = offset.max(bstart) - bstart;
            let hi = end.min(bstart + bs) - bstart;
            match self.cache.get(ino, idx) {
                Some(b) => {
                    out.extend_from_slice(&b.data[lo as usize..hi as usize]);
                    // From cache iff it was already resident when the read
                    // was admitted (not just fetched on its behalf).
                    served.push((idx, b.tag, !fetched.contains(&idx)));
                }
                None => {
                    // Hole (never-written block): zeros, not cache data.
                    out.extend(std::iter::repeat_n(0u8, (hi - lo) as usize));
                    served.push((idx, WriteTag::default(), false));
                }
            }
        }
        let hits = served.iter().filter(|(_, _, fc)| *fc).count() as u64;
        self.stats.cache_hits += hits;
        if let Some(obs) = &self.obs {
            obs.cache_hits.add(hits);
        }
        for &(idx, _, _) in &served {
            self.cache.touch(ino, idx);
        }
        self.unpin_op(id);
        let evicted = self.cache.trim();
        if evicted > 0 {
            self.stats.cache_evictions += evicted as u64;
            if let Some(obs) = &self.obs {
                obs.cache_evictions.add(evicted as u64);
            }
        }
        for (idx, tag, from_cache) in served {
            self.emit(
                Event::ReadServed {
                    ino,
                    idx,
                    tag,
                    from_cache,
                },
                ctx,
            );
        }
        self.complete_op(id, Ok(FsData::Bytes(out)), ctx);
    }

    fn run_write_prepare(
        &mut self,
        id: OpId,
        ino: Ino,
        offset: u64,
        dlen: usize,
        ctx: &mut Ctx<'_, NetMsg, Ob>,
    ) {
        let bs = self.cfg.block_size as u64;
        let end = offset + dlen as u64;
        let needed = end.div_ceil(bs) as usize;
        if self.write_grant(id, ino, ctx).is_none() {
            return;
        }
        let Some(LockEntry::Held(info)) = self.locks.get(&ino) else {
            return;
        };
        if needed > info.blocks.len() {
            let count = (needed - info.blocks.len()) as u32;
            if let Some(a) = self.ops.get_mut(&id) {
                a.state = OpState::WaitAlloc;
            }
            let lane = self.lane_of_ino(ino);
            self.send_request(
                lane,
                RequestBody::AllocBlocks { ino, count },
                Purpose::Alloc { op: id, ino },
                true,
                ctx,
            );
            return;
        }
        // Read-modify-write: partial blocks that may hold live data and
        // are not cached must be fetched first.
        let (size, epoch) = (info.size, info.epoch);
        let first = (offset / bs) as u32;
        let last = ((end - 1) / bs) as u32;
        let partial: Vec<u32> = (first..=last)
            .filter(|&idx| {
                let bstart = idx as u64 * bs;
                let covers_fully = offset <= bstart && end >= bstart + bs;
                let has_live_data = bstart < size && (idx as usize) < info.blocks.len();
                !covers_fully && has_live_data
            })
            .collect();
        let misses = self.uncached(ino, &info.blocks, partial.iter().copied());
        let waiting = misses.len();
        if waiting == 0 {
            return self.apply_write(id, ino, epoch, ctx);
        }
        for (idx, block) in misses {
            self.san_read(
                ino,
                idx,
                block,
                SanOp::OpRead {
                    op: id,
                    ino,
                    idx,
                    epoch,
                },
                ctx,
            );
        }
        // Pin the partial blocks until the write lands: one evicted in the
        // meantime would be rewritten around zeros, its live bytes lost.
        for idx in partial {
            self.pin_for(id, ino, idx);
        }
        if let Some(a) = self.ops.get_mut(&id) {
            a.state = OpState::SanReads {
                waiting,
                then_write: true,
            };
        }
    }

    /// The epoch of the `Exclusive` grant write `id` on `ino` proceeds
    /// under. A write's preparation can outlive the grant it began under:
    /// an `Allocated` reply or an RMW read lands after a demand took the
    /// lock and a `SharedRead` re-grant replaced it. Under a read grant
    /// the op goes back to wait for `Exclusive`; with no grant it fails.
    /// `None` when the op does not proceed now.
    fn write_grant(&mut self, id: OpId, ino: Ino, ctx: &mut Ctx<'_, NetMsg, Ob>) -> Option<Epoch> {
        let (mode, epoch) = match self.locks.get(&ino) {
            Some(LockEntry::Held(info)) => (info.mode, info.epoch),
            _ => {
                self.complete_op(id, Err(FsErr::LeaseLost), ctx);
                return None;
            }
        };
        if mode.covers(LockMode::Exclusive) {
            return Some(epoch);
        }
        self.unpin_op(id);
        self.ensure_lock_then(id, ino, LockMode::Exclusive, ctx);
        None
    }

    /// Write `id`'s payload into the cache under the `Exclusive` grant of
    /// `epoch`. Every caller has just passed [`Self::write_grant`], or
    /// [`Self::may_admit`] under the epoch it returned, and a grant's
    /// epoch never changes mode: the write cannot park here.
    fn apply_write(&mut self, id: OpId, ino: Ino, epoch: Epoch, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let Some(active) = self.ops.get(&id) else {
            return;
        };
        let FsOp::Write { offset, data, .. } = &active.op else {
            return;
        };
        let (offset, dlen) = (*offset, data.len());
        // §3.2: by phase 4 the flush snapshot is final. An in-flight write
        // completing now would dirty the cache *behind* the flush and be
        // discarded at expiry — refuse it instead of lying to the process.
        if self.cfg.lease_enabled
            && matches!(
                self.lanes[self.lane_of_ino(ino)].lease.phase(ctx.now()),
                Phase::ExpectedFailure | Phase::Expired
            )
        {
            return self.complete_op(id, Err(FsErr::LeaseLost), ctx);
        }
        let me = ctx.node();
        let bs = self.cfg.block_size as u64;
        let end = offset + dlen as u64;
        // Past the phase-4 refusal the op completes below: take its
        // payload instead of cloning it. Taken any earlier, a parked or
        // refused write would lose its bytes.
        let data = match self.ops.get_mut(&id).map(|a| &mut a.op) {
            Some(FsOp::Write { data, .. }) => std::mem::take(data),
            _ => return,
        };
        let first = (offset / bs) as u32;
        let last = ((end - 1) / bs) as u32;
        let mut acked: Vec<(u32, WriteTag)> = Vec::new();
        for idx in first..=last {
            let bstart = idx as u64 * bs;
            let lo = offset.max(bstart);
            let hi = end.min(bstart + bs);
            // Odd wseq from the client-global counter: still monotone
            // within this lock's epoch, and never equal to any other tag
            // this client's writes produce under any epoch of any shard.
            self.next_wseq += 1;
            let tag = WriteTag {
                writer: me,
                epoch,
                wseq: 2 * self.next_wseq + 1,
            };
            let slice = &data[(lo - offset) as usize..(hi - offset) as usize];
            let covers_fully = lo == bstart && hi == bstart + bs;
            if self.cache.get(ino, idx).is_none() && !covers_fully {
                // Block has no live data (RMW skipped it): surround with
                // zeroes.
                let mut full = vec![0u8; bs as usize];
                full[(lo - bstart) as usize..(hi - bstart) as usize].copy_from_slice(slice);
                self.cache.write(ino, idx, 0, &full, tag);
            } else {
                self.cache
                    .write(ino, idx, (lo - bstart) as usize, slice, tag);
            }
            acked.push((idx, tag));
        }
        let grew = {
            let Some(LockEntry::Held(info)) = self.locks.get_mut(&ino) else {
                return self.complete_op(id, Err(FsErr::LeaseLost), ctx);
            };
            if end > info.size {
                info.size = end;
            }
            info.size > info.committed_size
        };
        for (idx, tag) in acked {
            self.emit(Event::WriteAcked { ino, idx, tag }, ctx);
        }
        if grew {
            // Commit size growth eagerly so other clients' views (block
            // map + size) stay fresh; data itself remains write-back.
            let new_size = match self.locks.get(&ino) {
                Some(LockEntry::Held(info)) => info.size,
                _ => end,
            };
            let lane = self.lane_of_ino(ino);
            self.send_request(
                lane,
                RequestBody::CommitWrite { ino, new_size },
                Purpose::Commit { ino },
                true,
                ctx,
            );
        }
        self.complete_op(id, Ok(FsData::Unit), ctx);
    }

    /// The blocks among `idxs` of `ino` that are mapped but not resident,
    /// with their SAN addresses in `blocks`: what a read or a
    /// read-modify-write must fetch, in index order.
    fn uncached(
        &self,
        ino: Ino,
        blocks: &[BlockId],
        idxs: impl IntoIterator<Item = u32>,
    ) -> Vec<(u32, BlockId)> {
        idxs.into_iter()
            .filter(|&idx| (idx as usize) < blocks.len() && self.cache.get(ino, idx).is_none())
            .map(|idx| (idx, blocks[idx as usize]))
            .collect()
    }

    /// Pin block `idx` of `ino` for op `id` (once per op), so no capacity
    /// trim evicts it before the op has used it.
    fn pin_for(&mut self, id: OpId, ino: Ino, idx: u32) {
        let (_, pinned) = self.op_pins.entry(id).or_insert_with(|| (ino, Vec::new()));
        if !pinned.contains(&idx) {
            pinned.push(idx);
            self.cache.pin(ino, idx);
        }
    }

    /// Release every pin op `id` holds.
    fn unpin_op(&mut self, id: OpId) {
        if let Some((ino, pinned)) = self.op_pins.remove(&id) {
            for idx in pinned {
                self.cache.unpin(ino, idx);
            }
        }
    }

    // --------------------------------------------------------------- SAN

    fn san_read(
        &mut self,
        _ino: Ino,
        _idx: u32,
        block: BlockId,
        what: SanOp,
        ctx: &mut Ctx<'_, NetMsg, Ob>,
    ) {
        let req_id = self.next_san_id;
        self.next_san_id += 1;
        self.san_ops.insert(req_id, what);
        self.stats.cache_misses += 1;
        if let Some(obs) = &self.obs {
            obs.cache_misses.inc();
        }
        let disk = self.cfg.disks[stripe_disk(block, self.cfg.disks.len())];
        ctx.send(
            NetId::SAN,
            disk,
            NetMsg::San(SanMsg::ReadBlock { req_id, block }),
        );
    }

    fn start_flush(&mut self, ino: Ino, after: AfterFlush, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let dirty = self.cache.dirty_of(ino);
        let nblocks = match self.locks.get(&ino) {
            Some(LockEntry::Held(info)) | Some(LockEntry::Releasing(info)) => info.blocks.len(),
            _ => 0,
        };
        let queue: VecDeque<_> = dirty
            .into_iter()
            .filter(|(idx, _, _)| (*idx as usize) < nblocks)
            .collect();
        if queue.is_empty() {
            return self.flush_done(ino, after, ctx);
        }
        let campaign = self.next_flush_id;
        self.next_flush_id += 1;
        self.flushes.insert(
            campaign,
            FlushCampaign {
                ino,
                remaining: queue.len(),
                in_flight: 0,
                queue,
                after,
            },
        );
        self.issue_flush_writes(campaign, ctx);
    }

    /// Issue queued flush writes up to the window.
    fn issue_flush_writes(&mut self, campaign: u64, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let window = self.cfg.flush_window.max(1);
        loop {
            let Some(c) = self.flushes.get_mut(&campaign) else {
                return;
            };
            if c.in_flight >= window {
                return;
            }
            let Some((idx, data, tag)) = c.queue.pop_front() else {
                return;
            };
            let ino = c.ino;
            c.in_flight += 1;
            let block = match self.locks.get(&ino) {
                Some(LockEntry::Held(info)) | Some(LockEntry::Releasing(info)) => {
                    info.blocks.get(idx as usize).copied()
                }
                _ => None,
            };
            let Some(block) = block else {
                // Lock vanished mid-campaign: count the block as done.
                if let Some(c) = self.flushes.get_mut(&campaign) {
                    c.in_flight -= 1;
                    c.remaining -= 1;
                }
                continue;
            };
            let req_id = self.next_san_id;
            self.next_san_id += 1;
            self.san_ops.insert(
                req_id,
                SanOp::FlushWrite {
                    campaign,
                    ino,
                    idx,
                    tag,
                },
            );
            let disk = self.cfg.disks[stripe_disk(block, self.cfg.disks.len())];
            ctx.send(
                NetId::SAN,
                disk,
                NetMsg::San(SanMsg::WriteBlock {
                    req_id,
                    block,
                    data,
                    tag,
                }),
            );
        }
    }

    fn flush_done(&mut self, ino: Ino, after: AfterFlush, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        match after {
            AfterFlush::Nothing => {}
            AfterFlush::CompleteOp(id) => {
                self.finish_flush_commit(ino, Some(id), ctx);
            }
            AfterFlush::Release { complete } => {
                // An in-flight write may have re-dirtied the file behind
                // the campaign's snapshot; flush again until clean, only
                // then release (releasing would discard the dirty data).
                // Without a held lock (or mapped blocks) nothing can be
                // flushed — proceed to the release rather than looping.
                let nblocks = match self.locks.get(&ino) {
                    Some(LockEntry::Held(info)) | Some(LockEntry::Releasing(info)) => {
                        info.blocks.len()
                    }
                    _ => 0,
                };
                let flushable = self
                    .cache
                    .dirty_of(ino)
                    .iter()
                    .any(|(idx, _, _)| (*idx as usize) < nblocks);
                if flushable {
                    self.start_flush(ino, AfterFlush::Release { complete }, ctx);
                } else {
                    self.commit_then_release(ino, complete, ctx);
                }
            }
        }
    }

    /// Commit the size if it grew, then complete the Flush op.
    fn finish_flush_commit(
        &mut self,
        ino: Ino,
        complete: Option<OpId>,
        ctx: &mut Ctx<'_, NetMsg, Ob>,
    ) {
        if let Some(LockEntry::Held(info)) = self.locks.get(&ino) {
            if info.size > info.committed_size {
                let new_size = info.size;
                let lane = self.lane_of_ino(ino);
                self.send_request(
                    lane,
                    RequestBody::CommitWrite { ino, new_size },
                    Purpose::Commit { ino },
                    true,
                    ctx,
                );
            }
        }
        if let Some(id) = complete {
            self.complete_op(id, Ok(FsData::Unit), ctx);
        }
    }

    /// Release tail, for an eager `Release` and a hand-back alike: ensure
    /// the committed size, then release. `complete` rides in the commit's
    /// purpose to [`send_release`](Self::send_release), which completes it.
    fn commit_then_release(
        &mut self,
        ino: Ino,
        complete: Option<OpId>,
        ctx: &mut Ctx<'_, NetMsg, Ob>,
    ) {
        let needs_commit = match self.locks.get(&ino) {
            Some(LockEntry::Held(info)) => info.size > info.committed_size,
            _ => false,
        };
        if needs_commit {
            let new_size = match self.locks.get(&ino) {
                Some(LockEntry::Held(info)) => info.size,
                _ => 0,
            };
            if self.cfg.batch_cap > 1 {
                // Pipelined handover: queue the commit, then let the
                // (urgent) release flush the lane — both travel in ONE
                // batch and the 2-round-trip commit→release chain costs
                // a single round trip. The commit never leaves on its own,
                // not even on an idle lane: a release that overtook it
                // would make the server refuse it `NotLocked`, and the
                // size would be lost. The server executes the batch in
                // order; if the commit fails, first-error-stops leaves the
                // release unexecuted and the lease machinery recovers.
                let lane = self.lane_of_ino(ino);
                if self.lanes[lane].queue.len() + 2 > self.batch_cap() {
                    self.flush_batch(lane, FLUSH_SIZE, ctx);
                }
                let commit = RequestBody::CommitWrite { ino, new_size };
                self.note_mutation(&commit);
                self.lanes[lane]
                    .queue
                    .push((commit, Purpose::Commit { ino }, true));
                self.send_release(ino, complete, ctx);
                return;
            }
            let lane = self.lane_of_ino(ino);
            self.send_request(
                lane,
                RequestBody::CommitWrite { ino, new_size },
                Purpose::CommitThenRelease { ino, complete },
                true,
                ctx,
            );
        } else {
            self.send_release(ino, complete, ctx);
        }
    }

    fn send_release(&mut self, ino: Ino, complete: Option<OpId>, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        // Final gate: a write may have slipped in during the commit round
        // trip. Releasing with dirty blocks would discard acknowledged
        // data, so flush again first. Once `Releasing` is set below, no
        // further write can apply.
        if self.cache.dirty_len(ino) > 0 && matches!(self.locks.get(&ino), Some(LockEntry::Held(_)))
        {
            return self.start_flush(ino, AfterFlush::Release { complete }, ctx);
        }
        // Name the exact grant being released so a racing newer grant at
        // the server cannot be torn down by this message. The grant info
        // moves into the Releasing state (still needed for flushing).
        let epoch = match self.locks.get(&ino) {
            Some(LockEntry::Held(info)) | Some(LockEntry::Releasing(info)) => info.epoch,
            _ => Epoch(0),
        };
        match self.locks.get(&ino).cloned() {
            Some(LockEntry::Held(info)) => {
                self.locks.insert(ino, LockEntry::Releasing(info));
            }
            Some(LockEntry::Releasing(_)) => {}
            _ => {
                // Nothing held: nothing to transition; the request below
                // (with its exact epoch) is pure server-side cleanup.
            }
        }
        let lane = self.lane_of_ino(ino);
        self.send_request(
            lane,
            RequestBody::LockRelease { ino, epoch },
            Purpose::Release { ino },
            true,
            ctx,
        );
        // The op's completion point. Every dirty block is hardened (the
        // gate above), a needed size commit was answered or shares the
        // release's batch, and `Releasing` serves nothing and parks every
        // new op on the ino until the answer: the answer cannot change
        // what the op promised, so it is not awaited (as `Flush` does not
        // await its commit).
        if let Some(id) = complete {
            self.complete_op(id, Ok(FsData::Unit), ctx);
        }
    }

    fn on_released(&mut self, ino: Ino, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        self.locks.remove(&ino);
        // The release ends this inode's lock era: a still-pending acquire
        // from before it (e.g. a dropped upgrade reply the server later
        // replays from its dedup window) would otherwise pass the
        // `Purpose::Lock` gen guard and reinstate the dead epoch with a
        // reset write-sequence counter — non-monotone tags.
        self.bump_gen(ino);
        self.lazy_retained.retain(|i| *i != ino);
        self.cache.invalidate_ino(ino);
        // Ops that arrived while releasing re-acquire.
        self.kick_parked(ino, ctx);
    }

    // ------------------------------------------------------------- pushes

    fn on_push(&mut self, from: NodeId, push: ServerPush, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        // Pushes are per-server: ack on (and dedup against) the lane of
        // the server that sent this one.
        let lane = self.lane_of_addr(from).unwrap_or(0);
        // Always ack (stops server retries); handle the body once.
        self.send_request(
            lane,
            RequestBody::PushAck {
                push_seq: push.push_seq,
            },
            Purpose::PushAckSend,
            false,
            ctx,
        );
        if !self.lanes[lane].seen_pushes.insert(push.push_seq) {
            return;
        }
        match push.body {
            PushBody::Demand { ino, epoch, .. } => {
                match self.locks.get(&ino) {
                    Some(LockEntry::Held(_)) => {
                        // Hand our holding over (flush first), with full
                        // local teardown. Even when the demand names a
                        // different grant generation, releasing what we
                        // hold is safe — epoch-qualified releases cannot
                        // hurt a grant that is not ours-as-held.
                        if let Some(obs) = &self.obs {
                            obs.cache_revokes.inc();
                        }
                        self.hand_back(ino, ctx);
                    }
                    Some(LockEntry::Releasing(info)) if info.epoch == epoch => {
                        // Already releasing exactly this grant.
                    }
                    Some(LockEntry::Releasing(_)) | Some(LockEntry::Acquiring) => {
                        // The demanded grant is still in motion toward us
                        // (a grant racing this demand, possibly behind a
                        // release of an older grant). Handle it when the
                        // state settles.
                        self.deferred_demands.insert(ino, epoch);
                    }
                    None => {
                        // We hold nothing (e.g. already expired locally):
                        // release exactly the demanded grant so the server
                        // can move on — qualified by its epoch, so this
                        // cannot tear down a newer grant racing toward us.
                        self.send_request(
                            lane,
                            RequestBody::LockRelease { ino, epoch },
                            Purpose::ReleaseStale,
                            false,
                            ctx,
                        );
                    }
                }
            }
            PushBody::Invalidate { ino } => {
                self.cache.invalidate_ino(ino);
            }
        }
    }

    // ------------------------------------------------------------ replies

    fn on_response(&mut self, resp: Response, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        // Detect a server restart before anything else: the incarnation is
        // stamped on every response, so even a NACK for a long-forgotten
        // sequence number tells us the server we knew is gone. Incarnations
        // are tracked per lane — one shard restarting says nothing about
        // the others.
        let Some(lane) = self.pending.get(&resp.seq).map(|p| p.lane) else {
            return;
        };
        let restarted = self.lanes[lane]
            .server_incarnation
            .replace(resp.incarnation)
            .is_some_and(|known| known != resp.incarnation);
        let Some(p) = self.pending.remove(&resp.seq) else {
            return;
        };
        match resp.outcome {
            ResponseOutcome::Acked(result) => {
                // Headroom must be read *before* the ACK extends the lease:
                // it is the margin the old lease still had when renewal
                // landed — the measured slack in Theorem 3.1's ordering.
                let prior_expiry = self.lanes[lane].lease.expiry();
                let now = ctx.now();
                let renewed = self.lanes[lane].lease.on_ack(resp.seq, now);
                if renewed {
                    if let Some(obs) = &self.obs {
                        obs.renewals.inc();
                        // The first ack of a session extends nothing, so
                        // headroom is only defined when a lease was live.
                        if let Some(e) = prior_expiry {
                            let headroom = e.0.saturating_sub(now.0);
                            obs.renewal_headroom_ns.observe(headroom);
                            obs.trace(ctx, "renewal", || format!("headroom_ns={headroom}"));
                        }
                    }
                    self.pump_lease(ctx);
                }
                self.dispatch_reply(p.lane, p.purpose, result, ctx);
            }
            ResponseOutcome::Nacked(reason) => self.on_nack(reason, restarted, p, ctx),
        }
        // After dispatch, so follow-ups the reply spawned ride along.
        self.open_gate(lane, resp.seq, true, ctx);
    }

    fn on_nack(
        &mut self,
        reason: NackReason,
        restarted: bool,
        p: PendingReq,
        ctx: &mut Ctx<'_, NetMsg, Ob>,
    ) {
        let lane = p.lane;
        match reason {
            NackReason::LeaseTimingOut => {
                // §3.3: we missed a message; this shard's cache is invalid;
                // enter phase 3 on its lane and prepare for recovery.
                self.lanes[lane].lease.on_nack(ctx.now());
                let was_hello = matches!(p.purpose, Purpose::Hello { .. });
                self.fail_purpose(p.lane, p.purpose, FsErr::Suspended, ctx);
                if was_hello {
                    // The server is still timing us out; try again after
                    // a respectful delay (its timer will fire eventually).
                    self.retry_hello(lane, HELLO_RETRY, ctx);
                }
                self.pump_lease(ctx);
            }
            NackReason::SessionExpired | NackReason::StaleSession if restarted => {
                self.on_server_restart(p, ctx);
            }
            NackReason::SessionExpired | NackReason::StaleSession
                if self.lanes[lane].session != Some(p.session)
                    && !matches!(p.purpose, Purpose::Hello { .. }) =>
            {
                // Sent before the lane's current session opened (say, a
                // keep-alive the Hello's own ACK asked for, stamped before
                // the reply was dispatched): the NACK judges the session it
                // carried, not this one, so only that request fails.
                self.fail_purpose(p.lane, p.purpose, FsErr::LeaseLost, ctx);
            }
            NackReason::SessionExpired | NackReason::StaleSession => {
                // Our session is dead at that server: its locks are stolen.
                // Unless this was the Hello itself, restart the lane with a
                // fresh session.
                if matches!(p.purpose, Purpose::Hello { .. }) {
                    self.lanes[lane].hello_inflight = false;
                    self.send_hello(lane, ctx);
                } else {
                    self.fail_purpose(p.lane, p.purpose, FsErr::LeaseLost, ctx);
                    self.local_expiry(lane, ctx);
                }
            }
            NackReason::Recovering => {
                // The restarted server is inside its grace window. Unlike
                // the NACKs above this does not condemn anything: our lease
                // and cache are still good (the server grants nothing that
                // could conflict until the window closes). The operation
                // just cannot be served yet.
                let was_hello = matches!(p.purpose, Purpose::Hello { .. });
                self.fail_purpose(p.lane, p.purpose, FsErr::Unavailable, ctx);
                if was_hello {
                    self.retry_hello(lane, HELLO_RETRY, ctx);
                }
            }
            NackReason::Misrouted(r) => {
                // A protocol redirect, not a lease judgment: the request
                // reached a server that does not govern its ino (or the
                // shard maps disagree). Nothing cached is condemned — the
                // op just fails back to the process, which can retry once
                // the topology question settles. `NotPrimary` carries a
                // hint: the shard's other address holds the role now, so
                // rotate the lane there before retrying — unless the lane
                // came here because that address went silent, and the
                // standby answering may still be about to elect.
                let was_hello = matches!(p.purpose, Purpose::Hello { .. });
                if was_hello {
                    self.lanes[lane].hello_inflight = false;
                }
                let rehoming = self.lanes[lane]
                    .rehome_until
                    .is_some_and(|until| ctx.now() < until);
                let not_primary = r == RouteError::NotPrimary;
                let rotated = not_primary && !rehoming && self.rotate_lane(lane, ctx);
                self.fail_purpose(p.lane, p.purpose, FsErr::Unavailable, ctx);
                if not_primary && rehoming {
                    // τ/40: the lane attaches within a few percent of τ
                    // after the election.
                    let poll = self.cfg.lease.tau.over(40);
                    self.retry_hello(lane, poll, ctx);
                } else if was_hello {
                    self.retry_hello(lane, HELLO_RETRY, ctx);
                } else if rotated {
                    // The lane's session died with the old primary;
                    // re-register at the standby so work can resume.
                    self.send_hello(lane, ctx);
                }
            }
        }
    }

    /// The server's incarnation changed under us: it crashed, restarted,
    /// and lost our session and lock state. Our lease is still good and
    /// the restarted server grants nothing that could conflict with us
    /// until its grace window closes, so dirty state is *not* condemned.
    /// A clean client (no locks, nothing dirty) simply re-registers. A
    /// client with holdings takes the normal phase-3/4 walk — quiesce,
    /// flush dirty blocks to the SAN, then tear down and re-`Hello` at its
    /// own expiry — exactly the sequence the grace window was sized to
    /// wait out.
    fn on_server_restart(&mut self, p: PendingReq, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let lane = p.lane;
        let sid = self.lanes[lane].sid;
        // "Clean" is judged per shard: only locks and dirty blocks this
        // server governs matter for its restart.
        let map = self.map;
        let clean = !self.locks.keys().any(|i| map.owner_of(*i) == sid)
            && !self
                .cache
                .dirty_inos()
                .iter()
                .any(|i| map.owner_of(*i) == sid);
        if clean {
            if matches!(p.purpose, Purpose::Hello { .. }) {
                self.lanes[lane].hello_inflight = false;
                self.send_hello(lane, ctx);
            } else {
                self.fail_purpose(p.lane, p.purpose, FsErr::LeaseLost, ctx);
                self.local_expiry(lane, ctx);
            }
            return;
        }
        self.lanes[lane].lease.on_nack(ctx.now());
        let was_hello = matches!(p.purpose, Purpose::Hello { .. });
        self.fail_purpose(p.lane, p.purpose, FsErr::Suspended, ctx);
        if was_hello {
            self.retry_hello(lane, HELLO_RETRY, ctx);
        }
        self.pump_lease(ctx);
    }

    fn fail_purpose(
        &mut self,
        lane: usize,
        purpose: Purpose,
        err: FsErr,
        ctx: &mut Ctx<'_, NetMsg, Ob>,
    ) {
        match purpose {
            Purpose::Resolve { op }
            | Purpose::Meta { op }
            | Purpose::Attr { op, .. }
            | Purpose::Alloc { op, .. } => {
                self.complete_op(op, Err(err), ctx);
            }
            Purpose::Lock { ino, gen } => {
                if gen != self.gen_of(ino) {
                    return; // a dead era's request; already handled
                }
                match self.locks.get_mut(&ino) {
                    Some(LockEntry::Held(info)) => {
                        // A holding exists (established by some other
                        // response); this failed request was at most an
                        // upgrade. The holding — and its dirty cache —
                        // stay; only the waiters give up.
                        info.upgrading = false;
                    }
                    Some(LockEntry::Acquiring) => {
                        // Nothing was ever granted in this era: clear the
                        // placeholder. No data can be cached under it.
                        self.locks.remove(&ino);
                        self.bump_gen(ino);
                        self.cache.invalidate_ino(ino);
                    }
                    _ => {}
                }
                let ids = self.parked.remove(&ino).unwrap_or_default();
                for id in ids {
                    self.complete_op(id, Err(err), ctx);
                }
            }
            Purpose::Release { ino } => {
                // The release was NACKed: its fate at the server is
                // unknown. Keep the Releasing state and the cache — the
                // lease machinery now owns recovery (phase-4 flush still
                // works from the retained grant info; expiry or session
                // reset cleans up). No op waits here: an eager `Release`
                // completed when this message left.
                let _ = ino;
            }
            Purpose::CommitThenRelease { ino, complete } => {
                self.send_release(ino, complete, ctx);
            }
            Purpose::Hello { .. } => {
                self.lanes[lane].hello_inflight = false;
            }
            Purpose::Rename { op } | Purpose::ListShard { op } => {
                // complete_op tears down the rename flow / fan-out state.
                self.complete_op(op, Err(err), ctx);
            }
            Purpose::Batch { elems } => {
                // The whole message failed: every element shares its fate.
                for p in elems {
                    self.fail_purpose(lane, p, err, ctx);
                }
            }
            Purpose::KeepAlive
            | Purpose::Commit { .. }
            | Purpose::PushAckSend
            | Purpose::ReleaseStale => {}
        }
    }

    fn dispatch_reply(
        &mut self,
        lane: usize,
        purpose: Purpose,
        result: Result<ReplyBody, FsError>,
        ctx: &mut Ctx<'_, NetMsg, Ob>,
    ) {
        match purpose {
            Purpose::Hello { sent_at } => {
                if let Ok(ReplyBody::HelloOk { session, .. }) = result {
                    self.on_hello_ok(lane, sent_at, session, ctx);
                } else {
                    self.lanes[lane].hello_inflight = false;
                    self.send_hello(lane, ctx);
                }
            }
            Purpose::KeepAlive | Purpose::PushAckSend => {}
            Purpose::Rename { op } => self.dispatch_rename(op, result, ctx),
            Purpose::ListShard { op } => {
                match result {
                    Ok(ReplyBody::Dir { entries }) => {
                        // The op may already have completed (another
                        // shard's failure): the fan-out is then gone.
                        let Some(f) = self.list_fanout.get_mut(&op) else {
                            return;
                        };
                        f.entries.extend(entries.into_iter().map(|(n, _)| n));
                        f.waiting -= 1;
                        if f.waiting == 0 {
                            let mut all = std::mem::take(&mut f.entries);
                            all.sort();
                            self.complete_op(op, Ok(FsData::Entries(all)), ctx);
                        }
                    }
                    Ok(_) => self.complete_op(op, Err(FsErr::Invalid), ctx),
                    Err(e) => {
                        let e = map_fs_error(e);
                        self.complete_op(op, Err(e), ctx);
                    }
                }
            }
            Purpose::Resolve { op } => match result {
                Ok(ReplyBody::Resolved { ino, attr }) => {
                    let Some(a) = self.ops.get_mut(&op) else {
                        return;
                    };
                    if let OpState::Resolve {
                        idx,
                        cur,
                        parts,
                        to_parent,
                    } = &mut a.state
                    {
                        *cur = ino;
                        *idx += 1;
                        let limit = if *to_parent {
                            parts.len() - 1
                        } else {
                            parts.len()
                        };
                        if *idx >= limit {
                            // Resolution finished. Stat can complete right
                            // here from the lookup's attributes.
                            if matches!(a.op, FsOp::Stat { .. }) {
                                return self.stat_from_server(op, ino, attr, ctx);
                            }
                            if !*to_parent {
                                let path = op_path(&a.op);
                                self.name_cache.insert(path, ino);
                            }
                            self.op_resolved(op, ino, ctx);
                        } else {
                            self.resolve_step(op, ctx);
                        }
                    }
                }
                Ok(_) => self.complete_op(op, Err(FsErr::Invalid), ctx),
                Err(e) => {
                    let e = map_fs_error(e);
                    self.complete_op(op, Err(e), ctx);
                }
            },
            Purpose::Attr { op, ino, under } => match result {
                Ok(ReplyBody::Attr { attr }) => {
                    if let Some(under) = under {
                        self.admit_attr(ino, under, &attr);
                    }
                    self.stat_from_server(op, ino, attr, ctx);
                }
                other => self.dispatch_reply(lane, Purpose::Meta { op }, other, ctx),
            },
            Purpose::Meta { op } => {
                let outcome: FsResult = match result {
                    Ok(ReplyBody::Created { .. }) | Ok(ReplyBody::Ok) => Ok(FsData::Unit),
                    Ok(ReplyBody::Dir { entries }) => Ok(FsData::Entries(
                        entries.into_iter().map(|(n, _)| n).collect(),
                    )),
                    Ok(_) => Err(FsErr::Invalid),
                    Err(e) => Err(map_fs_error(e)),
                };
                self.complete_op(op, outcome, ctx);
            }
            Purpose::Lock { ino, gen } => {
                if gen != self.gen_of(ino) {
                    // Stale response from a previous lock era (we released
                    // or invalidated since): applying it would reinstate a
                    // dead epoch. If the server actually granted it post-
                    // release, its re-demand will find us holding nothing
                    // and clean up.
                    return;
                }
                match result {
                    Ok(ReplyBody::LockGranted {
                        ino: gino,
                        mode,
                        epoch,
                        blocks,
                        size,
                    }) => {
                        debug_assert_eq!(ino, gino);
                        self.on_lock_granted(ino, mode, epoch, blocks, size, ctx);
                    }
                    Ok(_) | Err(_) => {
                        let err = match result {
                            Err(e) => map_fs_error(e),
                            _ => FsErr::Invalid,
                        };
                        match self.locks.get_mut(&ino) {
                            Some(LockEntry::Held(info)) => {
                                info.upgrading = false;
                            }
                            Some(LockEntry::Acquiring) => {
                                self.locks.remove(&ino);
                                self.bump_gen(ino);
                                self.cache.invalidate_ino(ino);
                            }
                            _ => {}
                        }
                        let ids = self.parked.remove(&ino).unwrap_or_default();
                        for id in ids {
                            self.complete_op(id, Err(err), ctx);
                        }
                    }
                }
            }
            Purpose::Alloc { op, ino } => match result {
                Ok(ReplyBody::Allocated { blocks }) => {
                    // Allocation only grows a file; a shorter map here is
                    // a reordered/stale reply and must not shrink ours
                    // (dirty blocks past the map would become unflushable).
                    if let Some(LockEntry::Held(info)) = self.locks.get_mut(&ino) {
                        if blocks.len() > info.blocks.len() {
                            info.blocks = blocks;
                        }
                    }
                    // Re-run the write: allocation may now suffice.
                    self.run_data_op(op, ino, ctx);
                }
                Ok(_) => self.complete_op(op, Err(FsErr::Invalid), ctx),
                Err(e) => {
                    let e = map_fs_error(e);
                    self.complete_op(op, Err(e), ctx);
                }
            },
            Purpose::Commit { ino } => {
                if result.is_ok() {
                    if let Some(LockEntry::Held(info)) = self.locks.get_mut(&ino) {
                        info.committed_size = info.size.max(info.committed_size);
                    }
                }
            }
            Purpose::CommitThenRelease { ino, complete } => {
                if result.is_ok() {
                    if let Some(LockEntry::Held(info)) = self.locks.get_mut(&ino) {
                        info.committed_size = info.size.max(info.committed_size);
                    }
                }
                self.send_release(ino, complete, ctx);
            }
            Purpose::Release { ino } => {
                self.on_released(ino, ctx);
            }
            Purpose::ReleaseStale => {}
            Purpose::Batch { elems } => match result {
                Ok(ReplyBody::Batch(outcomes)) => {
                    // Zip per-element outcomes to their purposes in wire
                    // order. A purpose past the end of the outcomes was
                    // cut off by first-error-stops: it never executed at
                    // the server, so failing it as Unavailable is safe —
                    // the caller may freely re-submit.
                    let mut outcomes = outcomes.into_iter();
                    for p in elems {
                        match outcomes.next() {
                            Some(outcome) => self.dispatch_reply(lane, p, outcome, ctx),
                            None => self.fail_purpose(lane, p, FsErr::Unavailable, ctx),
                        }
                    }
                }
                Ok(_) => {
                    for p in elems {
                        self.fail_purpose(lane, p, FsErr::Invalid, ctx);
                    }
                }
                Err(e) => {
                    let err = map_fs_error(e);
                    for p in elems {
                        self.fail_purpose(lane, p, err, ctx);
                    }
                }
            },
        }
    }

    /// Advance a rename past its server round-trips: lookup → link at the
    /// destination → unlink at the source. Link-before-unlink means any
    /// failure leaves the file reachable under at least one name — the
    /// invariant the cross-shard test checks for.
    fn dispatch_rename(
        &mut self,
        op: OpId,
        result: Result<ReplyBody, FsError>,
        ctx: &mut Ctx<'_, NetMsg, Ob>,
    ) {
        let Some(flow) = self.renames.get(&op) else {
            return; // already aborted (lane expiry, earlier failure)
        };
        let (src_dir, dst_dir) = (flow.src_dir, flow.dst_dir);
        let (src_name, dst_name) = (flow.src_name.clone(), flow.dst_name.clone());
        match (flow.stage, result) {
            (RenameStage::AwaitLookup, Ok(ReplyBody::Resolved { ino, attr })) => {
                if attr.is_dir {
                    // Directory renames would need subtree ownership
                    // reasoning; out of scope for the sharded top level.
                    return self.complete_op(op, Err(FsErr::Invalid), ctx);
                }
                if let Some(flow) = self.renames.get_mut(&op) {
                    flow.ino = Some(ino);
                    flow.stage = RenameStage::AwaitLink;
                }
                let lane = self.lane_of_ino(dst_dir);
                self.send_request(
                    lane,
                    RequestBody::RenameLink {
                        dir: dst_dir,
                        name: dst_name,
                        ino,
                    },
                    Purpose::Rename { op },
                    true,
                    ctx,
                );
            }
            (RenameStage::AwaitLink, Ok(ReplyBody::Ok)) => {
                if let Some(flow) = self.renames.get_mut(&op) {
                    flow.stage = RenameStage::AwaitUnlink;
                }
                let lane = self.lane_of_ino(src_dir);
                self.send_request(
                    lane,
                    RequestBody::RenameUnlink {
                        dir: src_dir,
                        name: src_name,
                    },
                    Purpose::Rename { op },
                    true,
                    ctx,
                );
            }
            (RenameStage::AwaitUnlink, Ok(ReplyBody::Ok)) => {
                // Done. Fix the dentry cache: the old name is gone, the
                // new one points at the moved ino.
                let ino = self.renames.get(&op).and_then(|f| f.ino);
                self.name_cache.remove(&format!("/{src_name}"));
                if let Some(ino) = ino {
                    self.name_cache.insert(format!("/{dst_name}"), ino);
                }
                self.complete_op(op, Ok(FsData::Unit), ctx);
            }
            (_, Ok(_)) => self.complete_op(op, Err(FsErr::Invalid), ctx),
            (_, Err(e)) => {
                let e = map_fs_error(e);
                self.complete_op(op, Err(e), ctx);
            }
        }
    }

    // --------------------------------------------------------- completion

    fn complete_op(&mut self, id: OpId, result: FsResult, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let Some(active) = self.ops.remove(&id) else {
            return;
        };
        match &active.op {
            FsOp::Delete { path } => {
                self.name_cache.remove(&canonical(path));
            }
            _ => {
                // A NotFound against a cached resolution means the entry
                // went stale (deleted/recreated elsewhere): drop it.
                if matches!(result, Err(FsErr::NotFound)) {
                    self.name_cache.remove(&canonical(active.op.path()));
                }
            }
        }
        // Drop any parked references to this op.
        if let Some(ino) = active.ino {
            if let Some(v) = self.parked.get_mut(&ino) {
                v.retain(|x| *x != id);
            }
        }
        // Tear down rename state: un-park from both directories and hand
        // back the directory locks we took for the transaction. An
        // incomplete flow is an abort (counted) — thanks to
        // link-before-unlink it never strands the file.
        if let Some(flow) = self.renames.remove(&id) {
            if result.is_err() {
                if let Some(obs) = &self.obs {
                    obs.rename_aborts.inc();
                }
            }
            let mut dirs = vec![flow.src_dir, flow.dst_dir];
            dirs.sort();
            dirs.dedup();
            for d in dirs {
                if let Some(v) = self.parked.get_mut(&d) {
                    v.retain(|x| *x != id);
                }
                if matches!(self.locks.get(&d), Some(LockEntry::Held(_))) {
                    self.send_release(d, None, ctx);
                }
            }
        }
        self.list_fanout.remove(&id);
        self.read_fetched.remove(&id);
        self.unpin_op(id);
        let kind = active.op.kind();
        match &result {
            Ok(_) => self.stats.completed += 1,
            Err(_) => self.stats.failed += 1,
        }
        let err = result.as_ref().err().copied();
        if !active.from_gen {
            self.log_result(id, result);
        }
        self.emit(
            Event::OpCompleted {
                op: id,
                kind,
                ok: err.is_none(),
                err,
            },
            ctx,
        );
        if active.from_gen {
            // Note: gen_op_queued tracks the *queued* (timer-armed) op,
            // which is not this one; only ask for more work.
            self.maybe_next_gen_op(ctx);
        }
    }

    fn on_san_resp(&mut self, san: SanMsg, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        match san {
            SanMsg::ReadResp { req_id, result } => {
                let Some(SanOp::OpRead {
                    op,
                    ino,
                    idx,
                    epoch,
                }) = self.san_ops.remove(&req_id)
                else {
                    return;
                };
                // The lock this read was issued under must still be the
                // one we hold: a response that crossed a release/re-grant
                // is a stale snapshot and must not enter the cache.
                if !self.may_admit(ino, epoch) {
                    return self.complete_op(op, Err(FsErr::LeaseLost), ctx);
                }
                match result {
                    Ok(ok) => {
                        self.cache.fill(ino, idx, ok.data, ok.tag);
                        let Some(a) = self.ops.get_mut(&op) else {
                            return;
                        };
                        if let OpState::SanReads {
                            waiting,
                            then_write,
                        } = &mut a.state
                        {
                            *waiting -= 1;
                            if *waiting == 0 {
                                let then_write = *then_write;
                                if then_write {
                                    self.apply_write(op, ino, epoch, ctx);
                                } else {
                                    self.finish_read(op, ino, ctx);
                                }
                            }
                        }
                    }
                    Err(e) => {
                        if e == tank_proto::SanError::Fenced {
                            self.stats.fenced_io += 1;
                        }
                        self.complete_op(op, Err(FsErr::LeaseLost), ctx);
                    }
                }
            }
            SanMsg::WriteResp { req_id, result } => {
                let Some(SanOp::FlushWrite {
                    campaign,
                    ino,
                    idx,
                    tag,
                }) = self.san_ops.remove(&req_id)
                else {
                    return;
                };
                match result {
                    Ok(()) => {
                        self.cache.mark_clean(ino, idx, tag);
                        self.stats.flushed_blocks += 1;
                        if let Some(obs) = &self.obs {
                            obs.writeback_flushes.inc();
                        }
                        // Hardening frees the block for eviction: a cache
                        // over capacity on dirty overflow drains here.
                        let evicted = self.cache.trim();
                        if evicted > 0 {
                            self.stats.cache_evictions += evicted as u64;
                            if let Some(obs) = &self.obs {
                                obs.cache_evictions.add(evicted as u64);
                            }
                        }
                    }
                    Err(e) => {
                        if e == tank_proto::SanError::Fenced {
                            self.stats.fenced_io += 1;
                        }
                        // The block stays dirty; a later flush may retry.
                    }
                }
                let done = {
                    let Some(c) = self.flushes.get_mut(&campaign) else {
                        return;
                    };
                    c.in_flight -= 1;
                    c.remaining -= 1;
                    c.remaining == 0
                };
                if done {
                    let c = self.flushes.remove(&campaign).unwrap();
                    self.flush_done(c.ino, c.after, ctx);
                } else {
                    self.issue_flush_writes(campaign, ctx);
                }
            }
            other => {
                // Protocol anomaly: counted and traced, never printed —
                // normal runs stay silent, exporter runs see it structured.
                if let Some(obs) = &self.obs {
                    obs.unexpected_msgs.inc();
                    obs.trace(ctx, "unexpected", || format!("san {other:?}"));
                }
            }
        }
    }
}

/// Map server-side file-system errors to the local API.
fn map_fs_error(e: FsError) -> FsErr {
    match e {
        FsError::NotFound => FsErr::NotFound,
        FsError::Exists => FsErr::Exists,
        FsError::NoSpace => FsErr::NoSpace,
        FsError::NotLocked | FsError::Invalid => FsErr::Invalid,
        FsError::Unavailable => FsErr::Unavailable,
    }
}

/// The inode whose attributes `body` changes at the server when executed
/// (`None` for everything else, a `Batch` included: see [`mutates`]).
fn mutated_ino(body: &RequestBody) -> Option<Ino> {
    if let RequestBody::CommitWrite { ino, .. }
    | RequestBody::AllocBlocks { ino, .. }
    | RequestBody::SetAttr { ino, .. } = body
    {
        Some(*ino)
    } else {
        None
    }
}

/// Whether `body`, or any element of it, changes `ino`'s attributes.
fn mutates(body: &RequestBody, ino: Ino) -> bool {
    match body {
        RequestBody::Batch(elems) => elems.iter().any(|b| mutates(b, ino)),
        single => mutated_ino(single) == Some(ino),
    }
}

/// Canonical form of a path (strip duplicate slashes) used as the name
/// cache key.
fn canonical(path: &str) -> String {
    let mut s = String::with_capacity(path.len() + 1);
    for part in path.split('/').filter(|p| !p.is_empty()) {
        s.push('/');
        s.push_str(part);
    }
    if s.is_empty() {
        s.push('/');
    }
    s
}

fn op_path(op: &FsOp) -> String {
    canonical(op.path())
}

fn last_component(path: &str) -> String {
    path.split('/')
        .rfind(|p| !p.is_empty())
        .unwrap_or("")
        .to_owned()
}

impl<Ob: 'static> Actor<NetMsg, Ob> for ClientNode<Ob> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        self.id = ctx.node();
        // Arm scripted ops. Script times are *delays from client start*
        // measured on the client's own clock (clocks are not offset-
        // synchronized, so absolute local times would be meaningless).
        let steps: Vec<(LocalNs, FsOp)> = self.script.steps.clone();
        for (i, (delay, _)) in steps.iter().enumerate() {
            let token = self.timers.insert(ClientTimer::ScriptOp(i));
            ctx.set_timer(*delay, token);
        }
        for lane in 0..self.lanes.len() {
            self.send_hello(lane, ctx);
        }
    }

    fn on_message(
        &mut self,
        from: NodeId,
        _net: NetId,
        msg: NetMsg,
        ctx: &mut Ctx<'_, NetMsg, Ob>,
    ) {
        match msg {
            NetMsg::Ctl(CtlMsg::Response(resp)) => self.on_response(resp, ctx),
            NetMsg::Ctl(CtlMsg::Push(push)) => self.on_push(from, push, ctx),
            NetMsg::San(san) => self.on_san_resp(san, ctx),
            NetMsg::Ctl(CtlMsg::Request(req)) => {
                // Only servers receive requests; count the anomaly instead
                // of asserting so a confused peer cannot take us down.
                if let Some(obs) = &self.obs {
                    obs.unexpected_msgs.inc();
                    obs.trace(ctx, "unexpected", || {
                        format!("request seq={} from n{}", req.seq.0, req.src.0)
                    });
                }
            }
            NetMsg::Repl(repl) => {
                // Log replication is server-to-server; a client receiving
                // it is a routing anomaly.
                if let Some(obs) = &self.obs {
                    obs.unexpected_msgs.inc();
                    obs.trace(ctx, "unexpected", || format!("repl {}", repl.kind()));
                }
            }
        }
        self.pump_lease(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let Some(t) = self.timers.take(token) else {
            return;
        };
        match t {
            ClientTimer::LeasePoll => {
                self.next_poll_at = None;
                self.pump_lease(ctx);
            }
            ClientTimer::ReqRetry => {
                // The sweep pumps the lease after each retransmission, and
                // a sweep that found nothing due has nothing to pump for.
                let (deadline, _) = self.retry_timer.expect("the current token's timer");
                self.retransmit_due(deadline, ctx);
                return;
            }
            ClientTimer::HelloRetry(lane) => {
                if self.lanes[lane].session.is_none() {
                    self.send_hello(lane, ctx);
                }
            }
            // A tick armed before a restart belongs to a chain that is
            // over: the new life's first `HelloOk` started another.
            ClientTimer::PeriodicFlush if self.flush_tick == Some(token) => {
                self.flush_tick = None;
                if self.lanes.iter().any(|l| l.session.is_some()) {
                    for ino in self.cache.dirty_inos() {
                        // Skip files already being flushed.
                        if !self.flushes.values().any(|c| c.ino == ino) {
                            self.start_flush(ino, AfterFlush::Nothing, ctx);
                        }
                    }
                    self.arm_flush_tick(ctx);
                }
            }
            ClientTimer::PeriodicFlush => {}
            ClientTimer::NextOp => {
                if let Some(op) = self.queued_gen_op.take() {
                    self.gen_op_queued = false;
                    self.start_op(op, true, ctx);
                    // With spare concurrency, line up the next op now.
                    self.maybe_next_gen_op(ctx);
                } else {
                    self.gen_op_queued = false;
                }
            }
            ClientTimer::ScriptOp(i) => {
                let op = self.script.steps[i].1.clone();
                self.submit(op, ctx);
            }
        }
        self.pump_lease(ctx);
    }

    fn on_crash(&mut self) {}

    fn on_restart(&mut self, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        // Volatile state is gone: caches, locks, lease, session, pending
        // everything. (The workload generator and script also restart from
        // wherever they were — local processes died with the machine.)
        for lane in self.lanes.iter_mut() {
            *lane = Lane::new(lane.sid, lane.addr, lane.alt, self.cfg.lease);
        }
        self.lazy_retained.clear();
        self.next_seq += 1_000_000; // fresh seq space for the new life
        self.pending.clear();
        if let Some((_, stale)) = self.retry_timer.take() {
            self.timers.cancel(stale);
        }
        let held: Vec<Ino> = self.locks.keys().copied().collect();
        for ino in held {
            self.bump_gen(ino);
        }
        self.locks.clear();
        self.name_cache.clear();
        self.parked.clear();
        self.deferred_demands.clear();
        // Read counts and the dead ops' pins go with the blocks.
        self.cache = BlockCache::with_capacity(self.cfg.block_size, self.cfg.cache_capacity);
        self.read_fetched.clear();
        self.op_pins.clear();
        self.ops.clear();
        self.san_ops.clear();
        self.flushes.clear();
        self.renames.clear();
        self.list_fanout.clear();
        self.gen_op_queued = false;
        self.queued_gen_op = None;
        self.next_poll_at = None;
        self.flush_tick = None;
        for lane in 0..self.lanes.len() {
            self.send_hello(lane, ctx);
        }
    }
}
