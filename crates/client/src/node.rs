//! The Storage Tank client actor: one [`ClientNode`], an
//! `Actor<NetMsg, Event>` the simulator's world and a UDP host both run.
//! Its handlers take a [`NodeCtx`] and report every [`Event`] through
//! `emit`, the one place the node's counters fold from what it reports.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;

use tank_core::{ClientLease, LeaseAction, LeaseConfig, Phase};
use tank_obs::Registry;
use tank_proto::message::{FileAttr, FsError, ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{
    stripe_disk, BlockId, CtlMsg, Epoch, Event, Incarnation, Ino, LockMode, NackReason, NetMsg,
    NodeCtx, NodeId, OpId, PushBody, ReqSeq, Request, Response, RouteError, SanMsg, ServerId,
    ServerPush, SessionId, WriteTag, MAX_NAME,
};
use tank_shard::ShardMap;
use tank_sim::{Actor, LocalNs, NetId, TokenMap};

use crate::cache::BlockCache;
use crate::fs::{FsData, FsErr, FsOp, FsResult, OpGen, Script};
use crate::obs::ClientObs;
use tank_sim::fxhash::{HashMap, HashSet};

mod data;
mod lane;
mod locks;
mod ops;
mod writeback;

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

/// Client-side counters for the experiments. Those that restate an
/// event (`submitted`, `completed`, `cache_hits`, `attr_hits`,
/// `attr_misses`) are folded from it as it is emitted.
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

/// Field-by-field sum: a fleet's totals. The cluster's
/// `client_totals_sum_every_field` test names every field, so a new one
/// cannot be left out unnoticed.
impl std::ops::AddAssign for ClientStats {
    fn add_assign(&mut self, o: ClientStats) {
        self.submitted += o.submitted;
        self.completed += o.completed;
        self.denied += o.denied;
        self.failed += o.failed;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.flushed_blocks += o.flushed_blocks;
        self.cache_evictions += o.cache_evictions;
        self.cache_refetches += o.cache_refetches;
        self.fenced_io += o.fenced_io;
        self.retransmits += o.retransmits;
        self.attr_hits += o.attr_hits;
        self.attr_misses += o.attr_misses;
    }
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
    /// Resolving the path: name `idx` of the op's path under `cur`, of
    /// the first `depth`. A `to_parent` op (Create/Mkdir/Delete address
    /// the parent) leaves its last name out of `depth`.
    Resolve {
        depth: usize,
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
pub struct ClientNode {
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

impl ClientNode {
    /// New client.
    pub fn new(cfg: ClientConfig) -> Self {
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
            obs: None,
        }
    }

    /// Attach an observability registry: lease-lifecycle counters, the
    /// renewal-headroom histogram, and structured trace events.
    pub fn set_obs(&mut self, registry: Arc<Registry>) {
        self.obs = Some(ClientObs::new(registry));
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

    fn gen_of(&self, ino: Ino) -> u64 {
        self.lock_gen.get(&ino).copied().unwrap_or(0)
    }

    fn bump_gen(&mut self, ino: Ino) {
        *self.lock_gen.entry(ino).or_insert(0) += 1;
    }

    /// Report `ev`: the one place an event is counted. The stats and
    /// counters that restate an event are folded from it here, and
    /// nowhere else.
    fn emit(&mut self, ev: Event, ctx: &mut NodeCtx<'_>) {
        let stats = &mut self.stats;
        match ev {
            Event::OpSubmitted { .. } => stats.submitted += 1,
            Event::OpCompleted { ok: true, .. } => stats.completed += 1,
            Event::AttrServed {
                from_cache: true, ..
            } => stats.attr_hits += 1,
            Event::AttrServed { .. } => stats.attr_misses += 1,
            Event::ReadServed {
                from_cache: true, ..
            } => stats.cache_hits += 1,
            _ => {}
        }
        if let Some(obs) = &self.obs {
            match ev {
                Event::AttrServed {
                    from_cache: true, ..
                } => obs.attr_hits.inc(),
                Event::AttrServed { .. } => obs.attr_misses.inc(),
                Event::ReadServed {
                    from_cache: true, ..
                } => obs.cache_hits.inc(),
                Event::Quiesced { shard } => {
                    obs.phase_quiesce.inc();
                    obs.trace(ctx, "phase", || format!("quiescing shard={shard}"));
                }
                Event::Resumed { shard } => {
                    obs.phase_resume.inc();
                    obs.trace(ctx, "phase", || format!("active shard={shard}"));
                }
                Event::CacheInvalidated {
                    shard,
                    discarded_dirty,
                } => {
                    obs.phase_invalid.inc();
                    obs.lane_expiries.inc();
                    obs.discarded_dirty.add(discarded_dirty as u64);
                    obs.trace(ctx, "phase", || {
                        format!("invalid shard={shard} discarded_dirty={discarded_dirty}")
                    });
                }
                _ => {}
            }
        }
        ctx.observe(ev);
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
/// cache key: the path itself, borrowed, when it already is one — a
/// leading `/`, then names with no empty one between slashes or after
/// the last — or `/` alone.
fn canonical(path: &str) -> Cow<'_, str> {
    let well_formed = |rest: &str| rest.split('/').all(|name| !name.is_empty());
    match path.strip_prefix('/') {
        Some("") => return Cow::Borrowed(path),
        Some(rest) if well_formed(rest) => return Cow::Borrowed(path),
        _ => {}
    }
    let mut s = String::with_capacity(path.len() + 1);
    for part in names(path) {
        s.push('/');
        s.push_str(part);
    }
    if s.is_empty() {
        s.push('/');
    }
    Cow::Owned(s)
}

/// The names of a path, root first; empty ones (doubled, leading or
/// trailing slashes) skipped.
fn names(path: &str) -> impl Iterator<Item = &str> {
    path.split('/').filter(|name| !name.is_empty())
}

fn op_path(op: &FsOp) -> String {
    canonical(op.path()).into_owned()
}

fn last_component(path: &str) -> String {
    path.split('/')
        .rfind(|p| !p.is_empty())
        .unwrap_or("")
        .to_owned()
}

impl Actor<NetMsg, Event> for ClientNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
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

    fn on_message(&mut self, from: NodeId, _net: NetId, msg: NetMsg, ctx: &mut NodeCtx<'_>) {
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

    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx<'_>) {
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

    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
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
            self.timers.take(stale);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_canonical_path_is_borrowed_and_any_other_is_rebuilt() {
        for path in ["/", "/f0", "/d/f"] {
            assert!(
                matches!(canonical(path), Cow::Borrowed(p) if p == path),
                "{path}"
            );
        }
        let rebuilt = [
            ("", "/"),
            ("//", "/"),
            ("f0", "/f0"),
            ("/d//f", "/d/f"),
            ("/d/f/", "/d/f"),
        ];
        for (path, want) in rebuilt {
            assert!(
                matches!(canonical(path), Cow::Owned(p) if p == want),
                "{path}"
            );
        }
    }
}
