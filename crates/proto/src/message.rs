//! Control-network message set (client ⟷ server).
//!
//! Three top-level shapes exist, mirroring §3 of the paper:
//!
//! * [`Request`] — always client-initiated, carries a sequence number, and
//!   is answered by exactly one [`Response`]. A client implicitly renews its
//!   lease whenever a request it initiated is *acknowledged* (§3.1).
//! * [`Response`] — the server's answer. An acknowledged response (ACK)
//!   renews the lease even if the file-system operation inside failed (e.g.
//!   `NotFound`): receipt was acknowledged, which is all leasing needs. A
//!   negatively-acknowledged response (NACK) is the §3.3 signal: the request
//!   was valid but the server has begun timing out the client's lease, so
//!   the client must treat its cache as invalid and enter phase 3 directly.
//! * [`ServerPush`] — server-initiated (lock demands, cache invalidations).
//!   Pushes never renew leases (§3.1: "Clients are not granted leases when
//!   servers initiate communication") and are retried until the client
//!   responds; persistent failure to respond is the delivery error that arms
//!   the lease authority.

use serde::{Deserialize, Serialize};

use crate::ids::{BlockId, Epoch, Incarnation, Ino, NodeId, ReqSeq, SessionId};
use crate::lock::LockMode;

/// Maximum elements in one [`RequestBody::Batch`] / [`ReplyBody::Batch`].
/// Enforced on decode (defensive bound for the UDP path) and respected by
/// the client's coalescing queue, whose flush cap is far below it.
pub const MAX_BATCH_ELEMS: usize = 1024;

/// The longest name, in bytes, a directory entry may have (POSIX's
/// `NAME_MAX`). The client refuses a longer path component before it
/// sends anything and the metadata store refuses one before it builds a
/// log record, so the largest log record fits the log's frame bound and
/// the largest request fits a datagram.
pub const MAX_NAME: usize = 255;

/// A message on the control network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CtlMsg {
    /// Client-initiated request.
    Request(Request),
    /// Server's answer to a request.
    Response(Response),
    /// Server-initiated push (demand/invalidate).
    Push(ServerPush),
}

/// A client-initiated request datagram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// The sending client (redundant with the network envelope, but kept in
    /// the message so the wire format is self-contained).
    pub src: NodeId,
    /// Session incarnation this request belongs to.
    pub session: SessionId,
    /// Per-session sequence number for at-most-once delivery.
    pub seq: ReqSeq,
    /// The operation.
    pub body: RequestBody,
}

/// Operations a client can request from the metadata server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestBody {
    /// Establish (or, after lease expiry, re-establish) a session.
    ///
    /// `map_epoch` is the epoch of the shard map the client routes by; a
    /// server holding a different epoch answers with
    /// [`NackReason::Misrouted`]`(`[`RouteError::StaleMap`]`)` so the
    /// client refreshes its map instead of caching against the wrong
    /// partition of the namespace.
    Hello { map_epoch: u64 },
    /// NULL message whose only purpose is to be ACKed, renewing the lease
    /// (§3.1: "we do provide an extra protocol message, with no metadata or
    /// lock function, for the sole purpose of renewing a lease").
    KeepAlive,
    /// Create a file under a directory.
    Create { parent: Ino, name: String },
    /// Resolve a name under a directory.
    Lookup { parent: Ino, name: String },
    /// Create a directory.
    Mkdir { parent: Ino, name: String },
    /// List a directory.
    ReadDir { dir: Ino },
    /// Remove a file.
    Unlink { parent: Ino, name: String },
    /// Fetch attributes.
    GetAttr { ino: Ino },
    /// Truncate / touch metadata.
    SetAttr { ino: Ino, size: Option<u64> },
    /// Acquire (or upgrade) a data lock on an inode. The grant carries the
    /// block map so the client can perform SAN I/O directly.
    LockAcquire { ino: Ino, mode: LockMode },
    /// Release a data lock (voluntarily or in answer to a demand). The
    /// epoch names the grant being released: the server ignores a release
    /// whose epoch does not match the current holding, so a stale or
    /// blind release (one that raced a newer grant) cannot tear down a
    /// grant the client doesn't know it owns.
    LockRelease { ino: Ino, epoch: Epoch },
    /// Immediate acknowledgement of a server push; stops push retries while
    /// the client is still flushing prior to release.
    PushAck { push_seq: u64 },
    /// Ask the server to allocate additional blocks to a file (data
    /// allocation is a server responsibility, §1.1).
    AllocBlocks { ino: Ino, count: u32 },
    /// Commit new file size/mtime after the client hardened data to the SAN.
    CommitWrite { ino: Ino, new_size: u64 },
    /// First half of a (possibly cross-shard) rename: link `name → ino`
    /// into directory `dir` on the shard owning `dir`. The client holds
    /// exclusive locks on both parent directories (acquired in global
    /// `(ServerId, Ino)` order, so two renames can never deadlock) and
    /// performs link-before-unlink: a failure between the halves leaves
    /// the file reachable under both names, never under none.
    RenameLink { dir: Ino, name: String, ino: Ino },
    /// Second half of a rename: remove the directory *entry* `name` from
    /// `dir`. Unlike [`RequestBody::Unlink`] this never frees the inode or
    /// its blocks — the inode lives on (possibly on another shard) under
    /// its new name.
    RenameUnlink { dir: Ino, name: String },
    /// Several operations folded into one datagram. One batch is one
    /// [`Request`] — one sequence number, one ACK, one opportunistic lease
    /// renewal (§3.1: leasing reasons about *messages*, so Theorem 3.1 is
    /// untouched by how many ops ride inside). The server executes the
    /// elements in order and stops at the first file-system error
    /// (first-error-stops); the reply is [`ReplyBody::Batch`] with one
    /// per-element outcome. Elements must be [`RequestBody::batchable`]:
    /// nesting and ops that answer asynchronously (lock acquires) are
    /// rejected at the wire layer and by the server.
    Batch(Vec<RequestBody>),
}

impl RequestBody {
    /// Short static label for metrics.
    ///
    /// The observability layer (`tank-obs`) uses these labels as stable
    /// trace-event and counter keys; renaming one is a contract change
    /// (see `OBSERVABILITY.md`), not a cosmetic edit.
    pub fn kind(&self) -> &'static str {
        match self {
            RequestBody::Hello { .. } => "hello",
            RequestBody::KeepAlive => "keep_alive",
            RequestBody::Create { .. } => "create",
            RequestBody::Lookup { .. } => "lookup",
            RequestBody::Mkdir { .. } => "mkdir",
            RequestBody::ReadDir { .. } => "readdir",
            RequestBody::Unlink { .. } => "unlink",
            RequestBody::GetAttr { .. } => "getattr",
            RequestBody::SetAttr { .. } => "setattr",
            RequestBody::LockAcquire { .. } => "lock_acquire",
            RequestBody::LockRelease { .. } => "lock_release",
            RequestBody::PushAck { .. } => "push_ack",
            RequestBody::AllocBlocks { .. } => "alloc_blocks",
            RequestBody::CommitWrite { .. } => "commit_write",
            RequestBody::RenameLink { .. } => "rename_link",
            RequestBody::RenameUnlink { .. } => "rename_unlink",
            RequestBody::Batch(_) => "batch",
        }
    }

    /// True for operations that may ride inside a [`RequestBody::Batch`].
    ///
    /// Excluded are the shapes that cannot produce a synchronous
    /// per-element reply or that carry their own session semantics:
    ///
    /// * `Hello` — establishes the session a batch would already need;
    /// * `LockAcquire` — may queue on a conflicting holder and answer
    ///   *later* via the grant path, so it has no in-order reply;
    /// * `RenameLink` / `RenameUnlink` — the two halves of a rename span
    ///   shards and must stay individually addressable for the
    ///   link-before-unlink argument;
    /// * `Batch` — nesting is rejected outright.
    pub fn batchable(&self) -> bool {
        match self {
            RequestBody::KeepAlive
            | RequestBody::Create { .. }
            | RequestBody::Lookup { .. }
            | RequestBody::Mkdir { .. }
            | RequestBody::ReadDir { .. }
            | RequestBody::Unlink { .. }
            | RequestBody::GetAttr { .. }
            | RequestBody::SetAttr { .. }
            | RequestBody::LockRelease { .. }
            | RequestBody::PushAck { .. }
            | RequestBody::AllocBlocks { .. }
            | RequestBody::CommitWrite { .. } => true,
            RequestBody::Hello { .. }
            | RequestBody::LockAcquire { .. }
            | RequestBody::RenameLink { .. }
            | RequestBody::RenameUnlink { .. }
            | RequestBody::Batch(_) => false,
        }
    }

    /// The batch rule, spelled once: run `elems` in order through `exec`;
    /// an element that is not [`batchable`](Self::batchable) fails
    /// `Invalid` without running (wire decoding already rejects nesting;
    /// a lock acquire cannot produce an in-order synchronous reply); the
    /// first file-system error stops the rest, which are never executed
    /// and get no outcome entry. The caller answers with one ACK carrying
    /// the returned [`ReplyBody::Batch`] — one message, one lease renewal,
    /// exactly the §3.1 accounting a single op would get.
    pub fn run_batch(
        elems: Vec<RequestBody>,
        mut exec: impl FnMut(RequestBody) -> Result<ReplyBody, FsError>,
    ) -> ReplyBody {
        let mut outcomes = Vec::with_capacity(elems.len());
        for body in elems {
            let result = if body.batchable() {
                exec(body)
            } else {
                Err(FsError::Invalid)
            };
            let stop = result.is_err();
            outcomes.push(result);
            if stop {
                break;
            }
        }
        ReplyBody::Batch(outcomes)
    }

    /// True for request bodies whose outcome depends on the lock table —
    /// a grant, or a mutation the server admits only against the locks
    /// it knows of — which a server in its recovery grace window must
    /// refuse: the table is empty until every pre-crash lease has run
    /// out on its holder's clock, so an answer from it could contradict
    /// a surviving holder. The two rename halves count too: their flow
    /// runs under directory locks that cannot exist yet. Everything else
    /// is served. Hello, keep-alives, reads, releases and push acks let
    /// surviving clients re-register and wind down; `Create` and `Mkdir`
    /// mint a fresh inode, and admission never consults the lock table
    /// for them, in the window or out of it.
    pub fn needs_full_service(&self) -> bool {
        match self {
            RequestBody::LockAcquire { .. }
            | RequestBody::Unlink { .. }
            | RequestBody::RenameLink { .. }
            | RequestBody::RenameUnlink { .. }
            | RequestBody::SetAttr { .. }
            | RequestBody::AllocBlocks { .. }
            | RequestBody::CommitWrite { .. } => true,
            // A batch needs full service exactly when any element does —
            // first-error-stops would otherwise half-execute it against a
            // recovering server.
            RequestBody::Batch(elems) => elems.iter().any(Self::needs_full_service),
            RequestBody::Hello { .. }
            | RequestBody::KeepAlive
            | RequestBody::Create { .. }
            | RequestBody::Mkdir { .. }
            | RequestBody::Lookup { .. }
            | RequestBody::ReadDir { .. }
            | RequestBody::GetAttr { .. }
            | RequestBody::LockRelease { .. }
            | RequestBody::PushAck { .. } => false,
        }
    }
}

/// File attributes returned by metadata operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct FileAttr {
    /// Logical file size in bytes.
    pub size: u64,
    /// Modification time (server-local nanoseconds; metadata is only weakly
    /// consistent, §3, so this is informational).
    pub mtime: u64,
    /// Metadata version, bumped on every mutation.
    pub version: u64,
    /// True for directories.
    pub is_dir: bool,
}

/// Successful operation results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReplyBody {
    /// New session established. `map_epoch` echoes the shard-map epoch the
    /// serving shard holds, confirming the client's routing view.
    HelloOk { session: SessionId, map_epoch: u64 },
    /// Generic acknowledgement with no payload (keep-alive, release, ack,
    /// commit, unlink...).
    Ok,
    /// A namespace entry was created.
    Created { ino: Ino },
    /// Name resolution result.
    Resolved { ino: Ino, attr: FileAttr },
    /// Attributes.
    Attr { attr: FileAttr },
    /// Directory listing.
    Dir { entries: Vec<(String, Ino)> },
    /// Lock granted. Carries everything the client needs for direct SAN
    /// access: the epoch stamping subsequent writes, the block map, and the
    /// current size.
    LockGranted {
        ino: Ino,
        mode: LockMode,
        epoch: Epoch,
        blocks: Vec<BlockId>,
        size: u64,
    },
    /// Additional blocks allocated to the file (full new map returned).
    Allocated { blocks: Vec<BlockId> },
    /// Per-element outcomes of a [`RequestBody::Batch`]. Under
    /// first-error-stops semantics the vector holds one `Ok` per executed
    /// element up to (and excluding) the first failure, then that failure
    /// as its final `Err`; elements after the failure were never executed
    /// and have no entry. The whole batch was still *acknowledged* — one
    /// message, one ACK, lease renewed — even when an element failed.
    Batch(Vec<Result<ReplyBody, FsError>>),
}

impl ReplyBody {
    /// Short static label, mirroring [`RequestBody::kind`]: used for
    /// metrics and for naming unexpected reply shapes in client errors.
    pub fn kind(&self) -> &'static str {
        match self {
            ReplyBody::HelloOk { .. } => "hello_ok",
            ReplyBody::Ok => "ok",
            ReplyBody::Created { .. } => "created",
            ReplyBody::Resolved { .. } => "resolved",
            ReplyBody::Attr { .. } => "attr",
            ReplyBody::Dir { .. } => "dir",
            ReplyBody::LockGranted { .. } => "lock_granted",
            ReplyBody::Allocated { .. } => "allocated",
            ReplyBody::Batch(_) => "batch",
        }
    }
}

/// File-system level errors. These ride inside an *acknowledged* response:
/// the server received and processed the request, so the lease is renewed;
/// the operation simply failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FsError {
    /// No such file or directory.
    NotFound,
    /// Name already exists.
    Exists,
    /// Out of blocks on the shared store.
    NoSpace,
    /// Operation requires a lock the client does not hold.
    NotLocked,
    /// Directory operations on non-directories and similar misuse.
    Invalid,
    /// The lock is currently held in a conflicting mode and the server chose
    /// to deny rather than queue (used when the holder is unreachable and
    /// recovery policy forbids stealing — the §2 "unavailable" outcome).
    Unavailable,
}

/// Protocol-level negative acknowledgement reasons (§3.3).
///
/// A NACK tells the client that the server will not execute transactions on
/// its behalf and will not renew its lease. Distinct from [`FsError`]: a
/// NACKed client must consider its cache invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NackReason {
    /// The server has begun timing out this client's lease and therefore
    /// "can neither acknowledge the message ... nor execute a transaction on
    /// the client's behalf" (§3.3).
    LeaseTimingOut,
    /// The client's session is no longer valid (its locks were stolen after
    /// lease expiry); it must send `Hello` to start a new session.
    SessionExpired,
    /// Sequence/session mismatch (stale duplicate from an old incarnation).
    StaleSession,
    /// The server recently restarted and is inside its recovery grace
    /// window: it cannot grant locks or mutate metadata until every lease
    /// that might have been outstanding at the crash has expired, because
    /// its volatile lock state is gone and granting early could conflict
    /// with a surviving holder. Unlike the other NACKs this one does *not*
    /// condemn the client's cache — the client's lease (and its SAN access)
    /// is still good; it should re-register and retry after a delay.
    Recovering,
    /// The request was sent to a server that does not own the governing
    /// inode (or the client's shard map is a different epoch). Like
    /// [`NackReason::Recovering`] this does *not* condemn the client's
    /// cache — nothing about the lease contract failed; the client simply
    /// knocked on the wrong door and should re-route.
    Misrouted(RouteError),
}

/// Why a request was refused by shard routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouteError {
    /// The governing inode of the request is owned by a different shard.
    NotOwner,
    /// The client's shard-map epoch differs from the server's; its
    /// ownership computations cannot be trusted.
    StaleMap,
    /// The node addressed is a warm standby for the shard, not its
    /// primary. The client should retry against the shard's other
    /// address; after a failover election the roles have swapped.
    NotPrimary,
}

/// Outcome carried by a [`Response`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResponseOutcome {
    /// ACK: the server acknowledges receipt; lease renewed. The inner result
    /// is the file-system outcome.
    Acked(Result<ReplyBody, FsError>),
    /// NACK: receipt *not* acknowledged for lease purposes.
    Nacked(NackReason),
}

/// The server's answer to a [`Request`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The client the response is addressed to.
    pub dst: NodeId,
    /// Echo of the request's session.
    pub session: SessionId,
    /// Echo of the request's sequence number; the client uses it to find the
    /// send timestamp `t_C1` from which the renewed lease runs (§3.1).
    pub seq: ReqSeq,
    /// The server incarnation that produced this response. A client that
    /// observes a different incarnation than the one its session was
    /// established under knows the server restarted (fail-stop) and its
    /// session/lock state is gone: it must quiesce, flush, and re-`Hello`.
    pub incarnation: Incarnation,
    /// ACK or NACK.
    pub outcome: ResponseOutcome,
}

impl Response {
    /// True when this response renews the client's lease.
    #[inline]
    pub fn is_ack(&self) -> bool {
        matches!(self.outcome, ResponseOutcome::Acked(_))
    }
}

/// Server-initiated push bodies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PushBody {
    /// Demand that the client downgrade/release its lock on `ino` so a
    /// conflicting request can be granted. The client flushes dirty data
    /// first, then releases. `epoch` names the holding being demanded, so
    /// a client that holds nothing can answer with an epoch-qualified
    /// release that cannot hurt a newer grant.
    Demand {
        ino: Ino,
        mode_needed: LockMode,
        epoch: Epoch,
    },
    /// Invalidate any cached data/attributes for `ino` (metadata changed).
    Invalidate { ino: Ino },
}

impl PushBody {
    /// Short static label for metrics.
    ///
    /// Stable trace-event/counter key consumed by `tank-obs` (the
    /// server's "demand" trace kind is this label; see
    /// `OBSERVABILITY.md`).
    pub fn kind(&self) -> &'static str {
        match self {
            PushBody::Demand { .. } => "demand",
            PushBody::Invalidate { .. } => "invalidate",
        }
    }
}

/// A server-initiated push datagram. Retried until `PushAck`ed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerPush {
    /// The target client.
    pub dst: NodeId,
    /// Session the push belongs to.
    pub session: SessionId,
    /// Server-assigned push sequence (namespace disjoint from [`ReqSeq`]).
    pub push_seq: u64,
    /// What is being pushed.
    pub body: PushBody,
}

impl CtlMsg {
    /// Short static label for metrics.
    ///
    /// Stable key consumed by `tank-obs`: the server's
    /// `server.unexpected_msgs` trace detail embeds it, so the labels
    /// are part of the documented trace vocabulary (`OBSERVABILITY.md`).
    pub fn kind(&self) -> &'static str {
        match self {
            CtlMsg::Request(r) => r.body.kind(),
            CtlMsg::Response(r) => match &r.outcome {
                ResponseOutcome::Acked(_) => "response",
                ResponseOutcome::Nacked(_) => "nack",
            },
            CtlMsg::Push(p) => p.body.kind(),
        }
    }

    /// True for pure lease-maintenance traffic (keep-alive requests and the
    /// responses to them cannot be distinguished here, so only the request
    /// side is counted; the overhead experiments double it).
    pub fn is_lease_overhead(&self) -> bool {
        matches!(
            self,
            CtlMsg::Request(Request {
                body: RequestBody::KeepAlive,
                ..
            })
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(body: RequestBody) -> CtlMsg {
        CtlMsg::Request(Request {
            src: NodeId(3),
            session: SessionId(1),
            seq: ReqSeq(9),
            body,
        })
    }

    #[test]
    fn ack_with_fs_error_still_renews() {
        let resp = Response {
            dst: NodeId(3),
            session: SessionId(1),
            seq: ReqSeq(9),
            incarnation: Incarnation(1),
            outcome: ResponseOutcome::Acked(Err(FsError::NotFound)),
        };
        assert!(resp.is_ack(), "application errors are still protocol ACKs");
    }

    #[test]
    fn nack_does_not_renew() {
        let resp = Response {
            dst: NodeId(3),
            session: SessionId(1),
            seq: ReqSeq(9),
            incarnation: Incarnation(1),
            outcome: ResponseOutcome::Nacked(NackReason::LeaseTimingOut),
        };
        assert!(!resp.is_ack());
    }

    #[test]
    fn keepalive_is_lease_overhead_and_nothing_else_is() {
        assert!(req(RequestBody::KeepAlive).is_lease_overhead());
        assert!(!req(RequestBody::GetAttr { ino: Ino(1) }).is_lease_overhead());
        assert!(!req(RequestBody::Hello { map_epoch: 0 }).is_lease_overhead());
    }

    /// What the simulator charges for a message: its exact encoded length.
    fn size_hint(m: CtlMsg) -> usize {
        tank_sim::Payload::size_hint(&crate::NetMsg::Ctl(m))
    }

    #[test]
    fn size_hint_scales_with_payload() {
        let small = size_hint(req(RequestBody::KeepAlive));
        let create = |name: String| {
            size_hint(req(RequestBody::Create {
                parent: Ino(1),
                name,
            }))
        };
        let short = create("n".into());
        let long = create("n".repeat(MAX_NAME));
        assert_eq!(
            long - short,
            MAX_NAME - 1,
            "each name byte is one wire byte"
        );
        assert!(long > small + MAX_NAME);
    }

    #[test]
    fn batchable_excludes_async_and_session_shapes() {
        assert!(RequestBody::GetAttr { ino: Ino(1) }.batchable());
        assert!(RequestBody::LockRelease {
            ino: Ino(1),
            epoch: crate::ids::Epoch(1),
        }
        .batchable());
        assert!(RequestBody::KeepAlive.batchable());
        // Async answers, session establishment, renames and nesting all
        // stay out of batches.
        assert!(!RequestBody::Hello { map_epoch: 0 }.batchable());
        assert!(!RequestBody::LockAcquire {
            ino: Ino(1),
            mode: LockMode::SharedRead,
        }
        .batchable());
        assert!(!RequestBody::RenameLink {
            dir: Ino(1),
            name: "a".into(),
            ino: Ino(2),
        }
        .batchable());
        assert!(!RequestBody::Batch(vec![]).batchable());
    }

    #[test]
    fn full_service_covers_grants_and_mutations_and_looks_inside_batches() {
        let read = RequestBody::GetAttr { ino: Ino(1) };
        let release = RequestBody::LockRelease {
            ino: Ino(1),
            epoch: crate::ids::Epoch(1),
        };
        let grant = RequestBody::LockAcquire {
            ino: Ino(1),
            mode: LockMode::SharedRead,
        };
        let mutation = RequestBody::SetAttr {
            ino: Ino(1),
            size: None,
        };
        let create = RequestBody::Create {
            parent: Ino(1),
            name: "a".into(),
        };
        assert!(grant.needs_full_service() && mutation.needs_full_service());
        for benign in [
            RequestBody::Hello { map_epoch: 0 },
            RequestBody::KeepAlive,
            RequestBody::PushAck { push_seq: 1 },
            RequestBody::Mkdir {
                parent: Ino(1),
                name: "d".into(),
            },
            create.clone(),
            read.clone(),
            release.clone(),
        ] {
            assert!(!benign.needs_full_service(), "{benign:?}");
        }
        assert!(!RequestBody::Batch(vec![read.clone(), create, release]).needs_full_service());
        assert!(RequestBody::Batch(vec![read, mutation]).needs_full_service());
    }

    #[test]
    fn batch_size_hint_sums_elements() {
        let one = size_hint(req(RequestBody::GetAttr { ino: Ino(1) }));
        let elem = crate::WireEncode::encoded_len(&RequestBody::GetAttr { ino: Ino(1) });
        let four = size_hint(req(RequestBody::Batch(vec![
            RequestBody::GetAttr { ino: Ino(1) },
            RequestBody::GetAttr { ino: Ino(2) },
            RequestBody::GetAttr { ino: Ino(3) },
            RequestBody::GetAttr { ino: Ino(4) },
        ])));
        // Four ops in one batch cost far less than four datagrams but more
        // than one, and each extra element costs at least its own body.
        assert!(four >= one + 3 * elem);
        assert!(four < 4 * one);
    }

    #[test]
    fn kinds_are_stable_labels() {
        assert_eq!(req(RequestBody::KeepAlive).kind(), "keep_alive");
        let push = CtlMsg::Push(ServerPush {
            dst: NodeId(1),
            session: SessionId(0),
            push_seq: 1,
            body: PushBody::Demand {
                ino: Ino(5),
                mode_needed: LockMode::Exclusive,
                epoch: crate::ids::Epoch(1),
            },
        });
        assert_eq!(push.kind(), "demand");
    }
}
