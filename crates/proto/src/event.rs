//! The observable event vocabulary: what clients, servers and disks report
//! about a run.
//!
//! Every node emits these directly, so one stream describes the whole run
//! and the consistency checker, the happens-before auditor and the obs
//! cross-check read it as emitted. Timestamps and emitting nodes ride
//! alongside in the simulator's observation tuples. Protocol behaviour
//! never depends on an event.

use crate::{BlockId, Epoch, Ino, LockMode, NodeId, OpId, WriteTag};

/// Operation errors as seen by local processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsErr {
    /// No such file or directory.
    NotFound,
    /// Already exists.
    Exists,
    /// Out of space.
    NoSpace,
    /// Invalid operation (e.g. dir misuse).
    Invalid,
    /// The client is quiesced or dead: it has (or suspects it has) lost
    /// contact with the server and will not start new work (§3.2 phase 3;
    /// this is the honest error an isolated Storage Tank client returns,
    /// where a fenced-only client would silently serve stale cache).
    Suspended,
    /// The operation was in flight when the lease expired; its effects are
    /// not guaranteed (dirty data was flushed to disk, but locks are gone).
    LeaseLost,
    /// The file is locked by an unreachable client and the server's policy
    /// honors its locks (§2's indefinite unavailability, surfaced when the
    /// harness gives up waiting).
    Unavailable,
}

/// One observable event. The emitting node and true timestamp are carried
/// by the world's observation stream, not duplicated here (except where
/// the *subject* differs from the emitter, e.g. a disk reporting on an
/// initiator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    // ------------------------------------------------------------ client
    /// A local process submitted an operation.
    OpSubmitted {
        /// Operation id (unique per client).
        op: OpId,
        /// Operation kind label.
        kind: &'static str,
    },
    /// The operation finished, successfully or not.
    OpCompleted {
        /// Operation id.
        op: OpId,
        /// Operation kind label.
        kind: &'static str,
        /// Success flag.
        ok: bool,
        /// The error, if not.
        err: Option<FsErr>,
    },
    /// A write was acknowledged to a local process *into the cache*: the
    /// contract under write-back caching is that this version eventually
    /// hardens (unless superseded by a newer local write, the file is
    /// deleted, or the client fail-stops). A version that is acked here,
    /// never superseded, and never hardened is a **lost update** — §2.1's
    /// stranded dirty data.
    WriteAcked {
        /// File.
        ino: Ino,
        /// Block index.
        idx: u32,
        /// Version written.
        tag: WriteTag,
    },
    /// A read returned data for one block to a local process; the checker
    /// compares `tag` with what should have been visible.
    ReadServed {
        /// File.
        ino: Ino,
        /// Block index.
        idx: u32,
        /// Version returned.
        tag: WriteTag,
        /// Served from local cache (true) or SAN (false).
        from_cache: bool,
    },
    /// A `Stat` was answered for a local process; the checker audits that
    /// a cached answer was given inside a grant and a live lease phase.
    AttrServed {
        /// File.
        ino: Ino,
        /// Answered from the attributes cached under a held lock (true)
        /// or by the server (false).
        from_cache: bool,
    },
    /// One lease lane expired and the client discarded its cache of that
    /// shard; `discarded_dirty` dirty blocks had not been hardened (zero
    /// when phase 4 had time to run).
    CacheInvalidated {
        /// Shard (server index) whose lane expired.
        shard: u16,
        /// Unhardened dirty blocks lost at invalidation.
        discarded_dirty: usize,
    },
    /// The client stopped admitting requests on one lease lane (phase 3).
    Quiesced {
        /// Shard (server index) whose lane quiesced.
        shard: u16,
    },
    /// The client resumed service on one lane (renewed after quiesce, or
    /// re-Helloed).
    Resumed {
        /// Shard (server index) whose lane resumed.
        shard: u16,
    },

    // ------------------------------------------------------------ server
    /// Lock granted.
    LockGranted {
        /// New holder.
        client: NodeId,
        /// File.
        ino: Ino,
        /// Grant epoch.
        epoch: Epoch,
        /// Mode.
        mode: LockMode,
    },
    /// Lock voluntarily released.
    LockReleased {
        /// Former holder.
        client: NodeId,
        /// File.
        ino: Ino,
        /// Epoch of the released grant.
        epoch: Epoch,
    },
    /// Lock stolen by recovery.
    LockStolen {
        /// Former holder.
        client: NodeId,
        /// File.
        ino: Ino,
        /// Epoch of the stolen grant.
        epoch: Epoch,
    },
    /// A conflicting lock request was queued (start of an unavailability
    /// window for that client/inode).
    RequestBlocked {
        /// The waiting client.
        client: NodeId,
        /// Contested file.
        ino: Ino,
    },
    /// Delivery error declared for a client.
    DeliveryError {
        /// The unresponsive client.
        client: NodeId,
    },
    /// The lease authority's timer fired: the client's lease is expired at
    /// the server.
    LeaseExpired {
        /// The expired client.
        client: NodeId,
    },
    /// A fence is in force for a client at every disk.
    Fenced {
        /// The fenced client.
        client: NodeId,
    },
    /// Fresh session established.
    NewSession {
        /// The client.
        client: NodeId,
    },
    /// The WAL's durable watermark advanced (group-commit fsync). Every
    /// response acknowledged after this point is justified by records at
    /// or below `durable` — the fsync→ACK ordering edge the hb auditor
    /// relies on.
    WalSynced {
        /// Durable log length in bytes after the fsync.
        durable: u64,
    },
    /// The server restarted after a fail-stop crash and entered its
    /// recovery grace window (no grants or mutations until every lease
    /// that might have been outstanding at the crash has expired).
    ServerRecovering,
    /// The server's recovery grace window closed; normal service resumed.
    ServerRecovered,

    // -------------------------------------------------------------- disk
    /// A write reached shared storage.
    Hardened {
        /// Writing initiator.
        initiator: NodeId,
        /// Block address.
        block: BlockId,
        /// Version hardened.
        tag: WriteTag,
        /// Version overwritten.
        previous: WriteTag,
    },
    /// A disk read was served (version visibility marker).
    DiskRead {
        /// Reading initiator.
        initiator: NodeId,
        /// Block address.
        block: BlockId,
        /// Version returned.
        tag: WriteTag,
    },
    /// A fence took effect at one disk for one initiator/range. Every
    /// earlier harden by that initiator inside the range happens-before
    /// this event (the disk processes commands serially).
    FenceInstalled {
        /// The fenced initiator.
        target: NodeId,
        /// First block covered by the fence.
        range_start: u64,
        /// One past the last block covered.
        range_end: u64,
    },
    /// An I/O was rejected because the initiator is fenced — the "late
    /// command" fencing exists to stop (§6).
    FenceRejected {
        /// The fenced initiator.
        initiator: NodeId,
        /// True for writes (the dangerous direction).
        was_write: bool,
    },
}
