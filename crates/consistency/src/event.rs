//! The unified observable event vocabulary.
//!
//! The cluster harness maps client, server, and disk node events into this
//! one enum so a single stream describes the whole run. Timestamps and
//! emitting nodes ride alongside in the simulator's observation tuples.

use serde::Serialize;
use tank_proto::{BlockId, Epoch, Ino, LockMode, NodeId, OpId, WriteTag};

/// One observable event. The emitting node and true timestamp are carried
/// by the world's observation stream, not duplicated here (except where
/// the *subject* differs from the emitter, e.g. a disk reporting on an
/// initiator).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Event {
    // ------------------------------------------------------------ client
    /// A local process submitted an operation.
    OpSubmitted {
        /// Operation id (unique per client).
        op: OpId,
        /// Operation kind label.
        kind: &'static str,
    },
    /// The operation finished.
    OpCompleted {
        /// Operation id.
        op: OpId,
        /// Operation kind label.
        kind: &'static str,
        /// Success flag.
        ok: bool,
        /// Denial/fault classification (stringly to avoid dependency
        /// cycles; values are `tank_client::FsErr` debug names).
        err: Option<String>,
    },
    /// A write was acknowledged into the write-back cache.
    WriteAcked {
        /// File.
        ino: Ino,
        /// Block index.
        idx: u32,
        /// Version written.
        tag: WriteTag,
    },
    /// A read was served to a local process for one block.
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
    /// A `Stat` was answered for a local process.
    AttrServed {
        /// File.
        ino: Ino,
        /// Answered from the attributes cached under a held lock (true)
        /// or by the server (false).
        from_cache: bool,
    },
    /// The client discarded its cache; `discarded_dirty` dirty blocks had
    /// not been hardened.
    CacheInvalidated {
        /// Unhardened dirty blocks lost at invalidation.
        discarded_dirty: usize,
    },
    /// The client stopped admitting requests on one lease lane (phase 3).
    Quiesced {
        /// Shard (server index) whose lane quiesced.
        shard: u16,
    },
    /// The client resumed service on one lane.
    Resumed {
        /// Shard (server index) whose lane resumed.
        shard: u16,
    },
    /// Fail-stop crash of a client (emitted by the harness, which is the
    /// entity that injects it).
    Crashed {
        /// The crashed node.
        node: NodeId,
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
    /// A conflicting lock request was queued.
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
    /// Server-side lease expiry for a client.
    LeaseExpired {
        /// The expired client.
        client: NodeId,
    },
    /// Fence in force for a client.
    Fenced {
        /// The fenced client.
        client: NodeId,
    },
    /// Fresh session established.
    NewSession {
        /// The client.
        client: NodeId,
    },
    /// The WAL's durable watermark advanced (group-commit fsync). Orders
    /// the durability point before every subsequently sent ACK.
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
    /// An I/O was rejected by a fence.
    FenceRejected {
        /// The fenced initiator.
        initiator: NodeId,
        /// True for writes.
        was_write: bool,
    },
}
