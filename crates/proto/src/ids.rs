//! Strongly-typed identifiers used across the system.
//!
//! Every identifier is a transparent newtype over a small integer so that
//! protocol state stays compact (see the type-size guidance in the Rust
//! perf-book) and so the compiler prevents cross-wiring, e.g. passing an
//! inode number where a block number is expected.

use serde::{Deserialize, Serialize};

/// Identifies a node (client, server, or disk). Defined by the simulator
/// substrate and re-exported here so protocol messages and the execution
/// substrate agree on one identifier type.
pub use tank_sim::NodeId;

/// An inode number: the unit of metadata and of logical locking.
///
/// The paper contrasts Storage Tank's *logical* locks on distributed data
/// structures with GFS's physical `dlock` on disk-address ranges (§5); we
/// lock inodes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct Ino(pub u64);

impl std::fmt::Display for Ino {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ino{}", self.0)
    }
}

/// A block address on the shared SAN store.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct BlockId(pub u64);

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk{}", self.0)
    }
}

/// Client-side handle for an open file instance.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct FileHandle(pub u64);

/// Per-(client, session) request sequence number, the basis of at-most-once
/// delivery (§3: messages "include version numbers for 'at most once'
/// delivery semantics").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct ReqSeq(pub u64);

impl ReqSeq {
    /// The next sequence number.
    #[inline]
    pub fn next(self) -> ReqSeq {
        ReqSeq(self.0 + 1)
    }
}

/// Identifies one metadata shard server in a multi-server cluster.
///
/// The paper's client "maintains a single lease *per server*" (§3); a
/// `ServerId` names the server a given lease, session, and lock grant
/// belong to. Shard ids are dense (`0..n`) so topologies can index by
/// them; the shard map (`tank-shard`) translates between `ServerId` and
/// the owned slice of the inode namespace.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct ServerId(pub u16);

impl std::fmt::Display for ServerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A client⟷server session incarnation.
///
/// After a lease expires and the server steals a client's locks, the client
/// must establish a new session (`Hello`) before it is served again; stale
/// traffic from the dead session is rejected by session id mismatch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct SessionId(pub u64);

impl SessionId {
    /// The next session incarnation.
    #[inline]
    pub fn next(self) -> SessionId {
        SessionId(self.0 + 1)
    }
}

/// A server incarnation number, bumped each time the metadata server
/// restarts after a fail-stop crash.
///
/// The server stamps its incarnation on every [`crate::Response`], so a
/// client can detect a restart (the incarnation it sees changes) even
/// though the server keeps no durable session state: the client then
/// discards its dead session, flushes what its still-valid lease lets it
/// flush, and re-registers with `Hello`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct Incarnation(pub u64);

impl Incarnation {
    /// The next incarnation (used by a restarting server).
    #[inline]
    pub fn next(self) -> Incarnation {
        Incarnation(self.0 + 1)
    }
}

impl std::fmt::Display for Incarnation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inc{}", self.0)
    }
}

/// A lock epoch: a server-issued, per-inode monotonically increasing counter
/// stamped on every lock grant.
///
/// Epochs give the consistency checker a total order of conflicting lock
/// ownership per inode: writes tagged with an older epoch that land on disk
/// after a newer epoch's writes are exactly the "late commands" fencing is
/// meant to stop (§6).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The next epoch.
    #[inline]
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }
}

/// Identifier of a single file-system operation submitted by a local
/// process, used to correlate history events in the consistency checker.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct OpId(pub u64);

/// Provenance tag carried by every SAN block write.
///
/// `(epoch, wseq)` orders writes: epochs order conflicting lock owners,
/// `wseq` orders a single owner's writes to the block. The tag exists purely
/// for the checker and the experiments; the protocol itself never inspects
/// it (real disks store bytes, not tags).
///
/// **Uniqueness contract.** Whole tags are unique system-wide, not just
/// ordered per block — the happens-before auditor resolves a disk-side
/// harden back to its `(ino, block)` through the tag alone, and epochs are
/// per-shard counters that collide across shards. Clients are the only
/// minters, and each draws `wseq` from one per-client global counter, so no
/// two of a client's tags agree on it whatever their epochs and shards.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct WriteTag {
    /// The writing node.
    pub writer: NodeId,
    /// Lock epoch under which the write was issued.
    pub epoch: Epoch,
    /// Writer-local sequence for this block within the epoch.
    pub wseq: u64,
}

impl WriteTag {
    /// Total order used by the checker: epoch first, then writer sequence.
    #[inline]
    pub fn order_key(&self) -> (u64, u64) {
        (self.epoch.0, self.wseq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_and_session_advance() {
        assert_eq!(ReqSeq(3).next(), ReqSeq(4));
        assert_eq!(SessionId(0).next(), SessionId(1));
        assert_eq!(Epoch(9).next(), Epoch(10));
    }

    #[test]
    fn write_tag_ordering_prefers_epoch() {
        let a = WriteTag {
            writer: NodeId(1),
            epoch: Epoch(1),
            wseq: 99,
        };
        let b = WriteTag {
            writer: NodeId(2),
            epoch: Epoch(2),
            wseq: 0,
        };
        assert!(a.order_key() < b.order_key());
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(Ino(7).to_string(), "ino7");
        assert_eq!(BlockId(1).to_string(), "blk1");
        assert_eq!(ServerId(2).to_string(), "s2");
    }

    #[test]
    fn ids_stay_small() {
        // These types sit inside every message; keep them word-sized.
        assert!(std::mem::size_of::<NodeId>() <= 4);
        assert!(std::mem::size_of::<WriteTag>() <= 24);
    }
}
