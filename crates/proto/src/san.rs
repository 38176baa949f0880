//! Storage-area-network message set (initiator ⟷ disk).
//!
//! Disks are deliberately dumb, matching §2 of the paper: "Disk drives on a
//! SAN cannot execute non-storage code and consequently cannot maintain
//! views and send data messages as required." A disk only answers block
//! reads/writes and honours fencing commands; it never initiates traffic and
//! participates in no distributed protocol.

use serde::{Deserialize, Serialize};

use crate::ids::{BlockId, NodeId, WriteTag};

/// Administrative fencing operations, issued by the server to a disk.
///
/// Fencing "instructs the SAN-attached storage devices to no longer accept
/// I/O requests from the isolated computer", and the device "must enforce
/// this denial of access indefinitely" (§1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FenceOp {
    /// Stop serving the initiator.
    Fence,
    /// Resume serving the initiator (after an administrator or recovery
    /// protocol re-admits it).
    Unfence,
}

/// A half-open range `[start, end)` of block addresses on the SAN.
///
/// Fences are scoped to a range so a sharded metadata cluster can fence a
/// client out of one shard's allocation range while the client keeps doing
/// direct I/O against blocks governed by other shards (whose leases are
/// still good). A single-server deployment fences [`BlockRange::ALL`],
/// which degenerates to the paper's whole-device fence (§1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockRange {
    /// First block covered.
    pub start: u64,
    /// One past the last block covered.
    pub end: u64,
}

impl BlockRange {
    /// Every block on the device.
    pub const ALL: BlockRange = BlockRange {
        start: 0,
        end: u64::MAX,
    };

    /// Whether `block` falls inside the range.
    #[inline]
    pub fn contains(&self, block: BlockId) -> bool {
        self.start <= block.0 && block.0 < self.end
    }
}

/// A message on the SAN.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SanMsg {
    /// Read one block.
    ReadBlock {
        /// Initiator-chosen correlation id.
        req_id: u64,
        /// Block address.
        block: BlockId,
    },
    /// Write one block.
    WriteBlock {
        /// Initiator-chosen correlation id.
        req_id: u64,
        /// Block address.
        block: BlockId,
        /// Payload (a full block).
        data: Vec<u8>,
        /// Provenance tag for the consistency checker; ignored by protocol
        /// logic (real disks store bytes, not tags).
        tag: WriteTag,
    },
    /// Answer to `ReadBlock`.
    ReadResp {
        /// Echo of the request id.
        req_id: u64,
        /// The outcome.
        result: Result<SanReadOk, SanError>,
    },
    /// Answer to `WriteBlock`.
    WriteResp {
        /// Echo of the request id.
        req_id: u64,
        /// The outcome.
        result: Result<(), SanError>,
    },
    /// Fence/unfence an initiator (server → disk). Disks acknowledge so the
    /// server knows the fence is in force before stealing locks.
    FenceCmd {
        /// Correlation id.
        req_id: u64,
        /// The initiator whose access changes.
        target: NodeId,
        /// Fence or unfence.
        op: FenceOp,
        /// The block range the fence covers (an unfence removes exactly
        /// the matching fenced range).
        range: BlockRange,
    },
    /// Answer to `FenceCmd`.
    FenceResp {
        /// Echo of the request id.
        req_id: u64,
    },
}

/// Payload of a successful block read.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SanReadOk {
    /// Block contents.
    pub data: Vec<u8>,
    /// Tag of the write that produced these contents (checker metadata).
    pub tag: WriteTag,
}

/// Which of `ndisks` disks a block lives on: blocks are striped
/// round-robin. Client and server must agree on placement, so the rule
/// lives here in the shared protocol crate.
#[inline]
pub fn stripe_disk(block: crate::ids::BlockId, ndisks: usize) -> usize {
    assert!(ndisks > 0, "no disks");
    (block.0 % ndisks as u64) as usize
}

/// SAN-level I/O errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SanError {
    /// The initiator is fenced; the disk enforces denial indefinitely.
    Fenced,
    /// Block address out of range.
    BadAddress,
    /// Injected device failure.
    DeviceError,
}

impl SanMsg {
    /// Short static label for metrics.
    ///
    /// Stable per-message-kind key for the observability layer
    /// (`tank-obs`); keep labels fixed — they are contract, not
    /// decoration (`OBSERVABILITY.md`).
    pub fn kind(&self) -> &'static str {
        match self {
            SanMsg::ReadBlock { .. } => "san_read",
            SanMsg::WriteBlock { .. } => "san_write",
            SanMsg::ReadResp { .. } => "san_read_resp",
            SanMsg::WriteResp { .. } => "san_write_resp",
            SanMsg::FenceCmd { .. } => "san_fence",
            SanMsg::FenceResp { .. } => "san_fence_resp",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Epoch;

    #[test]
    fn write_carries_data_in_size_hint() {
        let w = SanMsg::WriteBlock {
            req_id: 1,
            block: BlockId(0),
            data: vec![7u8; 512],
            tag: WriteTag {
                writer: NodeId(1),
                epoch: Epoch(1),
                wseq: 0,
            },
        };
        assert_eq!(w.kind(), "san_write");
        assert!(tank_sim::Payload::size_hint(&crate::NetMsg::San(w)) >= 512);
    }

    #[test]
    fn fence_roundtrip_labels() {
        let f = SanMsg::FenceCmd {
            req_id: 9,
            target: NodeId(2),
            op: FenceOp::Fence,
            range: BlockRange::ALL,
        };
        assert_eq!(f.kind(), "san_fence");
        let r = SanMsg::FenceResp { req_id: 9 };
        assert_eq!(r.kind(), "san_fence_resp");
    }
}
