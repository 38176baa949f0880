//! Control- and storage-network protocol definitions for the Storage Tank
//! reproduction.
//!
//! This crate is the shared vocabulary of the whole system: node/object
//! identifiers, the control-network message set exchanged between clients
//! and the metadata server (requests, replies, NACKs, server pushes), the
//! SAN message set exchanged with shared disks (block reads/writes and
//! fencing commands), at-most-once delivery bookkeeping, and the one byte
//! format ([`wire`](mod@wire)) that the real-network binding sends, the
//! metadata log stores and the simulator counts.
//!
//! The message set follows the paper's description of Storage Tank
//! (Burns, Rees & Long, IPPS 2000):
//!
//! * clients and servers exchange *datagrams* on the control network;
//! * client-initiated messages are acknowledged (ACK, here: [`Response`]
//!   with an `Ok` result) or negatively acknowledged (NACK, here:
//!   [`Response`] with an `Err(NackReason)`), and carry sequence numbers for
//!   "at most once" semantics (§3);
//! * servers may push lock demands to clients; pushes are retried until the
//!   client responds, and a persistent delivery failure is what arms the
//!   passive lease authority (§3, §3.3);
//! * disks speak only the SAN protocol and never initiate messages (§2).
//!
//! It also holds the one observable [`Event`] vocabulary every node
//! reports, so an emitter needs no crate beyond this one to speak it.

pub mod event;
pub mod ids;
pub mod lock;
pub mod message;
pub mod repl;
pub mod san;
pub mod seqwin;
pub mod wire;

pub use event::{Event, FsErr};
pub use ids::{
    BlockId, Epoch, FileHandle, Incarnation, Ino, NodeId, OpId, ReqSeq, ServerId, SessionId,
    WriteTag,
};
pub use lock::LockMode;
pub use message::{
    CtlMsg, NackReason, PushBody, ReplyBody, Request, RequestBody, Response, RouteError,
    ServerPush, MAX_BATCH_ELEMS, MAX_NAME,
};
pub use repl::ReplMsg;
pub use san::{stripe_disk, BlockRange, FenceOp, SanError, SanMsg, SanReadOk};
pub use seqwin::DedupWindow;
/// The hasher for keys a node mints, re-exported for crates that see the
/// simulator only through this one.
pub use tank_sim::fxhash;
pub use wire::{WireDecode, WireEncode, WireError, MAX_DATAGRAM};

/// The single payload type carried by the simulated world: a message on the
/// control network or a message on the SAN.
///
/// Keeping one payload enum (rather than one generic world per network)
/// mirrors the paper's central observation that the *combination* of the two
/// networks is what produces asymmetric partitions: a scenario manipulates
/// both networks of one world.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum NetMsg {
    /// Control-network traffic (client ⟷ server).
    Ctl(CtlMsg),
    /// Storage-area-network traffic (client/server ⟷ disk).
    San(SanMsg),
    /// Log-replication traffic (shard primary ⟷ warm standby), carried on
    /// the control network like any other server-to-server datagram.
    Repl(ReplMsg),
}

impl NetMsg {
    /// Short, static label for metrics aggregation.
    ///
    /// Consumed by the observability layer (`tank-obs`): the server's
    /// unexpected-message trace events and any per-message-kind counter
    /// key off this string, so variants must keep their labels stable —
    /// `OBSERVABILITY.md` treats them as part of the trace vocabulary.
    pub fn kind(&self) -> &'static str {
        match self {
            NetMsg::Ctl(m) => m.kind(),
            NetMsg::San(m) => m.kind(),
            NetMsg::Repl(m) => m.kind(),
        }
    }

    /// True if this message is pure lease-maintenance traffic (keep-alives
    /// and their responses) rather than useful file-system work. The
    /// overhead experiments count these separately.
    pub fn is_lease_overhead(&self) -> bool {
        match self {
            NetMsg::Ctl(m) => m.is_lease_overhead(),
            NetMsg::San(_) => false,
            // Replication is durability overhead, not lease maintenance.
            NetMsg::Repl(_) => false,
        }
    }
}

/// The context every protocol node is activated with, in the simulator
/// and on a UDP host alike: it sends [`NetMsg`]s and reports [`Event`]s.
pub type NodeCtx<'a> = tank_sim::Ctx<'a, NetMsg, Event>;

impl tank_sim::Payload for NetMsg {
    fn kind(&self) -> &'static str {
        NetMsg::kind(self)
    }

    /// The exact encoded length: the simulator counts the bytes the
    /// message would put on the wire.
    fn size_hint(&self) -> usize {
        self.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netmsg_kind_dispatches_to_inner() {
        let m = NetMsg::Ctl(CtlMsg::Request(Request {
            src: NodeId(1),
            session: SessionId(0),
            seq: ReqSeq(7),
            body: RequestBody::KeepAlive,
        }));
        assert_eq!(m.kind(), "keep_alive");
        assert!(m.is_lease_overhead());
    }
}
