//! Log-replication messages between a shard primary and its warm standby.
//!
//! The standby tails the primary's write-ahead log over the control
//! network. Shipping is *cumulative*: every [`ReplMsg::Append`] carries
//! the durable log delta from the offset the primary last sent, and each
//! replication beat falls back to the offset the standby last
//! acknowledged, so drops and duplicates self-heal by the next beat —
//! there is no per-message retransmission state. When the primary compacts, the
//! snapshot generation bumps and shipments include the full snapshot
//! until the standby acknowledges the new generation.
//!
//! Replication is one-directional and side-effect-free on the primary:
//! a standby that misses traffic simply lags, and takes over only via the
//! diskless-lease election (no heartbeats for τ(1+ε) on its own clock),
//! by which time every lease the dead primary could have granted has
//! expired on its holder's clock.

use serde::{Deserialize, Serialize};

use crate::ids::Incarnation;

/// One replication datagram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplMsg {
    /// Durable-log shipment from primary to standby.
    Append {
        /// Primary's snapshot generation.
        snap_gen: u64,
        /// Full snapshot bytes, included while the standby's acknowledged
        /// generation trails `snap_gen` (it cannot interpret log offsets
        /// against a base it does not hold).
        snapshot: Option<Vec<u8>>,
        /// Log offset the delta starts at (the primary's send cursor, or
        /// the standby's last ack on a beat).
        offset: u64,
        /// Durable log bytes from `offset` up to the primary's fsync
        /// watermark.
        bytes: Vec<u8>,
        /// The primary's durable watermark after this delta.
        durable: u64,
    },
    /// Standby's cumulative acknowledgment: it durably holds the log up
    /// to `durable` bytes of generation `snap_gen`.
    AppendAck {
        /// Generation the ack refers to.
        snap_gen: u64,
        /// Durable log bytes held.
        durable: u64,
    },
    /// Primary liveness beacon, sent when there is nothing to ship. The
    /// standby's election timer runs off the last `Append`/`Heartbeat`
    /// arrival.
    Heartbeat {
        /// The primary's current incarnation.
        incarnation: Incarnation,
    },
}

impl ReplMsg {
    /// Short, static label for metrics aggregation (same contract as
    /// [`crate::CtlMsg::kind`]).
    pub fn kind(&self) -> &'static str {
        match self {
            ReplMsg::Append { .. } => "repl_append",
            ReplMsg::AppendAck { .. } => "repl_append_ack",
            ReplMsg::Heartbeat { .. } => "repl_heartbeat",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetMsg;

    #[test]
    fn kind_and_size_are_stable() {
        let hb = ReplMsg::Heartbeat {
            incarnation: Incarnation(3),
        };
        assert_eq!(hb.kind(), "repl_heartbeat");
        let app = ReplMsg::Append {
            snap_gen: 1,
            snapshot: Some(vec![0; 10]),
            offset: 0,
            bytes: vec![0; 5],
            durable: 5,
        };
        assert_eq!(app.kind(), "repl_append");
        // Two tags, three u64 counters, the snapshot's flag, length and
        // 10 bytes, the delta's length and 5 bytes: the simulator counts
        // the exact encoding.
        assert_eq!(tank_sim::Payload::size_hint(&NetMsg::Repl(app)), 50);
        assert_eq!(
            ReplMsg::AppendAck {
                snap_gen: 1,
                durable: 5
            }
            .kind(),
            "repl_append_ack"
        );
    }
}
