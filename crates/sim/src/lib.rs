//! Deterministic discrete-event simulator for two-network storage systems.
//!
//! This crate is the execution substrate for the Storage Tank reproduction.
//! It provides:
//!
//! * **virtual time** ([`SimTime`]) and per-node **rate-skewed clocks**
//!   ([`Clock`]) whose rates are bounded by the paper's ε: an interval of
//!   length `t` on one clock measures within `(t/(1+ε), t(1+ε))` on another
//!   (§3). Protocol code only ever sees local time.
//! * an **event scheduler** with deterministic tie-breaking, so a run is a
//!   pure function of its configuration and seed;
//! * **two (or more) independent datagram networks** ([`Network`]) with
//!   latency, jitter, loss, duplication, and *directional* link blocking —
//!   the ingredient needed to reproduce the paper's asymmetric partitions
//!   (§2): partitioning the control network while the SAN stays healthy;
//! * an **actor model** ([`Actor`], [`Ctx`]) for nodes (clients, servers,
//!   disks), with timers expressed in *local* clock durations;
//! * **observations**: a typed event stream nodes emit for offline checking
//!   (the consistency checker consumes these);
//! * **message statistics** per (message kind, network) for the overhead
//!   experiments.
//!
//! Determinism contract: given the same actors, configuration and seed, the
//! event sequence is identical on every run. All randomness flows from one
//! ChaCha seed; the heap tie-breaks on insertion order; clocks are pure
//! functions of virtual time; wall-clock time never enters the simulator.

pub mod actor;
pub mod fxhash;
pub mod net;
pub mod stats;
pub mod time;
pub mod token;
pub mod world;

pub use actor::{Actor, Ctx, Effect};
pub use net::{NetId, NetParams, Network};
pub use stats::{MsgCounter, MsgStats};
pub use time::{Clock, ClockSpec, LocalNs, SimTime};
pub use token::TokenMap;
pub use world::{CausalRecord, World, WorldConfig};

use serde::{Deserialize, Serialize};

/// Identifies a node (client, server, or disk) in a simulated world.
///
/// Assigned densely from zero in registration order, so per-node state can
/// live in flat vectors.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into flat per-node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Message payloads carried by a simulated network.
pub trait Payload: Clone + std::fmt::Debug {
    /// Short static label for metrics aggregation.
    ///
    /// The observability layer (`tank-obs`) aggregates per-message
    /// counters and trace details by this label, so implementations
    /// must return stable strings — one per payload variant, never
    /// per-instance data.
    fn kind(&self) -> &'static str {
        "msg"
    }

    /// Approximate wire size in bytes for byte counters.
    fn size_hint(&self) -> usize {
        0
    }
}
