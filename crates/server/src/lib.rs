//! The Storage Tank metadata/lock server node.
//!
//! One [`ServerNode`] actor combines:
//!
//! * the metadata store (`tank-meta`) — namespace, inodes, allocation;
//! * a [`LockService`] — the [`LockManager`] (shared/exclusive data locks
//!   on inodes with FIFO waiter queues, §1.2, §2) plus the demand / retry /
//!   release-wait ladder that declares delivery errors; sans-I/O, and
//!   shared with `tank-net`'s UDP server;
//! * the passive [`tank_core::LeaseAuthority`] — armed only by delivery
//!   errors, NACKing suspect clients, stealing locks after `τ(1+ε)` (§3);
//! * a [`FenceController`] — constructs fences at the SAN disks before
//!   locks are stolen (§6: "at the same time the server times-out a
//!   client's locks, it constructs a fence between that client and its
//!   storage devices");
//! * per-client [`SessionTable`] state — session incarnations, at-most-once
//!   windows, response caching for duplicate suppression.
//!
//! The [`RecoveryPolicy`] knob selects what happens when a client stops
//! responding, which is exactly the axis the paper's argument runs along:
//! honor locks forever (§2's indefinite unavailability), steal immediately
//! (traditional servers — unsafe on a SAN), fence-then-steal (§2.1's
//! inadequate fix), or the paper's lease protocol with fencing.

pub mod config;
pub mod demand;
pub mod events;
pub mod fence;
pub mod lock;
pub mod node;
pub mod obs;
pub mod session;

pub use config::{RecoveryPolicy, ServerConfig};
pub use demand::{DemandLadder, LadderTimer, LockEffect, LockService};
pub use events::ServerEvent;
pub use fence::FenceController;
pub use lock::{LockManager, LockRequestOutcome};
pub use node::{ServerNode, ServerStats};
pub use obs::ServerObs;
pub use session::SessionTable;
