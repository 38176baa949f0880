//! The Storage Tank metadata/lock server.
//!
//! One sans-I/O [`ServerCore`] answers every client request — routing,
//! recovery and §3.3 lease-authority gates, Hello and its replay cache,
//! the at-most-once session window, dispatch, and the answer to every
//! grant — over state it owns:
//!
//! * the metadata store (`tank-meta`) — namespace, inodes, allocation;
//! * a [`LockService`] — the [`LockManager`] (shared/exclusive data locks
//!   on inodes with FIFO waiter queues, §1.2, §2) plus the demand / retry /
//!   release-wait ladder that declares delivery errors;
//! * the passive [`tank_core::LeaseAuthority`] — armed only by delivery
//!   errors, NACKing suspect clients, stealing locks after `τ(1+ε)` (§3);
//! * per-client [`SessionTable`] state — session incarnations, at-most-once
//!   windows, response caching for duplicate suppression.
//!
//! The core also arms and decides every lease timer ([`CoreTimer`]: the
//! demand ladder, the lease expiry, the steal grace, the recovery
//! window). Two drivers carry out the [`Effect`]s it queues: the
//! simulator's [`ServerNode`] actor and `tank-net`'s UDP reactor
//! (`tankd`); a driver only fences or steals. The node adds what needs
//! disks, a log or a peer: the write-ahead log and its group commit, the
//! [`RoleCore`] that decides log shipping, heartbeats and the standby's
//! election, and a [`FenceController`] that fences the SAN disks before
//! locks are stolen (§6: "at the same time the server times-out a client's
//! locks, it constructs a fence between that client and its storage devices").
//!
//! The [`RecoveryPolicy`] knob, applied by the core, selects what happens
//! when a client stops responding, which is exactly the axis the paper's
//! argument runs along:
//! honor locks forever (§2's indefinite unavailability), steal immediately
//! (traditional servers — unsafe on a SAN), fence-then-steal (§2.1's
//! inadequate fix), or the paper's lease protocol with fencing.

pub mod config;
pub mod demand;
pub mod fence;
pub mod lock;
pub mod node;
pub mod obs;
pub mod request;
pub mod role;
pub mod session;

pub use config::{RecoveryPolicy, ServerConfig};
pub use demand::{DemandLadder, LadderTimer, LockEffect, LockService};
pub use fence::FenceController;
pub use lock::{LockManager, LockRequestOutcome};
pub use node::ServerNode;
pub use obs::ServerObs;
pub use request::{Admit, CoreTimer, Effect, ServerCore, ServerStats};
pub use role::{Role, RoleCore, RoleEffect};
pub use session::SessionTable;
