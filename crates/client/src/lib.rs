//! The Storage Tank client node.
//!
//! A [`ClientNode`] serves file-system operations for its local processes:
//!
//! * metadata operations go to the server over the control network, and —
//!   because every acknowledged request renews the lease — double as
//!   opportunistic lease renewals (§3.1);
//! * data I/O goes **directly to the shared SAN disks** once the client
//!   holds a data lock and the lock grant's block map (§1.1);
//! * writes are **write-back cached** (§2.1): a local write completes into
//!   the cache and is hardened later — by the periodic flush, by a lock
//!   demand from the server, or by phase 4 of an expiring lease;
//! * the embedded [`tank_core::ClientLease`] drives the four-phase lease
//!   lifecycle: keep-alives when renewal stalls, quiesce when suspect,
//!   flush-everything in expected-failure, then invalidate + cede and
//!   re-`Hello` after expiry.
//!
//! The actor is organized as a set of small engines around one state
//! bundle: a request/retry engine (at-most-once, lease-aware), a SAN I/O
//! engine (block reads/writes with striping shared with the server), an
//! operation state machine per in-flight local op, and flush campaigns.

pub mod cache;
pub mod fs;
pub mod node;
pub mod obs;

pub use cache::{BlockCache, BlockState};
pub use fs::{FsData, FsErr, FsOp, OpGen};
pub use node::{ClientConfig, ClientNode, ClientStats};
pub use obs::ClientObs;
