//! History recording and offline safety checking.
//!
//! Nodes emit [`Event`]s through the simulator's observation stream; after
//! a run the [`Checker`] audits the full history for the failure modes the
//! paper's protocol exists to prevent:
//!
//! * **lost updates** — write-back data acknowledged to a local process
//!   that never reached shared storage (§2.1: "dirty data on C1 are
//!   stranded and never reach disk");
//! * **stale reads** — a read served (from cache or disk) returning a
//!   version older than one already hardened to shared storage (§2.1:
//!   fenced clients "continue to read and write data out of the cache, and
//!   any of these data may have been modified on another client");
//! * **write-order violations** — a block's hardened version history going
//!   backwards in lock-epoch order: the "late command" from a stolen-lock
//!   holder that fencing exists to stop (§6), or two unsynchronized
//!   writers interleaving (§2: "multiple writers without synchronization");
//! * **unavailability** — windows during which a client's conflicting lock
//!   request sat blocked (§2: a partition "can render major portions of a
//!   file system unavailable indefinitely").
//!
//! The version-tag scheme makes these checks exact: every write carries a
//! [`tank_proto::WriteTag`] whose `(epoch, wseq)` totally orders writes to
//! an inode (epochs order conflicting lock grants; `wseq` orders one
//! grant's writes), so "older" and "newer" are decidable without guessing.

pub mod checker;
pub mod durability;
pub mod hb;
pub mod obs_check;

pub use checker::{
    CheckOptions, CheckReport, Checker, LostUpdate, StaleRead, UnavailWindow, WriteOrderViolation,
};
pub use durability::{audit_store, audit_wal, DurabilityReport};
pub use hb::{Access, AccessKind, EdgeKind, HbGraph, HbOptions, HbReport, RacyPair, VClock};
pub use obs_check::cross_check;
pub use tank_proto::Event;
