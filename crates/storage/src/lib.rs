//! SAN substrate: shared virtual block disks with fencing.
//!
//! A [`DiskNode`] is exactly as dumb as the paper requires (§2: SAN disk
//! drives "cannot execute non-storage code and consequently cannot maintain
//! views and send data messages"): it answers block reads and writes,
//! honours fence commands, and never initiates a message or keeps protocol
//! state. Its only anachronistic feature is bookkeeping for the
//! experiments — each block remembers the [`tank_proto::WriteTag`] of the
//! write that produced it, and the disk reports hardened writes / fenced
//! rejections as [`tank_proto::Event`]s through a pluggable observer so
//! the consistency checker can audit runs offline.

pub mod disk;

pub use disk::{DiskConfig, DiskNode, DiskStats};
