//! Metadata substrate for the Storage Tank server.
//!
//! The paper separates metadata from data (§1.1): shared SAN disks hold
//! only file *blocks*; everything else — the namespace, inode attributes,
//! and the map from files to block addresses — lives on the server's
//! private, metadata-optimized storage. This crate is that private store:
//!
//! * [`InodeTable`] — inode allocation and attributes;
//! * [`Namespace`] — a hierarchical directory tree;
//! * [`BlockAllocator`] — allocation of shared-disk blocks to files;
//! * [`MetaStore`] — the façade combining them with the operations the
//!   server exposes (create/lookup/mkdir/readdir/unlink/attr/alloc);
//! * [`txn`] — the one mutation table: a request is built as its redo
//!   record, done by the function that replay redoes it with, and
//!   answered from what that produced;
//! * [`wal`] — a CRC-framed write-ahead log with explicit group-commit
//!   points, modeling the private device honestly (a crash keeps only
//!   fsynced bytes);
//! * [`snapshot`] — canonical full-state snapshots, log compaction, and
//!   the crash-recovery replay path.
//!
//! Everything here is plain single-threaded data structure code: the server
//! actor owns one `MetaStore` and serializes access through its message
//! loop, exactly as a metadata server owns its private disks.

pub mod alloc;
pub mod inode;
pub mod namespace;
pub mod snapshot;
pub mod store;
pub mod txn;
pub mod wal;

pub use alloc::BlockAllocator;
pub use inode::{Inode, InodeTable};
pub use namespace::Namespace;
pub use snapshot::{Recovered, Watermarks};
pub use store::{MetaError, MetaStore};
pub use txn::Applied;
pub use wal::{DurableStore, WalDefect, WalRecord, WalStats};
